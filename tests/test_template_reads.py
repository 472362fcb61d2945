"""Template certificates are read, not evaluated.

A template with no rows is zero at every point, so every reader skips its
evaluation: the iota residual per term pair, ``tensorop._at`` and the
identity suites per alpha, the operator lemmas per alpha, and the de Rham
suite per sampled (vector, generator).  Each test here swaps a memo for one
that returns a one-row template, which the reader must then evaluate and
report.  The de Rham suite reads the equivariance templates and the
constant composite tables; it is compared with the numeric computation it
replaced (``oracles.check_derham``), also under mutations of the kernels
the templates are built from.
"""

import itertools
import random
from contextlib import contextmanager

import oracles
import pytest

from test_derham import LEMMA_PROFILES
from weylmod import derham, memo, structure, suites, tensorop, weightmod, weyl
from weylmod.errors import StructureError
from weylmod.derham import _derham_table, _equivariance_image, _equivariance_template, pi
from weylmod.indices import mi_zero
from weylmod.structure import GeneratorSet
from weylmod.suites import (
    _random_fvector,
    check_derham,
    check_eq_cubic,
    check_iota_hom,
    standard_profiles,
)
from weylmod.tensorop import (
    TensorOperator,
    _at,
    _special_operator,
    cubic_identity_residual,
    iota_hom_residual,
    shen_iota,
)
from weylmod.terms import Poly
from weylmod.vectorfields import monomial_field
from weylmod.weightmod import _action_table, compose, make_wedge_module


def _one_row(n, tag):
    """A template of one row: the constant 1 times t^base d^0, tagged, built
    (with its kernel) by ``tensorop._template`` over the base alpha."""
    return tensorop._template({((Poly.symbols(n), mi_zero(n)), tag): 1}, Poly.symbols(n))


@contextmanager
def _counted(module, name, counts):
    """``<module>.<name>`` wrapped to count its calls in counts[name]."""
    inner = getattr(module, name)

    def counted(*args, **options):
        counts[name] = counts.get(name, 0) + 1
        return inner(*args, **options)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, name, counted)
        yield


@contextmanager
def _patched(patches):
    """Each (module, name, value) set, with every library memo cleared
    (``memo.clear``) before the patches are set and again once they are
    lifted."""
    memo.clear()
    try:
        with pytest.MonkeyPatch.context() as patch:
            for module, name, value in patches:
                patch.setattr(module, name, value)
            yield
    finally:
        memo.clear()


# -- the short cuts ----------------------------------------------------------


def test_iota_pairs_with_empty_templates_are_not_evaluated():
    x = monomial_field((1, 0, 2), 1) + monomial_field((0, 1, 0), 3)
    y = monomial_field((2, 1, 0), 2)
    counts = {}
    with _counted(tensorop, "_evaluated", counts):
        assert iota_hom_residual(x, y).is_zero()
        assert check_iota_hom(2, 2)["pass"]
    assert counts == {}
    # a template with a row is evaluated at every pair that reads it:
    # c1 c2 t^(a+b) (x) 1 per pair
    with _patched([(tensorop, "_iota_template", lambda n, i, j: _one_row(n, ()))]):
        residual = iota_hom_residual(x, y)
        report = check_iota_hom(2, 1)
    assert residual == TensorOperator(3, {(((3, 1, 2), (0, 0, 0)), ()): 1,
                                          (((2, 2, 0), (0, 0, 0)), ()): 1})
    assert not report["pass"] and report["residual_terms"] == report["checked"]


def test_iota_reads_a_live_pair_at_its_term_pairs_only():
    # a one-row template at (i, j) = (1, 2) alone: the table of rank 3 holds
    # that pair, and the residual evaluates it at the term pairs
    # (t^a d_1, t^b d_2), c1 c2 t^(a+b) (x) 1 each, and at no other pair
    honest = tensorop._iota_template
    x = (monomial_field((1, 0, 2), 1, 2) + monomial_field((0, 1, 0), 3)
         + monomial_field((0, 0, 1), 1, -1))
    y = monomial_field((2, 1, 0), 2, 3) + monomial_field((0, 2, 1), 1)

    def one_pair(n, i, j):
        return _one_row(n, ()) if (i, j) == (1, 2) else honest(n, i, j)

    counts = {}
    with _patched([(tensorop, "_iota_template", one_pair)]):
        live = tensorop._iota_live(3)
        assert {pair: template[1] for pair, template in live.items()} == {(1, 2): _one_row(3, ())[1]}
        with _counted(tensorop, "_evaluated", counts):
            residual = iota_hom_residual(x, y)
    assert counts == {"_evaluated": 2}
    assert residual == TensorOperator(3, {(((3, 1, 2), (0, 0, 0)), ()): 6,
                                          (((2, 1, 1), (0, 0, 0)), ()): -3})
    assert iota_hom_residual(x, y).is_zero()


def test_iota_rank_mismatch_is_refused_before_the_table_is_read():
    counts = {}
    with _counted(tensorop, "_iota_live", counts):
        with pytest.raises(StructureError, match="rank mismatch: 2 vs 3"):
            iota_hom_residual(monomial_field((0, 1), 1), monomial_field((0, 0, 1), 1))
    assert counts == {}


def test_identities_read_empty_templates_without_evaluating_them():
    counts = {}
    empty = tensorop._residual_template("cubic", 3, 1, 2)[0]
    assert empty[1] == ()
    with _counted(tensorop, "_evaluated", counts):
        assert _at(empty, (1, 2, 3)).is_zero()
        assert cubic_identity_residual((1, 2, 3), 1, 2).is_zero()
        honest = check_eq_cubic(3)
    assert counts == {} and honest["pass"] and honest["residual_terms"] == 0
    one = _one_row(3, ())
    assert _at(one, (1, 2, 3)) == TensorOperator(3, {(((1, 2, 3), (0, 0, 0)), ()): 1}, True)
    # the suite reads the memo that the public residual functions read
    with _patched([(suites, "_residual_template", lambda kind, n, i, j: (one, 3))]):
        report = check_eq_cubic(3)
    assert not report["pass"] and report["residual_terms"] == report["checked"] == 6 * 6**3
    assert report["polynomialWitnesses"] == 0 < honest["polynomialWitnesses"]
    assert check_eq_cubic(3) == honest


def test_lemmas_read_empty_templates_without_building_rows():
    P, box = LEMMA_PROFILES["poly"]
    args = ((2, 0, 0, 0), 1, P, 2, box)
    counts = {}
    with _counted(tensorop, "_evaluated", counts), _counted(derham, "_evaluated", counts), \
            _counted(derham, "_integer_rows", counts):
        assert derham.verify_g_equals_u(*args)["pass"]
        assert derham.verify_h_annihilates(*args)["pass"]
    assert counts == {}
    # t^alpha (x) (first label -> first label) kills no source with the
    # first label
    with _patched([(derham, "_lemma_template", lambda check, n, i, r: _one_row(n, (0, 0)))]):
        reports = [derham.verify_g_equals_u(*args), derham.verify_h_annihilates(*args)]
    for report, source in zip(reports, (2, 1)):
        assert not report["pass"] and report["failures"]
        first = str(make_wedge_module(4, source).labels[0])
        assert {f["label"] for f in report["failures"]} == {first}


def test_derham_reads_empty_tables_without_row_work():
    counts = {}
    with _counted(derham, "_rows_on_terms", counts), _counted(structure, "_rows_on_terms", counts):
        honest = check_derham(3, count=20)
    assert honest["pass"] and counts == {}
    with _patched([(derham, "_equivariance_template", lambda n, i, r: _one_row(n, (0, 0)))]):
        report = check_derham(3, count=20)
    assert not report["pass"] and report["checked"] == honest["checked"]
    assert {f["kind"] for f in report["failures"]} == {"equivariance"}


# -- the composition and the equivariance certificate ------------------------


@pytest.mark.parametrize("n", [3, 4, 5])
def test_compose_after_the_derham_map_equals_the_append_oracle(n):
    # the g and h tables of every lemma case over a symbolic alpha,
    # composed after the de Rham map from degree r - 1: h o pi vanishes,
    # g o pi does not
    alpha = Poly.symbols(n)
    for i, r in itertools.product(range(1, n - 1), range(2, n)):
        wedge = make_wedge_module(n, r)
        for kind in ("g", "h"):
            table = _action_table(_special_operator(kind, alpha, i), wedge)
            got = compose(table, _derham_table(n, r - 1))
            assert got == oracles.after_derham(table, n, r), (kind, n, i, r)
            assert bool(got) == (kind == "g"), (kind, n, i, r)


def test_composite_tables_are_empty():
    # pi o pi = 0 as one constant table per (n, k), n = 2..6
    for n in range(2, 7):
        for k in range(n - 1):
            assert compose(_derham_table(n, k + 1), _derham_table(n, k)) == {}
            assert _derham_table(n, k)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("seed", [5, 11])
def test_derham_report_equals_the_numeric_oracle(n, seed):
    # the composite, kernel and equivariance samples, over the poly,
    # one-twist and Laurent profiles
    assert check_derham(n, count=30, seed=seed) == oracles.check_derham(n, count=30, seed=seed)


def _numeric_residuals(n, seed):
    """(field, w, pi(g w) - g pi(w)) for the default generators g on three
    sampled vectors per (profile, degree), the action through
    ``GeneratorSet.act``."""
    rng = random.Random(seed)
    gens = GeneratorSet.default(n)
    for P in standard_profiles(n).values():
        for k in range(n - 1):
            for _ in range(3):
                w = _random_fvector(rng, P, make_wedge_module(n, k), nterms=2, radius=2)
                for gi, g in enumerate(gens.members):
                    yield g.field, w, pi(gens.act(gi, w)) - gens.act(gi, pi(w))


def _without_e_terms(x):
    """shen_iota with its E terms dropped: x (x) 1, kernel-built, since x
    may carry symbolic exponents."""
    op = shen_iota(x)
    terms = {key: c for key, c in op.terms.items() if not key[1]}
    return TensorOperator._from_kernel(terms, rank=op.rank, laurent=op.laurent)


@pytest.mark.parametrize("n", [2, 3])
def test_equivariance_images_equal_the_numeric_residual(n):
    # honest: every template is empty and every residual zero; with iota's
    # E terms dropped in the templates and in the generator action alike,
    # the templates have rows, and their images, read at the exponents of
    # each generator's terms, are the numeric residuals term by term
    cases = list(_numeric_residuals(n, 17))
    assert all(_equivariance_image(x, w).is_zero() and residual.is_zero()
               for x, w, residual in cases)
    with _patched([(derham, "shen_iota", _without_e_terms),
                   (structure, "shen_iota", _without_e_terms)]):
        wrong = list(_numeric_residuals(n, 17))
        images = [_equivariance_image(x, w) for x, w, _ in wrong]
        assert any(_equivariance_template(n, i, 0)[1] for i in range(1, n + 1))
    assert images == [residual for *_, residual in wrong]
    assert any(not image.is_zero() for image in images)


def _flipped_first_sign(n, r):
    """``_derham_table`` with the sign of its first entry flipped."""
    table = dict(_derham_table(n, r))
    key = next(iter(table))
    table[key] = -table[key]
    return table


def _shifted_d_product(m1, m2):
    """The monomial product with one more d_1 on every term but the first."""
    first, *rest = weyl._monomial_product(m1, m2)
    return [first] + [((t_exp, (d_exp[0] + 1, *d_exp[1:])), c) for (t_exp, d_exp), c in rest]


MUTATIONS = {
    "iota without E": [(derham, "shen_iota", _without_e_terms)],
    "flipped de Rham sign": [(derham, "_derham_table", _flipped_first_sign),
                             (suites, "_derham_table", _flipped_first_sign)],
    "shifted d in compose": [(weightmod, "_monomial_product", _shifted_d_product)],
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_a_mutated_kernel_fails_the_certificate_and_the_suite(mutation):
    n = 3
    with _patched(MUTATIONS[mutation]):
        rows = [len(_equivariance_template(n, i, r)[1])
                for i in range(1, n + 1) for r in range(n)]
        # no composite samples, so the report lists the equivariance loop's
        # failures
        report = check_derham(n, count=0)
        pi_table = derham._derham_table
        composite = [compose(pi_table(n, k + 1), pi_table(n, k)) for k in range(n - 1)]
    assert sum(rows) > 0, rows
    assert not report["pass"]
    assert {f["kind"] for f in report["failures"]} == {"equivariance"}
    assert any(composite) == (mutation == "flipped de Rham sign")
    assert all(not _equivariance_template(n, i, r)[1] for i in range(1, n + 1) for r in range(n))
