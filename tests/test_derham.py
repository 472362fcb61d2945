"""The de Rham maps, the canonical graded submodules, and the operator lemmas."""

import itertools
import random
from contextlib import contextmanager
from fractions import Fraction

import oracles
import pytest

from weylmod import suites, tensorop
from weylmod.derham import (
    GradedSubspace,
    _derham_table,
    _key_ranges,
    _lemma_count,
    _lemma_report,
    _lemma_template,
    partial_span,
    pi,
    pi_image,
    pi_kernel,
    verify_g_equals_u,
    verify_h_annihilates,
)
from weylmod.errors import ArgumentError
from weylmod.indices import TruncationBox, mi_unit
from weylmod.linalg import RowBasis
from weylmod.structure import subquotient_inventory
from weylmod.suites import check_bounded_multiplicity, check_g_u, check_h_ln
from weylmod.tensorop import special_operator, tensor
from weylmod.ugl import E
from weylmod.vectorfields import L_op
from weylmod.weightmod import (
    Factor,
    FVector,
    WeightModuleP,
    _action_table,
    compose,
    make_wedge_module,
    sn_act,
    tensor_act,
)
from weylmod.weyl import WeylElement


def random_fvector(rng, P, M, nterms=2, lo=0, hi=3):
    terms = {}
    for _ in range(nterms):
        key = tuple(rng.randint(lo, hi) for _ in range(P.rank))
        if not P.supports_key(key):
            key = tuple(
                -1 - abs(k) if f.kind == "twist" else abs(k)
                for f, k in zip(P.factors, key)
            )
        terms[(key, rng.randrange(M.dim))] = rng.randint(-3, 3)
    return FVector(P, M, terms)


def test_pi_examples():
    n = 2
    A = WeightModuleP.polynomial(n)
    triv = make_wedge_module(n, 0)
    wedge1 = make_wedge_module(n, 1)
    out = pi(FVector.basis(A, triv, (1, 1), 0))
    assert out == FVector.basis(A, wedge1, (0, 1), (1,)) + FVector.basis(
        A, wedge1, (1, 0), (2,)
    )
    assert pi(FVector.basis(A, triv, (0, 0), 0)).is_zero()


def test_pi_argument_checks():
    n = 2
    A = WeightModuleP.polynomial(n)
    top = make_wedge_module(n, 2)
    with pytest.raises(ArgumentError):
        pi(FVector.basis(A, top, (0, 0), 0))


def test_pi_composite_vanishes():
    rng = random.Random(61)
    profiles = {
        2: [WeightModuleP.polynomial(2), WeightModuleP.laurent(2)],
        3: [WeightModuleP.polynomial(3), WeightModuleP.twisted(3)],
        4: [WeightModuleP([Factor("poly"), Factor("twist"), Factor("poly"), Factor("laurent", Fraction(1, 2))])],
    }
    for n, mods in profiles.items():
        for P in mods:
            for k in range(n - 1):
                M = make_wedge_module(n, k)
                for _ in range(10):
                    w = random_fvector(rng, P, M, lo=-3)
                    assert pi(w) == oracles.derham(w)
                    assert pi(pi(w)).is_zero()


def test_pi_weight_preservation():
    rng = random.Random(63)
    P = WeightModuleP.polynomial(3)
    M = make_wedge_module(3, 1)
    for _ in range(10):
        w = random_fvector(rng, P, M)
        image = pi(w)
        if not image.is_zero() and not w.is_zero():
            assert set(oracles.weights(image)) <= set(oracles.weights(w))


def test_pi_equivariance():
    # the de Rham maps intertwine the divergence-free action
    rng = random.Random(65)
    for n in (2, 3):
        P = WeightModuleP.polynomial(n)
        gens = []
        for i, j in itertools.permutations(range(1, n + 1), 2):
            for alpha in itertools.product(range(-1, 2), repeat=n):
                if all(alpha[s] >= (-1 if s in (i - 1, j - 1) else 0) for s in range(n)):
                    g = L_op(i, j, alpha)
                    if not g.is_zero():
                        gens.append(g)
        for k in range(n):
            M = make_wedge_module(n, k)
            for _ in range(5):
                w = random_fvector(rng, P, M)
                for x in gens:
                    assert pi(sn_act(x, w)) == sn_act(x, pi(w))


def test_pi_image_examples():
    n = 2
    A = WeightModuleP.polynomial(n)
    box = TruncationBox((0, 0), (4, 4))
    ln1 = pi_image(A, 1, box)
    wedge1 = make_wedge_module(n, 1)
    # pi_0(t_1) = 1 (x) e_1 lives at weight (1, 0)
    assert ln1.contains(FVector.basis(A, wedge1, (0, 0), (1,)))
    # at weight (1,1) the image line is spanned by t_2 (x) e_1 + t_1 (x) e_2
    assert ln1.dim_at((1, 1)) == 1
    assert len(ln1.labels[(1, 1)]) == 2
    vec = FVector.basis(A, wedge1, (0, 1), (1,)) + FVector.basis(A, wedge1, (1, 0), (2,))
    assert ln1.contains(vec)
    assert not ln1.contains(FVector.basis(A, wedge1, (0, 1), (1,)))
    # a vector with a term outside the window, or over other modules, is in
    # no subspace of it
    outside = vec + FVector.basis(A, wedge1, (4, 4), (1,))
    other = FVector(WeightModuleP.laurent(n), wedge1, vec.terms)
    assert not ln1.contains(outside) and not ln1.contains(other)


def test_pi_image_top_degree_matches_partial_span():
    # the top-degree image is the derivative span shifted by (1, ..., 1)
    n = 2
    A = WeightModuleP.polynomial(n)
    box = TruncationBox((0, 0), (4, 4))
    ln2 = pi_image(A, 2, box)
    delta = partial_span(A, box)
    for w in box.keys():
        shifted = tuple(x - 1 for x in w)
        if all(0 <= x <= 3 for x in shifted):
            assert ln2.dim_at(w) == delta.dim_at(shifted), (w,)


def test_pi_kernel_examples():
    box2 = TruncationBox((0, 0), (3, 3))
    A = WeightModuleP.polynomial(2)
    ker = pi_kernel(A, 0, box2)
    assert ker.dims() == {w: (1 if w == (0, 0) else 0) for w in box2.keys()}
    lbox = TruncationBox((-2, -2), (2, 2))
    for P in (WeightModuleP.laurent(2), ):
        assert pi_kernel(P, 0, lbox).total_dim() == 0
    tbox = TruncationBox((-4, -4), (-1, -1))
    assert pi_kernel(WeightModuleP.twisted(2), 0, tbox).total_dim() == 0


def test_pi_image_inside_pi_kernel():
    for P, box in (
        (WeightModuleP.polynomial(3), TruncationBox((0, 0, 0), (3, 3, 3))),
        (WeightModuleP.twisted(3), TruncationBox((-4, -4, -4), (-1, -1, -1))),
    ):
        for r in (1, 2):
            image = pi_image(P, r, box)
            kernel = pi_kernel(P, r, box)
            for w in box.keys():
                for vec in oracles.basis_vectors(image, w):
                    assert kernel.contains(vec)


def test_partial_span_profiles():
    n = 2
    box = TruncationBox((0, 0), (4, 4))
    full = partial_span(WeightModuleP.polynomial(n), box)
    assert all(dim == 1 for dim in full.dims().values())

    tbox = TruncationBox((-4, -4), (-1, -1))
    twisted = partial_span(WeightModuleP.twisted(n), tbox)
    dims = twisted.dims()
    assert dims[(-1, -1)] == 0
    assert all(dim == 1 for w, dim in dims.items() if w != (-1, -1))

    lbox = TruncationBox((-2, -2), (2, 2))
    laurent = partial_span(WeightModuleP.laurent(n), lbox)
    assert all(dim == 1 for dim in laurent.dims().values())


def test_generators_keep_p_inside_partial_span():
    # S_n p lies in the derivative span, for every generator and key
    for n in (2, 3):
        P = WeightModuleP.polynomial(n)
        box = TruncationBox((0,) * n, (6,) * n)
        delta = partial_span(P, box)
        triv = make_wedge_module(n, 0)
        for i, j in itertools.permutations(range(1, n + 1), 2):
            for alpha in itertools.product(range(-1, 2), repeat=n):
                if not all(alpha[s] >= (-1 if s in (i - 1, j - 1) else 0) for s in range(n)):
                    continue
                gen = L_op(i, j, alpha)
                if gen.is_zero():
                    continue
                for key in itertools.product(range(3), repeat=n):
                    out = sn_act(gen, FVector.basis(P, triv, key, 0))
                    if not out.is_zero():
                        assert delta.contains(out)


def test_g_equals_u_lemma():
    n = 3
    P = WeightModuleP.polynomial(n)
    key_box = TruncationBox((0, 0, 0), (3, 3, 3))
    report = verify_g_equals_u((2, 0, 0), 1, P, 2, key_box)
    assert report["pass"] and report["checked"] > 0
    # twisted profile
    PT = WeightModuleP([Factor("twist"), Factor("poly"), Factor("poly")])
    tbox = TruncationBox((-3, 0, 0), (-1, 3, 3))
    report = verify_g_equals_u((2, 1, 0), 1, PT, 2, tbox)
    assert report["pass"] and report["checked"] > 0


def test_g_equals_u_wedge_cases():
    # raising operators kill labels containing i; the surviving pair cancels
    n = 3
    alpha = (2, 0, 0)
    diff = special_operator("g", alpha, 1) - special_operator("u", alpha, 1)
    P = WeightModuleP.polynomial(n)
    wedge2 = make_wedge_module(n, 2)
    with_i = wedge2.labels.index((1, 2))
    v = FVector.basis(P, wedge2, (1, 1, 1), with_i)
    assert tensor_act(diff.demote(), v, allow_laurent=True).is_zero()
    survivors = wedge2.labels.index((2, 3))
    v = FVector.basis(P, wedge2, (1, 1, 1), survivors)
    assert tensor_act(diff.demote(), v, allow_laurent=True).is_zero()


def test_h_annihilates_lemma():
    n = 3
    P = WeightModuleP.polynomial(n)
    key_box = TruncationBox((0, 0, 0), (3, 3, 3))
    report = verify_h_annihilates((2, 0, 0), 1, P, 2, key_box)
    assert report["pass"] and report["checked"] > 0


def test_h_nonzero_off_the_image():
    # the lemma is about the image submodule, not all of F: for n = 4 the h
    # operator is nonzero on a plain basis vector (for n = 3 it happens to
    # vanish on the whole degree-2 module, and any probe with a constant
    # p-part dies under the right derivative factors)
    n = 4
    P = WeightModuleP.polynomial(n)
    wedge2 = make_wedge_module(n, 2)
    h = special_operator("h", (2, 0, 0, 0), 1)
    probe = FVector.basis(P, wedge2, (0, 0, 1, 0), wedge2.labels.index((2, 4)))
    out = tensor_act(h.demote(), probe, allow_laurent=True)
    assert not out.is_zero()
    # but h still kills the image span, where the probe key is arbitrary
    box = TruncationBox((0, 0, 0, 0), (2, 2, 2, 2))
    report = verify_h_annihilates((2, 0, 0, 0), 1, P, 2, box)
    assert report["pass"]


LEMMA_PROFILES = {
    "poly": (WeightModuleP.polynomial(4), TruncationBox((0,) * 4, (1,) * 4)),
    "laurent": (
        WeightModuleP.laurent(4, Fraction(-7, 5)),
        TruncationBox((-1,) * 4, (0,) * 4),
    ),
    "one-twist": (
        WeightModuleP([Factor("twist")] + [Factor("poly")] * 3),
        TruncationBox((-2, 0, 0, 0), (-1, 1, 1, 1)),
    ),
}


def test_lemma_report_names_exactly_the_vectors_not_killed():
    # h is nonzero on part of F at n = 4; the merged evaluation behind the
    # lemma reports must name the same basis vectors as the direct action
    n = 4
    wedge2 = make_wedge_module(n, 2)
    alpha = (2, 0, 0, 0)
    h = special_operator("h", alpha, 1).demote()
    for P, box in LEMMA_PROFILES.values():
        table = _action_table(h, wedge2)
        checked = len(list(box.keys())) * wedge2.dim
        report = _lemma_report("h", alpha, 1, P, 2, table, box, 2, checked)
        expected = [
            {"key": list(key), "label": str(wedge2.labels[midx])}
            for key in box.keys()
            for midx in range(wedge2.dim)
            if not oracles.tensor_act(h, FVector.basis(P, wedge2, key, midx)).is_zero()
        ]
        assert expected and report["failures"] == expected, repr(P)
        assert not report["pass"] and report["checked"] == checked


def _failures(P, table, key_box, degree):
    """The failures of a lemma report on the tabulated operator over the
    basis vectors of F(P, wedge^degree) at the supported keys of the box."""
    checked = _lemma_count(P, degree, key_box, False)
    return _lemma_report("h", (0,) * P.rank, 1, P, 2, table, key_box, degree, checked)["failures"]


def test_operator_after_derham_matches_the_two_step_oracle():
    # the composite table of an operator after the de Rham map names the
    # same failing sources as the oracle de Rham map followed by the oracle
    # action; h itself kills the whole image, so besides h a product that
    # does not vanish there is checked
    n = 4
    wedge1 = make_wedge_module(n, 1)
    wedge2 = make_wedge_module(n, 2)
    alpha = (2, 0, 0, 0)
    h = special_operator("h", alpha, 1).demote()
    other = (tensor(WeylElement.monomial((1, 0, 0, 0), (0, 1, 0, 0)), E(1, 2, n))
             + tensor(WeylElement.monomial((0, 0, 1, 0), (0, 0, 0, 0), Fraction(2, 3)),
                      E(3, 4, n) * E(4, 1, n)))
    for op in (h, other):
        composite = compose(_action_table(op, wedge2), _derham_table(n, 1))
        for P, box in LEMMA_PROFILES.values():
            expected = [
                {"key": list(key), "label": str(wedge1.labels[midx])}
                for key in box.keys()
                for midx in range(wedge1.dim)
                if not oracles.tensor_act(
                    op, oracles.derham(FVector.basis(P, wedge1, key, midx))
                ).is_zero()
            ]
            assert _failures(P, composite, box, 1) == expected, repr(P)
            assert bool(expected) == (op is other), repr(P)
    for P, box in LEMMA_PROFILES.values():
        report = verify_h_annihilates(alpha, 1, P, 2, box)
        assert report["pass"] and report["checked"] > 0


def test_lemma_failures_cancel_across_derivative_degrees():
    # X (t_1 d_1 - lambda_1 - k0) kills exactly the keys with k_1 = k0, but
    # only once monomials of different derivative degree cancel on the key:
    # merging the table per monomial must keep their ratios exact
    rng = random.Random(29)
    k0 = 1
    label = str(make_wedge_module(2, 0).labels[0])
    for shift in (Fraction(-7, 5), Fraction(5, 3), Fraction(3, 4), Fraction(-1, 3)):
        P = WeightModuleP([Factor("laurent", shift), Factor("poly")])
        euler = WeylElement.monomial((1, 0), (1, 0)) - (shift + k0) * WeylElement.one(2)
        for _ in range(5):
            X = WeylElement.zero(2)
            for _ in range(3):
                X = X + WeylElement.monomial(
                    (rng.randint(0, 2), rng.randint(0, 2)),
                    (rng.randint(0, 2), rng.randint(0, 1)),
                    Fraction(rng.randint(1, 9), rng.randint(1, 4)),
                )
            op = X * euler
            table = {(mono, (0, 0)): c for mono, c in op.terms.items()}
            box = TruncationBox((-2, 0), (3, 2))
            expected = []
            for key in box.keys():
                image = {}
                for (t_exp, d_exp), c in op.terms.items():
                    hit = oracles.monomial_on_key(P, key, t_exp, d_exp)
                    if hit is not None:
                        image[hit[1]] = image.get(hit[1], 0) + c * hit[0]
                if any(image.values()):
                    expected.append({"key": list(key), "label": label})
            assert expected and all(f["key"][0] != k0 for f in expected)
            assert _failures(P, table, box, 0) == expected, (shift, op)


def test_lemma_report_that_checked_nothing_fails():
    P = WeightModuleP.polynomial(4)
    outside = TruncationBox((-3,) * 4, (-1,) * 4)
    for lemma in (verify_g_equals_u, verify_h_annihilates):
        report = lemma((2, 0, 0, 0), 1, P, 2, outside)
        assert report["checked"] == 0 and report["failures"] == []
        assert not report["pass"]


def test_lemmas_refuse_an_alpha_of_another_length():
    # a table read off the template of another rank would check nothing
    # that P can hold, so the length is refused before any work
    P = WeightModuleP.polynomial(4)
    box = TruncationBox((0,) * 4, (2,) * 4)
    for lemma in (verify_g_equals_u, verify_h_annihilates):
        for alpha in ((2, 0, -1, 0, 0), (2, 0, -1)):
            message = f"alpha has length {len(alpha)}, but P has rank 4"
            with pytest.raises(ArgumentError, match=message):
                lemma(alpha, 1, P, 2, box)


LEMMAS = {"g-equals-u": verify_g_equals_u, "h-annihilates": verify_h_annihilates}


def _lemma_cases(n):
    return [(check, i, r) for check in LEMMAS for i in range(1, n - 1) for r in range(2, n)]


_HONEST_ROWS = tensorop._special_rows


def _drop_first_u_row(kind, alpha, i):
    rows = _HONEST_ROWS(kind, alpha, i)
    return rows[1:] if kind == "u" else rows


def _double_first_h_row(kind, alpha, i):
    rows = _HONEST_ROWS(kind, alpha, i)
    if kind == "h":
        (c, *rest), *others = rows
        rows = [(2 * c, *rest), *others]
    return rows


@contextmanager
def _wrong_rows(wrong):
    """``tensorop._special_rows`` replaced by wrong.  The lemma templates
    are built from those rows, so their memo is cleared inside the patch
    and again before it is lifted."""
    with pytest.MonkeyPatch.context() as patch:
        if wrong is not None:
            patch.setattr(tensorop, "_special_rows", wrong)
        _lemma_template.cache_clear()
        try:
            yield
        finally:
            _lemma_template.cache_clear()


@pytest.mark.parametrize("wrong", [None, _drop_first_u_row, _double_first_h_row])
def test_lemma_tables_match_the_per_alpha_oracle(wrong):
    # the tables read off the templates equal the per-alpha tables, and on
    # every profile the reports name the oracle's failures, also when a
    # wrong row makes a lemma fail
    n = 4
    failed = set()
    with _wrong_rows(wrong):
        for (check, i, r), alpha in itertools.product(
            _lemma_cases(n), itertools.product(range(-1, 3), repeat=n)
        ):
            expected = oracles.lemma_table(check, alpha, i, r)
            got = tensorop._evaluated(_lemma_template(check, n, i, r), alpha, alpha)
            assert got == expected, (check, alpha, i, r)
            for P, box in LEMMA_PROFILES.values():
                spanning = check == "h-annihilates"
                checked = _lemma_count(P, r - spanning, box, spanning)
                report = LEMMAS[check](alpha, i, P, r, box)
                assert report == _lemma_report(
                    check, alpha, i, P, r, expected, box, r - spanning, checked
                )
                if report["failures"]:
                    failed.add(check)
    assert failed == {
        None: set(),
        _drop_first_u_row: {"g-equals-u"},
        _double_first_h_row: {"h-annihilates"},
    }[wrong]


def _at_first_index(wrong):
    """``tensorop._special_rows`` with the rows of wrong at i = 1 only."""
    return lambda kind, alpha, i: (wrong if i == 1 else _HONEST_ROWS)(kind, alpha, i)


@pytest.mark.parametrize("check, suite, wrong", [
    ("g-equals-u", check_g_u, _drop_first_u_row),
    ("h-annihilates", check_h_ln, _double_first_h_row),
])
def test_lemma_suite_records_exactly_its_failing_cases(check, suite, wrong):
    # the suite report against a per-case loop over the public lemma: it
    # lists the failing cases in case order, counts every case, and sums
    # the checked vectors of every case, failing or not
    n = 4
    with _wrong_rows(_at_first_index(wrong)):
        report = suite(n, delta_window=0, key_radius=1)
        records = []
        for name, P in suites.standard_profiles(n, suites.DEFAULT_SHIFT).items():
            box = suites._profile_key_box(P, 1)
            for r, i in itertools.product(range(2, n), range(1, n - 1)):
                alpha = suites._lower_bound(n, i, i + 2)
                case = LEMMAS[check](alpha, i, P, r, box)
                records.append({"profile": name, "r": r, "i": i, "alpha": list(alpha),
                                "checked": case["checked"], "pass": case["pass"]})
    failing = [record for record in records if not record["pass"]]
    assert len(records) == 12 and len(failing) == 4
    assert {record["i"] for record in failing} == {1}
    assert report["cases"] == len(records) and not report["pass"]
    assert report["failures"] == failing
    assert report["checked"] == sum(record["checked"] for record in records)


def test_lemma_suite_rejects_a_case_that_checked_nothing(monkeypatch):
    # on the poly profile at key radius 0 the only key is 0, which every d_l
    # kills: the h cases check nothing, which is a bad box, not a failure
    profiles = {"poly": WeightModuleP.polynomial(3)}
    monkeypatch.setattr(suites, "standard_profiles", lambda n, shift: profiles)
    with pytest.raises(ArgumentError, match="leaves nothing to check"):
        check_h_ln(3, delta_window=0, key_radius=0)
    assert check_g_u(3, delta_window=0, key_radius=0)["pass"]


def _live(P, key, l):
    """Whether d_l leaves the basis vector at key alive, by the oracle."""
    return oracles.monomial_on_key(P, key, (0,) * P.rank, mi_unit(l, P.rank)) is not None


def test_derham_sources_match_the_per_label_rule():
    # the spanning count must count exactly the labels that the per-label
    # rule keeps: some d_l with l outside the label survives on the key
    n = 4
    dropped = {}
    for name, (P, box) in LEMMA_PROFILES.items():
        box = TruncationBox(
            tuple(k - 1 for k in box.lower), tuple(k + 1 for k in box.upper)
        )
        keys = [key for key in box.keys() if P.supports_key(key)]
        for r in (1, 2):
            labels = make_wedge_module(n, r).labels
            expected = sum(
                any(_live(P, key, l) for l in range(1, n + 1) if l not in label)
                for key in keys
                for label in labels
            )
            assert _lemma_count(P, r, box, True) == expected, (name, r)
            dropped[name, r] = len(keys) * len(labels) - expected
    # the rule has something to drop where poly lines meet their edge
    assert dropped["poly", 1] > 0 and dropped["one-twist", 2] > 0


# the support edges spelled out apart from ``Factor.supports``
_EDGE = {"poly": lambda k: k >= 0, "twist": lambda k: k <= -1, "laurent": lambda k: True}
_POLY, _TWIST, _LAURENT = Factor("poly"), Factor("twist"), Factor("laurent", Fraction(1, 3))
# five profiles on three boxes that straddle the support edges at 0 and -1,
# and two boxes where one line has no supported key
_COUNT_CASES = [
    (factors, box)
    for factors in ([_POLY, _POLY, _POLY], [_TWIST, _TWIST, _TWIST], [_LAURENT] * 3,
                    [_TWIST, _POLY, _LAURENT], [_POLY, _LAURENT, _TWIST])
    for box in (TruncationBox((-2, -1, 0), (1, 2, 3)),
                TruncationBox((-1, -1, -1), (0, 0, 0)),
                TruncationBox((0, -3, -2), (2, -1, 1)))
] + [
    ([_POLY, _TWIST, _LAURENT], TruncationBox((-3, 0, 0), (-1, 1, 1))),
    ([_TWIST, _POLY, _POLY], TruncationBox((0, 0, 0), (2, 2, 2))),
]


def _supported_keys(factors, box):
    return [key for key in box.keys() if all(_EDGE[f.kind](k) for f, k in zip(factors, key))]


def test_key_ranges_are_the_supported_keys_in_box_order():
    # the product of the lines' ranges must be the box's keys that P
    # supports, in the box's order, also where a box straddles the edges
    for factors, box in _COUNT_CASES:
        keys = list(itertools.product(*_key_ranges(WeightModuleP(factors), box)))
        assert keys == _supported_keys(factors, box), (factors, box)


def test_lemma_count_matches_the_per_key_oracle():
    # the product formula against a walk over every supported key and
    # label: every vector, or with ``spanning`` those on which some d_l
    # with l outside the label survives (poly lines die at their edge 0)
    dropped = 0
    for factors, box in _COUNT_CASES:
        P = WeightModuleP(factors)
        keys = _supported_keys(factors, box)
        for r in (0, 1, 2):
            labels = make_wedge_module(3, r).labels
            spanning = sum(
                any(_live(P, key, l) for l in range(1, 4) if l not in label)
                for key in keys
                for label in labels
            )
            assert _lemma_count(P, r, box, False) == len(keys) * len(labels), (P, box, r)
            assert _lemma_count(P, r, box, True) == spanning, (P, box, r)
            dropped += len(keys) * len(labels) - spanning
    assert dropped > 0


def test_submodule_preservation_operator():
    # sum_s (d_s t^beta) (x) E_(s,i+2) E_(i,i+1) acts as -g on image vectors
    n = 3
    i = 1
    alpha = (2, 0, 0)
    beta = (1, 1, 1)
    P = WeightModuleP.polynomial(n)
    box = TruncationBox((0, 0, 0), (4, 4, 4))
    image = pi_image(P, 2, box)
    op = None
    for s in range(1, n + 1):
        prod = WeylElement.monomial((0,) * n, mi_unit(s, n)) * oracles.t_power(beta)
        term = tensor(prod, E(s, i + 2, n) * E(i, i + 1, n))
        op = term if op is None else op + term
    g = special_operator("g", alpha, i)
    for w in [(1, 1, 1), (2, 1, 1), (1, 2, 2)]:
        for vec in oracles.basis_vectors(image, w):
            lhs = tensor_act(op.demote(), vec, allow_laurent=True)
            assert lhs == tensor_act((-1 * g).demote(), vec, allow_laurent=True)


def test_kernel_gap_is_invariant():
    # generators send kernel vectors into the image span
    n = 2
    P = WeightModuleP.polynomial(n)
    box = TruncationBox((0, 0), (5, 5))
    wide = TruncationBox((-1, -1), (6, 6))
    image = pi_image(P, 1, wide)
    kernel = pi_kernel(P, 1, box)
    gens = []
    for alpha in itertools.product(range(-1, 2), repeat=n):
        if all(a >= -1 for a in alpha):
            g = L_op(1, 2, alpha, laurent=True)
            if not g.is_zero() and not g.element.demote().laurent:
                gens.append(g.demote())
    checked = 0
    for w in box.keys():
        for vec in oracles.basis_vectors(kernel, w):
            for x in gens:
                out = sn_act(x, vec)
                if not out.is_zero():
                    assert image.contains(out)
                    checked += 1
    assert checked > 0


def test_graded_subspace_json():
    A = WeightModuleP.polynomial(2)
    box = TruncationBox((0, 0), (2, 2))
    obj = pi_image(A, 1, box).to_json_obj()
    assert obj["blocks"] and all("weight" in b for b in obj["blocks"])


def test_a_window_with_no_blocks_is_the_zero_space():
    A = WeightModuleP.polynomial(2)
    wedge1 = make_wedge_module(2, 1)
    box = TruncationBox((0, 0), (2, 2))
    window = GradedSubspace(A, wedge1, box)
    assert window.blocks == {} and window.total_dim() == 0
    assert window.dims() == {w: 0 for w in box.keys()}
    assert window.contains(FVector(A, wedge1, {}))
    for w in box.keys():
        for key, midx in window.labels[w]:
            assert not window.contains(FVector.basis(A, wedge1, key, midx))
        assert oracles.basis_vectors(window, w) == []
    # the report lists every window weight, as a space with blocks does
    obj = window.to_json_obj()
    image = pi_image(A, 1, box).to_json_obj()
    assert [b["weight"] for b in obj["blocks"]] == [list(w) for w in sorted(box.keys())]
    assert [b["ambient"] for b in obj["blocks"]] == [b["ambient"] for b in image["blocks"]]
    assert all(b["dim"] == 0 and b["rows"] == [] for b in obj["blocks"])


def test_graded_subspace_refuses_a_block_that_does_not_fit():
    A = WeightModuleP.polynomial(2)
    wedge1 = make_wedge_module(2, 1)
    box = TruncationBox((0, 0), (2, 2))
    for w, ncols in (((3, 0), 1), ((1, 1), 1), ((0, 0), 2)):
        with pytest.raises(ArgumentError, match="does not fit the window"):
            GradedSubspace(A, wedge1, box, {w: RowBasis(ncols)})
    # the caller's mapping is copied, so it cannot change the space later
    blocks = {(1, 1): RowBasis(2)}
    space = GradedSubspace(A, wedge1, box, blocks)
    blocks[(1, 0)] = RowBasis(1)
    assert list(space.blocks) == [(1, 1)]


def test_windows_and_key_boxes_refuse_another_rank():
    P2, P3 = WeightModuleP.polynomial(2), WeightModuleP.polynomial(3)
    box2 = TruncationBox((0, 0), (2, 2))
    box3 = TruncationBox((0, 0, 0), (2, 2, 2))
    box4 = TruncationBox((0,) * 4, (1,) * 4)
    with pytest.raises(ArgumentError, match="the box has rank 3, but P has rank 2"):
        pi_image(P2, 1, box3)
    with pytest.raises(ArgumentError, match="the box has rank 3, but P has rank 2"):
        subquotient_inventory(P2, 1, box3)
    with pytest.raises(ArgumentError, match="M has rank 3, but P has rank 2"):
        GradedSubspace(P2, make_wedge_module(3, 1), box2)
    for lemma in (verify_g_equals_u, verify_h_annihilates):
        for box in (box2, box4):
            message = f"the key box has rank {box.rank}, but P has rank 3"
            with pytest.raises(ArgumentError, match=message):
                lemma((2, 0, -1), 1, P3, 2, box)


def test_bounded_multiplicity_fails_on_a_dropped_label(monkeypatch):
    # each multiplicity is compared with a count taken line by line, which
    # shares no loop with ambient_labels, so a window short of one label
    # fails the suite
    assert check_bounded_multiplicity(2)["pass"]
    real = suites.ambient_labels
    monkeypatch.setattr(suites, "ambient_labels", lambda P, M, mu: real(P, M, mu)[1:])
    result = check_bounded_multiplicity(2)
    assert not result["pass"] and result["failures"]
