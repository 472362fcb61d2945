"""The tensor algebra, the iota embedding, and the interpolation identities."""

import itertools
import random
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from test_properties import _wrong_kernel
from weylmod import memo, suites, tensorop
from weylmod.errors import ArgumentError, StructureError
from weylmod.indices import mi_add, mi_sub, mi_unit, mi_zero
from weylmod.suites import check_eq_cubic, check_eq_quartic
from weylmod.tensorop import (
    CUBIC_NODES,
    CUBIC_WEIGHTS,
    QUARTIC_NODES,
    QUARTIC_WEIGHTS,
    SPECIAL_KINDS,
    TensorOperator,
    cubic_identity_residual,
    cubic_m_product,
    cubic_target,
    from_weyl,
    interpolate_coefficients,
    interpolation_matrix,
    iota_hom_residual,
    quartic_identity_residual,
    quartic_m_product,
    shen_iota,
    special_operator,
    tensor,
)
from weylmod.terms import Poly, accumulate
from weylmod.ugl import E, UglElement, in_usl
from weylmod.vectorfields import L_op, VectorField, monomial_field
from weylmod.weyl import WeylElement, d, t


def test_tensor_mul_examples():
    n = 2
    lhs = from_weyl(d(1, n)) * tensor(t(1, n), E(1, 2, n))
    expected = tensor(t(1, n) * d(1, n), E(1, 2, n)) + tensor(
        WeylElement.one(n), E(1, 2, n)
    )
    assert lhs == expected

    prod = tensor(WeylElement.one(n), E(1, 2, n)) * tensor(
        WeylElement.one(n), E(2, 1, n)
    )
    assert prod == tensor(
        WeylElement.one(n), E(2, 1, n) * E(1, 2, n) + E(1, 1, n) - E(2, 2, n)
    )

    a = tensor(t(1, n) * d(2, n), E(2, 2, n)) - 3 * from_weyl(d(1, n))
    assert a * TensorOperator.one(n) == a


def test_shen_iota_examples():
    n = 2
    assert shen_iota(VectorField(d(1, n))) == from_weyl(d(1, n))
    assert shen_iota(VectorField(t(1, n) * d(2, n))) == tensor(
        t(1, n) * d(2, n), UglElement.one(n)
    ) + tensor(WeylElement.one(n), E(1, 2, n))
    assert shen_iota(VectorField(t(1, n) ** 2 * d(1, n))) == tensor(
        t(1, n) ** 2 * d(1, n), UglElement.one(n)
    ) + tensor(2 * t(1, n), E(1, 1, n))


def test_iota_hom_examples():
    n = 2
    x = VectorField(d(1, n))
    y = VectorField(t(1, n) * d(2, n))
    assert iota_hom_residual(x, y).is_zero()
    ix, iy = shen_iota(x), shen_iota(y)
    assert ix * iy - iy * ix == from_weyl(d(2, n))
    assert iota_hom_residual(y, y).is_zero()
    z = VectorField(t(1, n) * t(2, n) * d(2, n))
    assert iota_hom_residual(VectorField(t(1, n) * d(1, n)), z).is_zero()


def test_iota_hom_window():
    # acceptance runs the |alpha| <= 4 grid; keep a smaller grid here
    for n in (2, 3):
        monos = [
            (exp, i)
            for exp in itertools.product(range(3), repeat=n)
            if sum(exp) <= 2
            for i in range(1, n + 1)
        ]
        for (a_exp, i), (b_exp, j) in itertools.product(monos, repeat=2):
            x = monomial_field(a_exp, i)
            y = monomial_field(b_exp, j)
            assert iota_hom_residual(x, y).is_zero()


# iota_hom_residual reads one template per (n, i, j) over symbolic
# exponents; the two-product residual of the oracles is the reference
def _monomial_grid(n, exps, laurent):
    return [
        monomial_field(exp, i, laurent=laurent)
        for exp in itertools.product(exps, repeat=n)
        if laurent or sum(exp) <= 3
        for i in range(1, n + 1)
    ]


@pytest.mark.parametrize(
    "n, exps, laurent",
    [
        (2, range(-2, 4), True),
        (2, range(4), False),
        (3, range(4), False),
        # the oracle costs about 0.2 ms a pair, so the n = 3 Laurent grid
        # is [-1, 1]^3 (6,561 pairs) and not [-2, 3]^3 (420k pairs)
        (3, range(-1, 2), True),
    ],
)
def test_iota_template_matches_the_two_product_residual(n, exps, laurent):
    fields = _monomial_grid(n, exps, laurent)
    for x, y in itertools.product(fields, repeat=2):
        got = iota_hom_residual(x, y)
        assert got == oracles.iota_hom_residual(x, y), (x, y)
        assert got.laurent == laurent


def test_iota_template_on_sums_the_zero_field_and_mixed_modes():
    n = 3
    x = monomial_field((1, 0, 2), 1, Fraction(2, 3)) + monomial_field(
        (0, 3, 0), 2, Fraction(-5, 4)
    )
    y = monomial_field((-1, 2, 0), 3, Fraction(1, 2), laurent=True) + monomial_field(
        (0, 0, -2), 1, 7, laurent=True
    )
    zero = VectorField(WeylElement.zero(n))
    # every residual at n = 3 is the zero operator of the empty live table,
    # Laurent when either field is
    assert tensorop._iota_live(n) == {}
    for a, b in [(x, y), (y, x), (x, x), (y, y), (x, zero), (zero, y), (zero, zero)]:
        got = iota_hom_residual(a, b)
        assert got == oracles.iota_hom_residual(a, b)
        assert got.is_zero()
        assert got.laurent == (a.laurent or b.laurent)


def test_iota_hom_residual_refuses_non_int_exponents():
    # a field with a non-int exponent is refused where it is built, so the
    # residual only ever meets int exponents
    y = monomial_field((0, 1), 1, laurent=True)
    message = r"exponent Fraction\(1, 2\) in \(Fraction\(1, 2\), 0\) is not an integer"
    with pytest.raises(ArgumentError, match=message):
        monomial_field((Fraction(1, 2), 0), 1, laurent=True)
    # the public constructor refuses it before any sum; a map that a kernel
    # built (``_from_kernel``) is adopted unchecked by every operation
    with pytest.raises(ArgumentError, match=message):
        y + VectorField(WeylElement(2, {((Fraction(1, 2), 0), (1, 0)): 1}, True))
    with pytest.raises(StructureError, match="rank mismatch: 2 vs 3"):
        iota_hom_residual(y, monomial_field((0, 0, 1), 1))


def test_iota_template_rows_are_a_plus_b_plus_an_offset(monkeypatch):
    # a bracket whose t exponent is 2a would let two rows meet at a = 0, so
    # the template refuses to compile it
    def doubled_exponent(x, y):
        ((t_exp, d_exp),) = x.element.terms
        terms = {(tuple(2 * e for e in t_exp), d_exp): 1}
        return VectorField(WeylElement._from_kernel(terms, rank=x.rank, laurent=True))

    x = monomial_field((0, 1), 1)
    memo.clear()
    monkeypatch.setattr(tensorop, "bracket", doubled_exponent)
    with pytest.raises(StructureError, match="integer offset"):
        iota_hom_residual(x, x)
    monkeypatch.undo()
    memo.clear()
    assert iota_hom_residual(x, x).is_zero()


def test_iota_expanded_display():
    # the closed four-term expansion of iota(L_ij^alpha)
    for n in (2, 3):
        for i, j in itertools.permutations(range(1, n + 1), 2):
            for alpha in itertools.product(range(-1, 3), repeat=n):
                if not all(
                    alpha[s] >= (-1 if s in (i - 1, j - 1) else 0) for s in range(n)
                ):
                    continue
                gen = L_op(i, j, alpha)
                ai, aj = alpha[i - 1], alpha[j - 1]
                expected = tensor(gen.element, UglElement.one(n)) + tensor(
                    oracles.t_power(alpha, (1 + ai) * (1 + aj), laurent=True)
                    .demote(),
                    E(i, i, n) - E(j, j, n),
                )
                for s in range(1, n + 1):
                    a_s = alpha[s - 1]
                    if a_s == 0:
                        continue
                    if s != i:
                        exp = mi_sub(mi_add(alpha, mi_unit(i, n)), mi_unit(s, n))
                        expected = expected + tensor(
                            oracles.t_power(exp, (1 + aj) * a_s, laurent=True),
                            E(s, i, n),
                        )
                    if s != j:
                        exp = mi_sub(mi_add(alpha, mi_unit(j, n)), mi_unit(s, n))
                        expected = expected - tensor(
                            oracles.t_power(exp, (1 + ai) * a_s, laurent=True),
                            E(s, j, n),
                        )
                assert shen_iota(gen) == expected, (n, i, j, alpha)


def test_iota_of_generators_lands_in_usl():
    for n in (2, 3):
        for i, j in itertools.permutations(range(1, n + 1), 2):
            for alpha in itertools.product(range(-1, 2), repeat=n):
                if not all(
                    alpha[s] >= (-1 if s in (i - 1, j - 1) else 0) for s in range(n)
                ):
                    continue
                image = shen_iota(L_op(i, j, alpha))
                # the U(gl) cofactor of every Weyl monomial is an sl member
                cofactors = {}
                for (wmono, pmono), coeff in image.terms.items():
                    cofactors.setdefault(wmono, {})[pmono] = coeff
                for part in cofactors.values():
                    assert in_usl(UglElement(n, part))


def test_special_operator_f_at_zero():
    n = 3
    alpha = (0, 0, 0)
    built = special_operator("f", alpha, 1)
    e1, e2, e3 = (mi_unit(k, 3) for k in (1, 2, 3))
    expected = tensor(
        oracles.t_power(mi_sub(e2, e1), laurent=True),
        E(1, 1, n) * E(1, 2, n) - E(1, 2, n),
    ) - tensor(
        oracles.t_power(mi_sub(e3, e1), laurent=True), E(1, 3, n) * E(1, 1, n)
    )
    # the third display term carries coefficient alpha_i = 0
    assert built == expected


def test_special_operator_h_canonical_form():
    n = 3
    alpha = (2, 0, 0)
    beta = (1, 1, 1)
    built = special_operator("h", alpha, 1)
    expected = (
        -tensor(WeylElement.monomial(beta, mi_unit(3, n)), E(1, 2, n))
        + tensor(WeylElement.monomial(beta, mi_unit(1, n)), E(1, 2, n) * E(1, 3, n))
        + tensor(WeylElement.monomial(beta, mi_unit(2, n)), E(1, 2, n) * E(2, 3, n))
        + tensor(WeylElement.monomial(beta, mi_unit(3, n)), E(3, 3, n) * E(1, 2, n))
    )
    assert built == expected
    # the display has n + 2 summands; one cancellation leaves n + 1 terms
    assert len(built.terms) == n + 1


def test_special_operator_g_minus_u_display():
    n = 3
    alpha = (2, 0, 0)
    i = 1
    g = special_operator("g", alpha, i)
    u = special_operator("u", alpha, i)
    f = special_operator("f", alpha, i)
    e1, e2, e3 = (mi_unit(k, 3) for k in (1, 2, 3))
    extra = tensor(
        oracles.t_power(mi_sub(mi_add(alpha, e3), e1), laurent=True),
        E(1, 3, n) * E(2, 2, n) + E(2, 3, n) * E(1, 2, n),
    ) - tensor(
        oracles.t_power(
            mi_sub(mi_add(alpha, mi_add(e2, e3)), mi_add(e1, e1)), laurent=True
        ),
        E(1, 3, n) * E(1, 2, n),
    )
    assert g - u == f + extra


def test_special_operator_argument_checks():
    with pytest.raises(ArgumentError):
        special_operator("g", (0, 0), 1)  # needs i <= n - 2
    with pytest.raises(ArgumentError):
        special_operator("q", (0, 0, 0), 1)
    # the index range is checked before the kind
    with pytest.raises(ArgumentError, match="out of range"):
        special_operator("q", (0, 0, 0), 2)
    # exact stays exact: a rational or float exponent is refused
    for bad in (Fraction(1, 2), Fraction(2), 0.5, 1.0):
        for kind in SPECIAL_KINDS:
            with pytest.raises(ArgumentError, match="not an integer"):
                special_operator(kind, (bad, 0, 0), 1)
            with pytest.raises(ArgumentError, match="not an integer"):
                special_operator(kind, (0, 0, 0, bad), 2)


def _assert_matches_chain_oracle(kind, alpha, i):
    built = special_operator(kind, alpha, i)
    expected = oracles.special_operator(kind, alpha, i)
    assert built == expected, (kind, alpha, i)
    assert built.mode == "laurent"
    assert all(c != 0 for c in built.terms.values())
    return built


def test_special_operators_match_the_chain_builders():
    for alpha in itertools.product(range(-3, 4), repeat=3):
        for kind in SPECIAL_KINDS:
            _assert_matches_chain_oracle(kind, alpha, 1)
    rng = random.Random(59)
    for n in (4, 5):
        for _ in range(300):
            alpha = tuple(rng.randint(-3, 4) for _ in range(n))
            i = rng.randint(1, n - 2)
            for kind in SPECIAL_KINDS:
                _assert_matches_chain_oracle(kind, alpha, i)


def test_special_operator_rows_that_vanish():
    # a zero row coefficient leaves its monomial out, not stored as 0
    n, i = 4, 2
    z = mi_zero(n)
    e = {s: mi_unit(s, n) for s in range(1, n + 1)}
    ii, ij, ik = ((i, i), 1), ((i, i + 1), 1), ((i, i + 2), 1)

    def key(t_exp, *factors):
        return ((t_exp, z), factors)

    def f_rows(alpha):
        beta = mi_sub(mi_add(alpha, mi_add(e[i + 1], e[i + 2])), e[i])
        return (
            key(mi_add(mi_sub(alpha, e[i]), e[i + 1]), ii, ij),
            key(mi_sub(beta, e[i]), ij, ik),
        )

    generic = (1, 2, 1, 1)
    top, third = f_rows(generic)
    f = _assert_matches_chain_oracle("f", generic, i)
    assert top in f.terms and third in f.terms
    # alpha_i = 0 drops the alpha_i t^(beta-e_i) E_(i,i+2) E_(i,i+1) row
    alpha = (1, 0, 1, 1)
    top, third = f_rows(alpha)
    for kind in ("f", "g"):
        op = _assert_matches_chain_oracle(kind, alpha, i)
        assert top in op.terms and third not in op.terms
    # alpha_(i+2) = -1 drops the (1 + alpha_(i+2)) rows
    alpha = (1, 2, 1, -1)
    top, third = f_rows(alpha)
    f = _assert_matches_chain_oracle("f", alpha, i)
    assert top not in f.terms and third in f.terms
    assert key(mi_add(mi_sub(alpha, e[i]), e[i + 1]), ij) not in f.terms
    # beta_s = 0 drops the beta_s t^(beta-e_s) term of d_s t^beta in u, and
    # alpha_s = 0 the matching row of g
    alpha = (0, 2, 1, 1)
    beta = mi_sub(mi_add(alpha, mi_add(e[i + 1], e[i + 2])), e[i])
    assert beta[0] == 0
    low = key(mi_sub(beta, e[1]), ((1, i + 2), 1), ij)
    u = _assert_matches_chain_oracle("u", alpha, i)
    g = _assert_matches_chain_oracle("g", alpha, i)
    assert low not in u.terms and low not in g.terms
    busy = key(mi_sub(beta, e[4]), ((4, i + 2), 1), ij)
    assert beta[3] != 0 and busy in u.terms
    for kind in ("h", "u"):
        _assert_matches_chain_oracle(kind, alpha, i)


def test_cubic_identity_examples():
    res = cubic_identity_residual((2, 0), 1, 2)
    assert res.is_zero()
    # with alpha >= 2 e_i - e_j every right-hand factor is polynomial
    alpha = (2, 0)
    for m in range(4):
        shift = tuple(m * x for x in mi_unit(1, 2))
        assert not L_op(1, 2, mi_sub(alpha, shift), laurent=True).element.demote().laurent
        assert not monomial_field(shift, 2, laurent=True).element.demote().laurent
    assert cubic_identity_residual((0, 0), 1, 2).is_zero()
    assert cubic_identity_residual((1, 2, 0), 2, 3).is_zero()
    with pytest.raises(ArgumentError):
        cubic_identity_residual((0, 0), 1, 1)


def test_cubic_target_checks_its_arguments():
    assert cubic_target((1, 0), 1, 2) == tensor(
        oracles.t_power((-1, 1), laurent=True), E(1, 2, 2) * E(1, 2, 2)
    )
    cases = [
        (((Fraction(1, 2), 0), 1, 2),
         "exponent Fraction(1, 2) in (Fraction(1, 2), 0) is not an integer"),
        (((0, 0.5), 1, 2), "exponent 0.5 in (0, 0.5) is not an integer"),
        (((0, 0), 2, 2), "indices must differ"),
        (((0, 0), 3, 5), "index 5 out of range 1..2"),
        (((0, 0), 1.0, 2), "index 1.0 is not an integer"),
    ]
    for args, message in cases:
        assert _raised(cubic_target, *args) == (ArgumentError, message), args


def test_quartic_identity_examples():
    assert quartic_identity_residual((2, 0, 0), 1).is_zero()
    alpha = (2, 0, 0)
    for m in range(-1, 4):
        shift = tuple(m * x for x in mi_unit(1, 3))
        assert not L_op(1, 3, mi_sub(alpha, shift), laurent=True).element.demote().laurent
        assert not L_op(1, 2, shift, laurent=True).element.demote().laurent
    assert quartic_identity_residual((0, 0, 0), 1).is_zero()
    assert quartic_identity_residual((0, 3, 0, 1), 2).is_zero()
    with pytest.raises(ArgumentError):
        quartic_identity_residual((0, 0, 0), 2)


def test_cubic_interpolation_recovers_leading_term():
    alpha = (1, -1)
    i, j, n = 1, 2, 2
    values = [cubic_m_product(alpha, i, j, m) for m in range(4)]
    coeffs = interpolate_coefficients(values, list(range(4)))
    lead = mi_sub(mi_add(alpha, mi_unit(j, n)), tuple(2 * x for x in mi_unit(i, n)))
    expected = tensor(
        oracles.t_power(lead, laurent=True), E(i, j, n) * E(i, j, n)
    ) * Fraction(-1)
    assert coeffs[3] == expected
    # the interpolated cubic also predicts the value at a fresh node
    predicted = TensorOperator.zero(n, laurent=True)
    for k, c in enumerate(coeffs):
        predicted = predicted + c * Fraction(4) ** k
    assert predicted == cubic_m_product(alpha, i, j, 4)


def test_quartic_interpolation_recovers_g():
    alpha = (0, 1, -2)
    i = 1
    values = [quartic_m_product(alpha, i, m) for m in (-1, 0, 1, 2, 3)]
    coeffs = interpolate_coefficients(values, [-1, 0, 1, 2, 3])
    assert coeffs[3] == special_operator("g", alpha, i)
    predicted = TensorOperator.zero(3, laurent=True)
    for k, c in enumerate(coeffs):
        predicted = predicted + c * Fraction(4) ** k
    assert predicted == quartic_m_product(alpha, i, 4)


def test_identity_weights_match_the_displayed_identities():
    # derived from row 3 of the inverse Vandermonde matrix of the nodes
    assert CUBIC_WEIGHTS == {
        3: Fraction(-1, 6), 2: Fraction(1, 2), 1: Fraction(-1, 2), 0: Fraction(1, 6)
    }
    assert QUARTIC_WEIGHTS == {
        3: Fraction(-1, 12), 2: Fraction(1, 2), 1: Fraction(-1), 0: Fraction(5, 6),
        -1: Fraction(-1, 4),
    }
    # the oracle's check node weights: fourth and fifth finite differences
    # vanish on cubics and quartics
    assert oracles.check_node_weights(CUBIC_NODES) == {0: -1, 1: 4, 2: -6, 3: 4}
    assert oracles.check_node_weights(QUARTIC_NODES) == {-1: 1, 0: -5, 1: 10, 2: -10, 3: 5}


def _vanishing_at_the_nodes(kind, m):
    """The product of (m - node) over the identity's nodes: degree 4
    (cubic) or 5 (quartic) in m, and zero at every node."""
    value = 1
    for node in CUBIC_NODES if kind == "cubic" else QUARTIC_NODES:
        value = value * (m - node)
    return value


def _tampered_node_terms(kind, n, i, j, honest=tensorop._node_terms):
    """``tensorop._node_terms`` with ``_vanishing_at_the_nodes`` times
    t^alpha (x) E_12 added: a product of too high a degree in m that agrees
    with the honest one at every node."""
    terms = honest(kind, n, i, j)
    symbols = Poly.symbols(n + 1)
    key = ((symbols[:n], mi_zero(n)), (((1, 2), 1),))
    accumulate(terms, [(key, _vanishing_at_the_nodes(kind, symbols[n]))])
    return terms


def _tampered_extra(kind):
    """The term ``_tampered_node_terms`` adds, as ``extra(alpha, m)``."""

    def extra(alpha, m):
        term = tensor(oracles.t_power(alpha, laurent=True), E(1, 2, len(alpha)))
        return term * _vanishing_at_the_nodes(kind, m)

    return extra


@pytest.mark.parametrize("kind", ["cubic", "quartic"])
def test_degree_certificate_catches_a_tampered_product(kind):
    # a term that vanishes at every node leaves the identity's residual at
    # zero, but raises the product's degree in m, so no alpha is certified
    n, j, check = (2, 2, check_eq_cubic) if kind == "cubic" else (3, 3, check_eq_quartic)
    assert check(n, lo=0, hi=1)["pass"]
    with _wrong_kernel("_node_terms", _tampered_node_terms):
        report = check(n, lo=0, hi=1)
        residual, degree = tensorop._residual_template(kind, n, 1, j)
    assert residual[1] == () and degree == (4 if kind == "cubic" else 5)
    assert not report["pass"]
    assert report["residual_terms"] == 0
    assert len(report["failures"]) == report["checked"] == 8
    assert check(n, lo=0, hi=1)["pass"]


@pytest.mark.parametrize(
    "kind, n, lo, hi", [("cubic", 2, -2, 3), ("cubic", 3, 0, 2), ("quartic", 3, -1, 2)]
)
def test_identity_suites_match_the_per_alpha_oracle(kind, n, lo, hi):
    # the suites read each alpha off the residual templates; the oracle
    # composes the direct node products per alpha
    check = check_eq_cubic if kind == "cubic" else check_eq_quartic

    def compared(extra=None):
        report = check(n, lo, hi)
        assert report == oracles.check_identity(kind, n, lo, hi, extra)
        return report

    assert compared()["pass"]
    name = f"{kind.upper()}_WEIGHTS"
    weights = getattr(tensorop, name)
    with _wrong_kernel(name, {**weights, 2: weights[2] + 1}):
        report = compared()
    assert not report["pass"] and report["residual_terms"] > 0
    with _wrong_kernel("_node_terms", _tampered_node_terms):
        report = compared(_tampered_extra(kind))
    assert not report["pass"] and report["residual_terms"] == 0
    assert len(report["failures"]) == suites.MAX_FAILURES


def test_demote():
    n = 2
    op = tensor(oracles.t_power((1, 0), laurent=True), E(1, 2, n))
    assert op.laurent and not op.demote().laurent
    op2 = tensor(oracles.t_power((-1, 0), laurent=True), E(1, 2, n))
    assert op2.demote().laurent


# the node products are read off templates built once per (n, i, j, m) over
# a symbolic alpha; the direct product of the two iota images is the oracle
@lru_cache(maxsize=None)
def _iota(field_args):
    kind, *args = field_args
    if kind == "L":
        return shen_iota(L_op(*args, laurent=True))
    return shen_iota(monomial_field(*args, laurent=True))


def _direct(kind, alpha, i, j, m):
    """shen_iota(left) * shen_iota(right) of the factor fields."""
    if kind == "cubic":
        left, right = oracles.cubic_m_factors(alpha, i, j, m)
    else:
        left, right = oracles.quartic_m_factors(alpha, i, m)
    return shen_iota(left) * shen_iota(right)


def _direct_cached(kind, alpha, i, j, m):
    """``_direct`` with the iota images shared between the (alpha, m) that
    give the same factor."""
    shift = tuple(m * x for x in mi_unit(i, len(alpha)))
    left = _iota(("L", i, j, mi_sub(alpha, shift)))
    if kind == "cubic":
        return left * _iota(("t", shift, j))
    return left * _iota(("L", i, i + 1, shift))


def _node_cases(kind, n):
    if kind == "cubic":
        return [((i, j), (i, j)) for i, j in itertools.permutations(range(1, n + 1), 2)]
    return [((i,), (i, i + 2)) for i in range(1, n - 1)]


@pytest.mark.parametrize(
    "kind, n", [("cubic", 2), ("cubic", 3), ("cubic", 4), ("quartic", 3), ("quartic", 4)]
)
def test_template_products_match_the_direct_product(kind, n):
    product = cubic_m_product if kind == "cubic" else quartic_m_product
    nodes = (*(CUBIC_NODES if kind == "cubic" else QUARTIC_NODES), oracles.CHECK_NODE)
    checked = 0
    for args, (i, j) in _node_cases(kind, n):
        for m in nodes:
            for alpha in itertools.product(range(-2, 4), repeat=n):
                got = product(alpha, *args, m)
                assert got == _direct_cached(kind, alpha, i, j, m), (alpha, args, m)
                assert got.laurent
                checked += 1
        _iota.cache_clear()
    assert checked == len(_node_cases(kind, n)) * len(nodes) * 6**n


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_template_products_on_a_wider_window(data):
    # entries of -1 make a coefficient of L_op vanish, and entries of 0 drop
    # an iota term: the template keeps those rows and drops them at alpha
    n = data.draw(st.integers(2, 5))
    kind = data.draw(st.sampled_from(["cubic", "quartic"] if n >= 3 else ["cubic"]))
    args, (i, j) = data.draw(st.sampled_from(_node_cases(kind, n)))
    entries = st.one_of(st.just(-1), st.just(0), st.integers(-7, 7))
    alpha = tuple(data.draw(entries) for _ in range(n))
    m = data.draw(st.integers(-3, 6))
    product = cubic_m_product if kind == "cubic" else quartic_m_product
    assert product(alpha, *args, m) == _direct(kind, alpha, i, j, m)


def test_template_rows_are_alpha_plus_an_offset(monkeypatch):
    # a left factor whose t exponent is 2 alpha would let two rows meet at
    # alpha = 0, so the template refuses to compile it
    tensorop._node_terms.cache_clear()
    tensorop._node_template.cache_clear()

    def doubled_terms(i, j, alpha):
        return {(tuple(2 * a for a in alpha), (1, 0)): 1}

    monkeypatch.setattr(tensorop, "_L_terms", doubled_terms)
    with pytest.raises(StructureError, match="integer offset"):
        cubic_m_product((0, 0), 1, 2, 0)
    monkeypatch.undo()
    tensorop._node_terms.cache_clear()
    tensorop._node_template.cache_clear()
    assert cubic_m_product((0, 0), 1, 2, 0) == _direct("cubic", (0, 0), 1, 2, 0)


def test_a_t_exponent_that_carries_m_is_refused():
    # t^(2m e_i) d_j leaves m in the product's t exponents, where setting m
    # would move a row: neither template compiles
    def doubled_shift(kind, n, i, j, m):
        return {(tuple(2 * m * x for x in mi_unit(i, n)), mi_unit(j, n)): 1}

    with _wrong_kernel("_right_terms", doubled_shift):
        with pytest.raises(StructureError, match="integer offset"):
            cubic_m_product((0, 0), 1, 2, 1)
        with pytest.raises(StructureError, match="integer offset"):
            cubic_identity_residual((0, 0), 1, 2)
    assert cubic_identity_residual((0, 0), 1, 2).is_zero()


@pytest.mark.parametrize(
    "kind, n, lo, hi", [("cubic", 2, -1, 2), ("quartic", 3, -1, 2)]
)
def test_membership_check_fails_below_the_lower_bound(kind, n, lo, hi, monkeypatch):
    # one step lower in i, the alpha with alpha_i = 1 are checked too; there
    # the left factor's second term at m = 3, -(1 + alpha_i - m) t^(alpha -
    # m e_i + e_j) d_j, is Laurent, so each of them fails, and only they
    i, j = 1, (2 if kind == "cubic" else 3)
    check = check_eq_cubic if kind == "cubic" else check_eq_quartic
    args = {"pairs": [(i, j)]} if kind == "cubic" else {"i_list": [i]}
    fields = {"i": i, "j": j} if kind == "cubic" else {"i": i}
    honest = suites._lower_bound

    def one_step_lower(n, i, j):
        return mi_sub(honest(n, i, j), mi_unit(i, n))

    assert check(n, lo, hi, **args)["pass"]
    lower = one_step_lower(n, i, j)
    monkeypatch.setattr(suites, "_lower_bound", one_step_lower)
    report = check(n, lo, hi, **args)
    window = itertools.product(range(lo, hi + 1), repeat=n)
    above = [a for a in window if all(x >= y for x, y in zip(a, lower))]
    failing = [{"alpha": list(a), **fields} for a in above if a[i - 1] == 1]
    assert report["polynomialWitnesses"] == len(above)
    assert report["failures"] == failing[: suites.MAX_FAILURES]
    assert report["residual_terms"] == 0 and not report["pass"]


def _assert_wrong_weight_leaves_a_residual(name, weights, residual, oracle, args):
    # the residual templates are built with the weights, so the memo is
    # cleared inside the patch and after it (``_wrong_kernel``)
    assert residual(*args).is_zero()
    with _wrong_kernel(name, weights):
        wrong = residual(*args)
        assert not wrong.is_zero()
        assert wrong == oracle(*args)
    assert residual(*args).is_zero()


def test_wrong_cubic_weight_leaves_a_residual():
    _assert_wrong_weight_leaves_a_residual(
        "CUBIC_WEIGHTS", {**CUBIC_WEIGHTS, 2: Fraction(1, 3)},
        cubic_identity_residual, oracles.cubic_identity_residual, ((1, 0, 2), 1, 3),
    )


def test_wrong_quartic_weight_leaves_a_residual():
    _assert_wrong_weight_leaves_a_residual(
        "QUARTIC_WEIGHTS", {**QUARTIC_WEIGHTS, 0: Fraction(1, 3)},
        quartic_identity_residual, oracles.quartic_identity_residual, ((0, 3, 0, 1), 2),
    )


# the identities' residuals are read off one symbolic template per
# (n, i[, j]); the per-alpha composition of the direct products is the oracle
def _residual_cases(n):
    cases = [(cubic_identity_residual, oracles.cubic_identity_residual, (i, j))
             for i, j in itertools.permutations(range(1, n + 1), 2)]
    cases += [(quartic_identity_residual, oracles.quartic_identity_residual, (i,))
              for i in range(1, n - 1)]
    return cases


@pytest.mark.parametrize("n", [2, 3])
def test_residual_templates_match_the_composition(n):
    checked = 0
    for residual, oracle, args in _residual_cases(n):
        for alpha in itertools.product(range(-2, 4), repeat=n):
            got = residual(alpha, *args)
            assert got == oracle(alpha, *args), (alpha, args)
            assert got.laurent
            checked += 1
    assert checked == (n * (n - 1) + n - 2) * 6**n


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_residual_templates_on_a_wider_window(data):
    n = data.draw(st.integers(4, 5))
    residual, oracle, args = data.draw(st.sampled_from(_residual_cases(n)))
    entries = st.one_of(st.just(-1), st.just(0), st.integers(-7, 7))
    alpha = tuple(data.draw(entries) for _ in range(n))
    assert residual(alpha, *args) == oracle(alpha, *args)


def _raised(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


@pytest.mark.parametrize(
    "kind, args",
    [
        ("cubic", ((Fraction(1, 2), 0), 1, 2, 1)),
        ("cubic", ((0, Fraction(3, 2), 1), 2, 3, 0)),
        ("cubic", ((0, 0), 1, 1, 0)),
        ("cubic", ((0, 0), 1, 3, 2)),
        ("cubic", ((0, 0), 3, 1, 2)),
        ("cubic", ((0, 0), 0, 1, 2)),
        ("quartic", ((Fraction(1, 2), 0, 0), 1, 2)),
        ("quartic", ((0, 0, 0), 2, 0)),
        ("quartic", ((0, 0, 0), 0, 1)),
        ("quartic", ((0, 0), 1, 1)),
        # alpha_i - m is an int here, so only the node itself is at fault
        ("cubic", ((Fraction(1, 2), 0), 1, 2, Fraction(1, 2))),
        ("quartic", ((Fraction(1, 2), 0, 0), 1, Fraction(1, 2))),
        ("cubic", ((0, 0), 1.0, 2, 0)),
        ("quartic", ((0, 0, 0), True, 1)),
        ("cubic-residual", ((Fraction(1, 2), 0), 1, 2)),
        ("cubic-residual", ((0, Fraction(3, 2), 1), 2, 3)),
        ("cubic-residual", ((0.5, 0), 1, 2)),
        ("cubic-residual", ((0, 0), 1, 1)),
        ("cubic-residual", ((0, 0), 1, 3)),
        ("cubic-residual", ((0, 0), 3, 1)),
        ("cubic-residual", ((0, 0), 3, 5)),
        ("cubic-residual", ((0, 0), 0, 1)),
        ("cubic-residual", ((0, 0), 1.0, 2)),
        ("cubic-residual", ((0, 0), 1, Fraction(2))),
        ("quartic-residual", ((Fraction(1, 2), 0, 0), 1)),
        ("quartic-residual", ((0, 0, 0), 2)),
        ("quartic-residual", ((0, 0, 0), 0)),
        ("quartic-residual", ((0, 0), 1)),
        ("quartic-residual", ((0, 0, 0), True)),
        ("quartic-residual", ((0, 0, 0), 1.0)),
    ],
)
def test_template_products_raise_what_the_direct_product_raises(kind, args):
    library, oracle = {
        "cubic": (cubic_m_product, oracles.cubic_m_factors),
        "quartic": (quartic_m_product, oracles.quartic_m_factors),
        "cubic-residual": (cubic_identity_residual, oracles.cubic_identity_residual),
        "quartic-residual": (quartic_identity_residual, oracles.quartic_identity_residual),
    }[kind]
    error = _raised(library, *args)
    assert error[0] is ArgumentError
    assert error == _raised(oracle, *args)


def test_inexact_nodes_and_weights_are_refused():
    op = TensorOperator.one(2)
    # the int nodes fill the memo of their rows first: float nodes that
    # equal them must still be refused
    interpolate_coefficients([op, op], [0, 1])
    cases = [
        (interpolate_coefficients, ([op, op], [0, 1.5]),
         "interpolation node 1.5 is not an int or a Fraction"),
        (interpolate_coefficients, ([op, op], [0.0, 1.0]),
         "interpolation node 0.0 is not an int or a Fraction"),
        (interpolation_matrix, ((True, 2),),
         "interpolation node True is not an int or a Fraction"),
    ]
    for fn, args, message in cases:
        assert _raised(fn, *args) == (ArgumentError, message)
    # int and Fraction nodes keep working
    half = Fraction(1, 2)
    assert interpolate_coefficients([op, op], [half, 1])[1].is_zero()


def test_templates_are_built_on_first_use_only():
    code = (
        "import weylmod\n"
        "from weylmod import tensorop\n"
        "from weylmod.vectorfields import monomial_field\n"
        # every node and residual template builds the product of its case once
        "builds = []\n"
        "honest = tensorop._node_terms\n"
        "tensorop._node_terms = lambda *case: builds.append(case) or honest(*case)\n"
        "assert tensorop._node_template.cache_info().currsize == 0\n"
        "tensorop.cubic_m_product((0, 1), 1, 2, 3)\n"
        "assert tensorop._node_template.cache_info().currsize == 1\n"
        "assert builds == [('cubic', 2, 1, 2)]\n"
        # the first iota residual at a rank builds the table of that rank
        # from its n^2 pair templates; a second call builds nothing
        "pairs = []\n"
        "honest_iota = tensorop._iota_template\n"
        "tensorop._iota_template = lambda *case: pairs.append(case) or honest_iota(*case)\n"
        "assert tensorop._iota_live.cache_info().currsize == 0\n"
        "x, y = monomial_field((1, 0), 1), monomial_field((0, 2), 2)\n"
        "assert tensorop.iota_hom_residual(x, y).is_zero()\n"
        "assert sorted(pairs) == [(2, i, j) for i in (1, 2) for j in (1, 2)]\n"
        "assert tensorop._iota_live.cache_info().currsize == 1\n"
        "assert tensorop.iota_hom_residual(y, x + y).is_zero()\n"
        "assert len(pairs) == 4\n"
        "assert tensorop._iota_live.cache_info()[:2] == (1, 1)\n"
        "assert tensorop._residual_template.cache_info().currsize == 0\n"
        "assert tensorop.cubic_identity_residual((0, 1), 1, 2).is_zero()\n"
        "assert tensorop.quartic_identity_residual((1, 0, 2), 1).is_zero()\n"
        "tensorop.cubic_identity_residual((2, -1), 1, 2)\n"
        "assert tensorop._residual_template.cache_info().currsize == 2\n"
        "assert tensorop._node_template.cache_info().currsize == 1\n"
        "assert builds[1:] == [('cubic', 2, 1, 2), ('quartic', 3, 1, 3)]\n"
        # the suite reads the residual template of (n, i, j) and its degree
        # certificate, which the public residual function built
        "from weylmod.suites import check_eq_cubic\n"
        "assert check_eq_cubic(2, 0, 1, pairs=[(1, 2)])['pass']\n"
        "assert tensorop._residual_template.cache_info().currsize == 2\n"
        "assert len(builds) == 3\n"
        # a lemma call builds the template of its (lemma, n, i, r) only
        "from weylmod import derham\n"
        "assert derham._lemma_template.cache_info().currsize == 0\n"
        "P = weylmod.WeightModuleP.polynomial(4)\n"
        "box = weylmod.TruncationBox((0,) * 4, (1,) * 4)\n"
        "assert derham.verify_h_annihilates((2, 0, 0, 0), 1, P, 2, box)['pass']\n"
        "assert derham._lemma_template.cache_info().currsize == 1\n"
    )
    src = str(Path(tensorop.__file__).parents[1])
    subprocess.run([sys.executable, "-c", code], check=True, env={"PYTHONPATH": src})


def test_interpolation_matrix_matches_the_inverse_oracle():
    rng = random.Random(12)
    cases = [CUBIC_NODES, QUARTIC_NODES, (oracles.CHECK_NODE,)]
    cases += [tuple(rng.sample(range(-9, 10), rng.randint(1, 6))) for _ in range(40)]
    for nodes in cases:
        vandermonde = [[m**k for k in range(len(nodes))] for m in nodes]
        assert interpolation_matrix(nodes) == oracles.invert(vandermonde), nodes
    with pytest.raises(ArgumentError):
        interpolation_matrix((0, 1, 0))
