"""The tensor algebra, the iota embedding, and the interpolation identities."""

import itertools
from fractions import Fraction

import pytest

from weylmod import suites
from weylmod.errors import ArgumentError
from weylmod.indices import mi_add, mi_sub, mi_unit
from weylmod.suites import check_eq_cubic, check_eq_quartic
from weylmod.tensorop import (
    CHECK_NODE,
    CUBIC_PREDICTION,
    CUBIC_WEIGHTS,
    QUARTIC_PREDICTION,
    QUARTIC_WEIGHTS,
    TensorOperator,
    cubic_identity_residual,
    cubic_m_product,
    from_weyl,
    interpolate_coefficients,
    iota_hom_residual,
    quartic_identity_residual,
    quartic_m_product,
    shen_iota,
    special_operator,
    tensor,
)
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
                    WeylElement.t_power(alpha, (1 + ai) * (1 + aj), laurent=True)
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
                            WeylElement.t_power(exp, (1 + aj) * a_s, laurent=True),
                            E(s, i, n),
                        )
                    if s != j:
                        exp = mi_sub(mi_add(alpha, mi_unit(j, n)), mi_unit(s, n))
                        expected = expected - tensor(
                            WeylElement.t_power(exp, (1 + ai) * a_s, laurent=True),
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
        WeylElement.t_power(mi_sub(e2, e1), laurent=True),
        E(1, 1, n) * E(1, 2, n) - E(1, 2, n),
    ) - tensor(
        WeylElement.t_power(mi_sub(e3, e1), laurent=True), E(1, 3, n) * E(1, 1, n)
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
        WeylElement.t_power(mi_sub(mi_add(alpha, e3), e1), laurent=True),
        E(1, 3, n) * E(2, 2, n) + E(2, 3, n) * E(1, 2, n),
    ) - tensor(
        WeylElement.t_power(
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
        WeylElement.t_power(lead, laurent=True), E(i, j, n) * E(i, j, n)
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
    # fourth and fifth finite differences vanish on cubics and quartics
    assert CUBIC_PREDICTION == {0: -1, 1: 4, 2: -6, 3: 4}
    assert QUARTIC_PREDICTION == {-1: 1, 0: -5, 1: 10, 2: -10, 3: 5}


@pytest.mark.parametrize("kind", ["cubic", "quartic"])
def test_degree_certificate_catches_a_tampered_product(monkeypatch, kind):
    # a product off the polynomial in m leaves the residual at zero, since
    # the residual never reads it, but fails the check-node certificate
    n, check, name = (2, check_eq_cubic, "cubic_m_product") if kind == "cubic" else (
        3, check_eq_quartic, "quartic_m_product")
    honest = getattr(suites, name)
    extra = tensor(WeylElement.one(n, laurent=True), E(1, 2, n))

    def tampered(*args):
        value = honest(*args)
        return value + extra if args[-1] == CHECK_NODE else value

    assert check(n, lo=0, hi=1)["pass"]
    monkeypatch.setattr(suites, name, tampered)
    report = check(n, lo=0, hi=1)
    assert not report["pass"]
    assert report["residual_terms"] == 0
    assert len(report["failures"]) == report["checked"]


def test_demote():
    n = 2
    op = tensor(WeylElement.t_power((1, 0), laurent=True), E(1, 2, n))
    assert op.laurent and not op.demote().laurent
    op2 = tensor(WeylElement.t_power((-1, 0), laurent=True), E(1, 2, n))
    assert op2.demote().laurent
