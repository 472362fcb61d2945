"""Normal-ordered multiplication, the polynomial action oracle, Fourier."""

import itertools
import random
from fractions import Fraction

import pytest

import oracles
from weylmod import weyl
from weylmod.errors import ArgumentError, DomainError, StructureError
from weylmod.tensorop import TensorOperator, tensor
from weylmod.terms import Poly
from weylmod.ugl import E
from weylmod.vectorfields import monomial_field
from weylmod.weyl import WeylElement, d, t


def random_element(rng, n, deg=3, laurent=False, nterms=3):
    lo = -deg if laurent else 0
    terms = {}
    for _ in range(nterms):
        t_exp = tuple(rng.randint(lo, deg) for _ in range(n))
        d_exp = tuple(rng.randint(0, deg) for _ in range(n))
        terms[(t_exp, d_exp)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return WeylElement(n, terms, laurent)


def random_poly(rng, n, deg=3, nterms=3):
    terms = {}
    z = (0,) * n
    for _ in range(nterms):
        exp = tuple(rng.randint(0, deg) for _ in range(n))
        terms[(exp, z)] = rng.randint(-5, 5)
    return WeylElement(n, terms)


def test_defining_relation():
    assert d(1, 2) * t(1, 2) == t(1, 2) * d(1, 2) + WeylElement.one(2)
    assert d(1, 2) * t(2, 2) == t(2, 2) * d(1, 2)


def test_mul_euler_square():
    # (t1 d1)^2 applied to t1^k gives k^2, so the product is t1^2 d1^2 + t1 d1
    e = t(1, 1) * d(1, 1)
    prod = e * e
    expected = WeylElement(1, {((2,), (2,)): 1, ((1,), (1,)): 1})
    assert prod == expected
    for k in range(7):
        p = oracles.t_power((k,))
        assert oracles.apply_poly(prod, p) == k * k * p
        assert oracles.apply_poly(e, oracles.apply_poly(e, p)) == k * k * p


def test_mul_d2_t2():
    # d1^2 t1^2 applied to t1^k gives (k+1)(k+2)
    prod = d(1, 1) ** 2 * t(1, 1) ** 2
    expected = WeylElement(
        1, {((2,), (2,)): 1, ((1,), (1,)): 4, ((0,), (0,)): 2}
    )
    assert prod == expected
    for k in range(7):
        p = oracles.t_power((k,))
        assert oracles.apply_poly(prod, p) == (k + 1) * (k + 2) * p


def test_non_int_exponents_are_refused():
    # exact stays exact: t and d exponents must be ints, in either mode
    half = Fraction(1, 2)
    message = "exponent Fraction(1, 2) in (Fraction(1, 2),) is not an integer"
    cases = [
        (lambda: WeylElement(1, {((half,), (0,)): 1}, True), message),
        (lambda: monomial_field((half,), 1, laurent=True), message),
        (lambda: WeylElement(2, {((0, 0), (1.0, 0)): 1}),
         "exponent 1.0 in (1.0, 0) is not an integer"),
    ]
    for build, expected in cases:
        with pytest.raises(ArgumentError) as info:
            build()
        assert str(info.value) == expected


@pytest.mark.parametrize("laurent", [False, True])
def test_scaling_by_zero_keeps_rank_and_mode(laurent):
    # one scale rule for every term map: a zero scalar on either side gives
    # the zero element of the same class, rank and mode
    x = WeylElement(2, {((1, 0), (0, 1)): 3, ((0, 2), (0, 0)): Fraction(-1, 2)}, laurent)
    cases = [(x, WeylElement), (tensor(x, E(1, 2, 2)), TensorOperator)]
    for element, cls in cases:
        for zero in (0, Fraction(0)):
            for scaled in (element * zero, zero * element):
                assert type(scaled) is cls and scaled.terms == {}
                assert scaled.rank == 2 and scaled.laurent == laurent
                assert scaled == cls.zero(2, laurent)
        assert (element * 2).terms == {k: 2 * c for k, c in element.terms.items()}


def test_mul_rank_mismatch():
    with pytest.raises(StructureError):
        t(1, 2) * t(1, 3)


def test_laurent_mode_contagion():
    a = oracles.t_power((-1, 0))
    assert a.laurent
    b = t(1, 2)
    assert (a * b).laurent
    assert (a * b).demote() == WeylElement.one(2)
    assert not (a * b).demote().laurent


def test_apply_poly_examples():
    op = t(1, 2) ** 2 * d(1, 2) - 2 * t(1, 2) * t(2, 2) * d(2, 2)
    assert oracles.apply_poly(d(1, 2), t(1, 2) ** 2) == 2 * t(1, 2)
    assert oracles.apply_poly(op, t(2, 2)) == -2 * t(1, 2) * t(2, 2)
    rng = random.Random(7)
    for _ in range(10):
        a = random_element(rng, 2)
        assert oracles.apply_poly(a, WeylElement.zero(2)).is_zero()


def test_apply_poly_rejects_laurent():
    a = oracles.t_power((-1,))
    with pytest.raises(DomainError):
        oracles.apply_poly(a, WeylElement.one(1))


def test_mul_associative_random():
    rng = random.Random(23)
    for n in (1, 2, 3):
        for _ in range(8):
            a = random_element(rng, n, deg=2, nterms=2)
            b = random_element(rng, n, deg=2, nterms=2)
            c = random_element(rng, n, deg=2, nterms=2)
            assert (a * b) * c == a * (b * c)


def test_mul_associative_laurent():
    rng = random.Random(29)
    for _ in range(8):
        a = random_element(rng, 2, deg=2, laurent=True, nterms=2)
        b = random_element(rng, 2, deg=2, laurent=True, nterms=2)
        c = random_element(rng, 2, deg=2, laurent=True, nterms=2)
        assert (a * b) * c == a * (b * c)


def test_action_is_module_homomorphism():
    rng = random.Random(31)
    for _ in range(15):
        a = random_element(rng, 2, deg=2, nterms=2)
        b = random_element(rng, 2, deg=2, nterms=2)
        p = random_poly(rng, 2, deg=3, nterms=3)
        assert oracles.apply_poly(a * b, p) == oracles.apply_poly(a, oracles.apply_poly(b, p))
    # derivative degree up to 3 reaches more of the normal-ordering table
    for n in (1, 2, 3):
        for _ in range(10):
            a = random_element(rng, n, deg=3, nterms=2)
            b = random_element(rng, n, deg=3, nterms=2)
            p = random_poly(rng, n, deg=4, nterms=3)
            assert oracles.apply_poly(a * b, p) == oracles.apply_poly(a, oracles.apply_poly(b, p))


def _check_table(gamma, beta):
    table = weyl._d_on_t(gamma, beta)
    assert isinstance(table, tuple)
    got = {k: c for c, k in table}
    assert len(got) == len(table)
    assert all(c != 0 for c in got.values())
    assert got == oracles.d_on_t(gamma, beta)


def test_normal_order_table_matches_rewriting():
    # every gamma in [0,3]^n and beta in [-3,4]^n, zero and negative
    # coordinates included, then seeded samples at n = 3, 4
    for n in (1, 2):
        for gamma in itertools.product(range(4), repeat=n):
            for beta in itertools.product(range(-3, 5), repeat=n):
                _check_table(gamma, beta)
    rng = random.Random(47)
    for n in (3, 4):
        for _ in range(150):
            gamma = tuple(rng.randint(0, 3) for _ in range(n))
            beta = tuple(rng.randint(-3, 4) for _ in range(n))
            _check_table(gamma, beta)


def _at(coeff, point):
    """A coefficient with the symbols of a ``Poly`` set to the ints of
    point (a scalar is its own value)."""
    if not isinstance(coeff, Poly):
        return coeff
    total = 0
    for exps, c in coeff.terms.items():
        for x, e in zip(point, exps):
            c *= x**e
        total += c
    return total


def test_symbolic_normal_order_table_evaluates_to_the_int_table():
    # d^gamma t^beta over a symbolic beta (one symbol per coordinate, then
    # a symbol beside an int coordinate), at every int beta in [-4,4]^n:
    # the rows whose coefficient vanishes there are the pairs the int
    # table leaves out
    for n in (1, 2):
        symbols = Poly.symbols(n)
        for gamma in itertools.product(range(4), repeat=n):
            symbolic = weyl._d_on_t(gamma, symbols)
            assert symbolic[0] == (1, (0,) * n)
            for beta in itertools.product(range(-4, 5), repeat=n):
                values = [(_at(c, beta), k) for c, k in symbolic]
                assert tuple(p for p in values if p[0]) == weyl._d_on_t(gamma, beta)
    a = Poly.symbols(1)[0]
    for g, b in itertools.product(range(4), range(-4, 5)):
        mixed = weyl._d_on_t((g, 2), (a, b))
        for x in range(-4, 5):
            values = [(_at(c, (x,)), k) for c, k in mixed]
            assert tuple(p for p in values if p[0]) == weyl._d_on_t((g, 2), (x, b))


def test_normal_order_caches_are_bounded():
    maxsize = weyl._normal_order_table.cache_info().maxsize
    assert maxsize is not None and maxsize > 0


def test_normal_order_canonical():
    rng = random.Random(37)
    one = WeylElement.one(2)
    for _ in range(10):
        a = random_element(rng, 2)
        again = a * one
        assert list(again.terms.items()) == list(a.terms.items())


def test_fourier_generators():
    assert oracles.fourier(t(1, 2)) == d(1, 2)
    assert oracles.fourier(d(1, 2)) == -t(1, 2)


def test_fourier_euler():
    e = t(1, 1) * d(1, 1)
    assert oracles.fourier(e) == -e - WeylElement.one(1)


def test_fourier_is_automorphism():
    rng = random.Random(41)
    for _ in range(10):
        a = random_element(rng, 2, deg=2, nterms=2)
        b = random_element(rng, 2, deg=2, nterms=2)
        assert oracles.fourier(a * b) == oracles.fourier(a) * oracles.fourier(b)


def test_fourier_order_four():
    for n in (1, 2):
        for gen in [t(i, n) for i in range(1, n + 1)] + [d(i, n) for i in range(1, n + 1)]:
            twice = oracles.fourier(oracles.fourier(gen))
            assert twice == -gen
            assert oracles.fourier(oracles.fourier(twice)) == gen


def test_json_round_trip():
    rng = random.Random(43)
    for laurent in (False, True):
        a = random_element(rng, 3, deg=2, laurent=laurent)
        obj = a.to_json_obj()
        terms = {
            (tuple(rec["tExp"]), tuple(rec["dExp"])): Fraction(rec["coeff"])
            for rec in obj["terms"]
        }
        assert WeylElement(obj["rank"], terms, obj["mode"] == "laurent") == a
