"""Vector-field bracket, divergence, and the divergence-free generators."""

import itertools
import random
from fractions import Fraction

import oracles
import pytest

from weylmod.errors import ArgumentError, DomainError, StructureError
from weylmod.indices import mi_unit
from weylmod.linalg import RowBasis
from weylmod.vectorfields import (
    L_op,
    VectorField,
    bracket,
    divergence,
    is_divergence_free,
    monomial_field,
)
from weylmod.weyl import WeylElement, d, t


def random_field(rng, n, deg=2, nterms=2):
    total = None
    for _ in range(nterms):
        exp = tuple(rng.randint(0, deg) for _ in range(n))
        f = monomial_field(exp, rng.randint(1, n), rng.randint(-3, 3))
        total = f if total is None else total + f
    return total


def test_degree_invariant_enforced():
    with pytest.raises(StructureError):
        VectorField(t(1, 2))
    with pytest.raises(StructureError):
        VectorField(d(1, 2) * d(2, 2))


def _outcome(build):
    """(class, terms, mode) of what build() returns, or the type of the
    exception it raises."""
    try:
        value = build()
    except Exception as exc:
        return type(exc)
    return type(value), value.terms, value.laurent


def _inferred_mode(t_exp, laurent):
    """The mode of a monomial constructor: laurent, or when it is None,
    whether some (int) t exponent is negative."""
    if laurent is None:
        return any(type(b) is int and b < 0 for b in t_exp)
    return laurent


def test_one_check_monomials_match_the_checked_constructors():
    # monomial_field and WeylElement.monomial check their one key once and
    # adopt; the oracle is the checked path through __init__ (and, for a
    # field, VectorField's degree check), value and mode or exception type
    n = 2
    exps = [(0, 0), (2, 1), (-1, 0), (1, -2), (Fraction(1, 2), 0), (0.5, 0), ("1", 0), (1, 2, 0)]
    coeffs = [0, 1, Fraction(-3, 2), 0.5, "1", True]
    indices = [1, 2, 0, 3, True, 1.0]
    checked, refused = 0, set()
    for e, c, laurent in itertools.product(exps, coeffs, [None, True, False]):
        mode = _inferred_mode(e, laurent)
        for i in indices:
            got = _outcome(lambda: monomial_field(e, i, c, laurent))
            want = _outcome(lambda: VectorField(WeylElement(len(e), {(e, mi_unit(i, len(e))): c}, mode)))
            assert got == want, (e, i, c, laurent)
            checked += 1
            refused.add(got if isinstance(got, type) else None)
        for g in [(0, 1), (2, 0), (0, -1), (Fraction(1, 2), 0), (1,)]:
            got = _outcome(lambda: WeylElement.monomial(e, g, c, laurent))
            want = _outcome(lambda: WeylElement(len(e), {(e, g): c}, mode))
            assert got == want, (e, g, c, laurent)
            checked += 1
            refused.add(got if isinstance(got, type) else None)
    assert refused == {None, ArgumentError, StructureError} and checked == 1584


def random_mode_field(rng, n, laurent, nterms=3):
    """A field of up to nterms terms with coefficients in -2..2 (zeros
    dropped) and, in Laurent mode, t exponents from -1, so that some
    fields demote and some do not."""
    lo = -1 if laurent else 0
    terms = {
        (tuple(rng.randint(lo, 2) for _ in range(n)), mi_unit(rng.randint(1, n), n)):
        Fraction(rng.randint(-2, 2), rng.randint(1, 2))
        for _ in range(rng.randint(0, nterms))
    }
    return VectorField(WeylElement(n, terms, laurent))


def test_field_operations_agree_with_its_element():
    # a field is a term map of its own: its text, equality, zero test,
    # demotion, sums, differences and scalar multiples are those of its
    # Weyl element, and it keeps the field type and mode
    rng = random.Random(20261019)
    demoted = set()
    for n, laurent in itertools.product((2, 3), (False, True)):
        for _ in range(25):
            x, y = random_mode_field(rng, n, laurent), random_mode_field(rng, n, laurent)
            ex, ey = x.element, y.element
            assert type(ex) is WeylElement and ex.terms == x.terms
            assert (ex.rank, ex.laurent) == (x.rank, x.laurent)
            assert str(x) == str(ex) and repr(x) == repr(ex)
            assert (x == y) == (ex == ey) and x == VectorField(ex)
            assert x.is_zero() == ex.is_zero() and (x - x).is_zero()
            low = x.demote()
            assert type(low) is VectorField and low.element == ex.demote()
            assert low.laurent == ex.demote().laurent
            demoted.add((laurent, low.laurent))
            pairs = [(x + y, ex + ey), (x - y, ex - ey), (-x, -ex)]
            for c in (0, 2, Fraction(-1, 3)):
                pairs += [(c * x, c * ex), (x * c, ex * c)]
            for field, element in pairs:
                assert type(field) is VectorField and field.element == element
                assert field.laurent == element.laurent and str(field) == str(element)
    # Laurent fields that demote and fields that stay Laurent both occur
    assert demoted == {(False, False), (True, False), (True, True)}


def test_field_products_and_mixed_sums_are_refused():
    x, y = L_op(1, 2, (1, 0)), monomial_field((0, 2), 1)
    with pytest.raises(TypeError):
        x * y
    with pytest.raises(TypeError):
        x * t(1, 2)
    # a field and a Weyl element are term maps of different classes
    for combine in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: b + a):
        with pytest.raises(StructureError, match="cannot combine"):
            combine(x, t(1, 2))
    with pytest.raises(StructureError, match="cannot combine"):
        t(1, 2) * x
    assert x != x.element and x.element != x


def test_bracket_examples():
    n = 2
    x = VectorField(d(1, n))
    y = VectorField(t(1, n) * d(2, n))
    assert bracket(x, y).element == d(2, n)
    e = VectorField(t(1, n) * d(1, n))
    assert bracket(e, y).element == t(1, n) * d(2, n)
    assert bracket(y, y).is_zero()


def test_bracket_matches_weyl_commutator():
    rng = random.Random(3)
    for n in (2, 3):
        for _ in range(20):
            x = random_field(rng, n)
            y = random_field(rng, n)
            assert bracket(x, y).element == oracles.commutator_in_weyl(x, y)


def test_jacobi_identity():
    rng = random.Random(9)
    for n in (2, 3):
        for _ in range(12):
            x, y, z = (random_field(rng, n, deg=3) for _ in range(3))
            total = (
                bracket(bracket(x, y), z).element
                + bracket(bracket(y, z), x).element
                + bracket(bracket(z, x), y).element
            )
            assert total.is_zero()


def test_divergence_matches_the_componentwise_oracle():
    # sum_i d_i(f_i) over the components, with the oracle's derivative
    rng = random.Random(19)
    for n in (1, 2, 3, 4):
        fields = [VectorField(WeylElement.zero(n))]
        fields += [random_field(rng, n, deg=3, nterms=rng.randint(1, 5)) for _ in range(30)]
        for x in fields:
            expected = WeylElement.zero(n)
            for i, f in enumerate(oracles.components(x)):
                expected = expected + oracles._derivative(f, i)
            div = divergence(x)
            assert div == expected and not div.laurent


def test_divergence_examples():
    n = 2
    assert divergence(VectorField(t(1, n) * d(1, n))) == WeylElement.one(n)
    field = VectorField(t(1, n) ** 2 * d(1, n) - 2 * t(1, n) * t(2, n) * d(2, n))
    assert divergence(field).is_zero()
    assert field == L_op(1, 2, (1, 0))
    assert divergence(VectorField(t(1, n) * d(2, n))).is_zero()


def test_membership_examples():
    assert is_divergence_free(L_op(1, 2, (1, 0)))
    assert not is_divergence_free(VectorField(t(1, 2) * d(1, 2)))
    assert is_divergence_free(VectorField(d(1, 2)))


def test_L_op_examples():
    n = 2
    assert L_op(1, 2, (0, 0)).element == t(1, n) * d(1, n) - t(2, n) * d(2, n)
    assert L_op(1, 2, (-1, -1)).is_zero()
    assert L_op(1, 2, (1, 0)).element == t(1, n) ** 2 * d(1, n) - 2 * t(1, n) * t(
        2, n
    ) * d(2, n)


def test_L_op_argument_checks():
    with pytest.raises(ArgumentError):
        L_op(1, 1, (0, 0))
    with pytest.raises(DomainError):
        L_op(1, 2, (-2, 0))
    assert L_op(1, 2, (-2, 0), laurent=True).element.laurent
    # exact stays exact: a rational or float exponent is refused, in both
    # modes, instead of yielding t[1]^(1/2) or float coefficients
    for bad in ((0.5, 0), (Fraction(1, 2), 0), (0, Fraction(3)), (1.0, 0)):
        for laurent in (False, True):
            with pytest.raises(ArgumentError, match="not an integer"):
                L_op(1, 2, bad, laurent=laurent)


def test_L_op_reduces_to_partial():
    # alpha = -e_i makes the generator a plain derivative
    assert L_op(1, 2, (-1, 0)).element == d(1, 2)
    assert L_op(2, 1, (-1, 0)).element == -d(1, 2)


def test_L_op_divergence_free_window():
    for n in (2, 3):
        window = range(-1, 3)
        for i, j in itertools.permutations(range(1, n + 1), 2):
            for alpha in itertools.product(window, repeat=n):
                if not all(
                    alpha[s] >= (-1 if s in (i - 1, j - 1) else 0) for s in range(n)
                ):
                    continue
                assert is_divergence_free(L_op(i, j, alpha))


def test_generator_antisymmetry():
    for alpha in itertools.product(range(-1, 2), repeat=2):
        gen = L_op(1, 2, alpha, laurent=True)
        flip = L_op(2, 1, alpha, laurent=True)
        assert (gen + flip).is_zero()


def test_divergence_free_closed_under_bracket():
    window = [
        L_op(i, j, alpha)
        for i, j in itertools.combinations(range(1, 3), 2)
        for alpha in itertools.product(range(-1, 2), repeat=2)
        if all(alpha[s] >= -1 for s in range(2)) and not L_op(i, j, alpha, laurent=True).is_zero()
    ]
    for x in window:
        for y in window:
            z = bracket(x, y)
            if not z.is_zero():
                assert is_divergence_free(z)


def _field_coordinates(field, slots):
    vec = [0] * len(slots)
    for key, coeff in field.element.terms.items():
        vec[slots[key]] = coeff
    return vec


def test_generators_span_divergence_free_fields():
    # every divergence-zero field of coefficient degree <= D is a combination
    # of the L generators, checked by echelon containment
    for n, cap in ((2, 4), (3, 3)):
        monos = [
            (exp, tuple(mi_unit(i, n)))
            for exp in itertools.product(range(cap + 1), repeat=n)
            if sum(exp) <= cap
            for i in range(1, n + 1)
        ]
        slots = {key: pos for pos, key in enumerate(monos)}
        gens = RowBasis(len(monos))
        for i, j in itertools.permutations(range(1, n + 1), 2):
            for alpha in itertools.product(range(-1, cap + 1), repeat=n):
                if not all(
                    alpha[s] >= (-1 if s in (i - 1, j - 1) else 0) for s in range(n)
                ):
                    continue
                if sum(alpha) + 1 > cap:
                    continue
                gen = L_op(i, j, alpha)
                if gen.is_zero():
                    continue
                gens.insert(_field_coordinates(gen, slots))
        checked = 0
        for exp, d_exp in monos:
            i = d_exp.index(1) + 1
            field = monomial_field(exp, i)
            if not is_divergence_free(field):
                continue
            assert gens.contains(_field_coordinates(field, slots))
            checked += 1
        assert checked > 0
        # binomial divergence-free combinations are covered as well
        rng = random.Random(17)
        for _ in range(40):
            exp = tuple(rng.randint(0, cap - 1) for _ in range(n))
            i, j = rng.sample(range(1, n + 1), 2)
            f = monomial_field(tuple(exp), i, 1 + exp[j - 1])
            g = monomial_field(tuple(exp), j, 1 + exp[i - 1])
            comb = VectorField(
                (t(i, n) * f.element - t(j, n) * g.element)
            )
            if sum(exp) + 1 > cap or comb.is_zero():
                continue
            assert is_divergence_free(comb)
            assert gens.contains(_field_coordinates(comb, slots))
