"""PBW normal form in U(gl_n), and the U(sl_n) membership oracle of the
tests (``oracles.in_usl``)."""

import itertools
import random
from fractions import Fraction

import oracles
import pytest

from weylmod.errors import DomainError
from weylmod.ugl import E, UglElement, pbw_product


def identity_matrix(n):
    """I = sum_i E_ii inside U(gl_n)."""
    return sum((E(i, i, n) for i in range(1, n + 1)), UglElement.zero(n))


def random_ugl(rng, n, deg=2, nterms=2):
    out = UglElement.zero(n)
    for _ in range(nterms):
        term = UglElement.one(n) * rng.randint(-3, 3)
        for _ in range(rng.randint(0, deg)):
            i = rng.randint(1, n)
            j = rng.randint(1, n)
            term = term * E(i, j, n)
        out = out + term
    return out


def test_single_commutator():
    n = 2
    lhs = E(1, 2, n) * E(2, 1, n)
    rhs = E(2, 1, n) * E(1, 2, n) + E(1, 1, n) - E(2, 2, n)
    assert lhs == rhs


def test_commuting_and_ordered_pairs():
    n = 2
    sq = E(1, 1, n) * E(1, 1, n)
    assert sq == UglElement(n, {(((1, 1), 2),): 1})
    prod = E(2, 1, n) * E(1, 2, n)
    assert prod == UglElement(n, {(((2, 1), 1), ((1, 2), 1)): 1})


def test_commutator_relations_all_pairs():
    for n in (2, 3, 4):
        idx = range(1, n + 1)
        for i, j, k, l in itertools.product(idx, repeat=4):
            lhs = E(i, j, n) * E(k, l, n) - E(k, l, n) * E(i, j, n)
            rhs = UglElement.zero(n)
            if j == k:
                rhs = rhs + E(i, l, n)
            if l == i:
                rhs = rhs - E(k, j, n)
            assert lhs == rhs, (i, j, k, l)


def test_a_unit_moves_past_a_long_power_in_closed_form():
    # E12 E21^e = E21^e E12 + e E21^(e-1) (E11 - E22) - e (e - 1) E21^(e-1):
    # one step per power, so no recursion level per unit of the exponent
    e = 3000
    lowering = (((2, 1), e),)
    assert dict(pbw_product((((1, 2), 1),), lowering)) == {
        (((2, 1), e), ((1, 2), 1)): 1,
        (((2, 1), e - 1), ((1, 1), 1)): e,
        (((2, 1), e - 1), ((2, 2), 1)): -e,
        (((2, 1), e - 1),): -8_997_000,
    }


def test_mul_associative_random():
    rng = random.Random(13)
    for n in (2, 3, 4):
        for _ in range(10):
            a = random_ugl(rng, n)
            b = random_ugl(rng, n)
            c = random_ugl(rng, n)
            assert (a * b) * c == a * (b * c)


def test_powers():
    a = E(1, 2, 2)
    assert a**0 == UglElement.one(2)
    assert a**2 == a * a
    with pytest.raises(DomainError):
        a ** -1


def test_in_usl_examples():
    for n in (2, 3):
        h1 = E(1, 1, n) - E(2, 2, n)
        assert oracles.in_usl(h1)
        assert not oracles.in_usl(identity_matrix(n))
        assert not oracles.in_usl(E(1, 1, n))
        assert oracles.in_usl(E(1, 2, n))
        assert oracles.in_usl(UglElement.zero(n))


def test_in_usl_cartan_oracle():
    # E_11 = h-combination + I/n: the I coordinate is 1/n, never zero
    for n in (2, 3, 4):
        diff = E(1, 1, n) * n - identity_matrix(n)
        assert oracles.in_usl(diff)


def test_in_usl_scalars():
    # constants are in U(sl_n); multiples of I are not
    assert oracles.in_usl(UglElement.one(3) * Fraction(5, 2))
    assert not oracles.in_usl(identity_matrix(3) * Fraction(1, 3))


def test_in_usl_closed_under_products():
    rng = random.Random(19)
    n = 3
    members = [
        E(1, 2, n),
        E(2, 3, n),
        E(3, 1, n),
        E(1, 1, n) - E(2, 2, n),
        E(2, 2, n) - E(3, 3, n),
    ]
    for _ in range(25):
        a = rng.choice(members)
        b = rng.choice(members)
        combo = a * b + rng.choice(members) * rng.randint(-2, 2)
        assert oracles.in_usl(combo)


def test_degree_two_usl_membership_with_diagonal():
    n = 3
    h1 = E(1, 1, n) - E(2, 2, n)
    h2 = E(2, 2, n) - E(3, 3, n)
    assert oracles.in_usl(h1 * h2)
    assert oracles.in_usl(h1 * h1 + h2)
    assert not oracles.in_usl(E(1, 1, n) * E(2, 2, n))


def test_json_round_trip():
    rng = random.Random(21)
    a = random_ugl(rng, 3, deg=3, nterms=3)
    obj = a.to_json_obj()
    terms = {
        tuple(((i, j), e) for i, j, e in rec["factors"]): Fraction(rec["coeff"])
        for rec in obj["terms"]
    }
    assert UglElement(obj["rank"], terms) == a
