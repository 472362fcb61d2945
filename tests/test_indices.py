"""Scalar and multi-index arithmetic."""

import random
from fractions import Fraction

import pytest

from weylmod.errors import ArgumentError, StructureError
from weylmod.indices import (
    TruncationBox,
    check_index,
    check_integer_exponents,
    falling,
    mi_add,
    mi_geq,
    mi_unit,
)
from weylmod.tensorop import cubic_identity_residual, cubic_m_product, special_operator
from weylmod.ugl import E
from weylmod.vectorfields import L_op, monomial_field
from weylmod.weyl import WeylElement


def test_scalar_exactness():
    rng = random.Random(11)
    for _ in range(200):
        a, c = rng.randint(-50, 50), rng.randint(-50, 50)
        b, d = rng.randint(1, 50), rng.randint(1, 50)
        s = Fraction(a, b) + Fraction(c, d)
        assert s * b * d == a * d + c * b


def test_scalar_canonical_form():
    assert Fraction(2, 4) == Fraction(1, 2)
    assert (Fraction(2, 4).numerator, Fraction(2, 4).denominator) == (1, 2)
    assert Fraction(-3, -6) == Fraction(1, 2)
    assert Fraction(0, 7) == Fraction(0, 1)


def test_mi_add_examples():
    assert mi_add((1, 0), (0, 1)) == (1, 1)
    assert mi_add((2, -1), (-2, 1)) == (0, 0)
    total = mi_add(mi_add(mi_unit(1, 3), mi_unit(2, 3)), mi_unit(3, 3))
    assert total == (1, 1, 1)


def test_indices_must_be_ints():
    # one check behind every 1-based index: a bool, float or Fraction that
    # equals an int in range is refused, not used as a tuple index
    cases = [
        (check_index, (Fraction(1), 3), "index Fraction(1, 1) is not an integer"),
        (check_index, (4, 3), "index 4 out of range 1..3"),
        (mi_unit, (2.0, 3), "index 2.0 is not an integer"),
        (mi_unit, (0, 3), "index 0 out of range 1..3"),
        (L_op, (1, 2.0, (0, 0)), "index 2.0 is not an integer"),
        (L_op, (1, 3, (0, 0)), "index 3 out of range 1..2"),
        (cubic_identity_residual, ((0, 0), 1.0, 2), "index 1.0 is not an integer"),
        (cubic_m_product, ((0, 0), 1.0, 2, 0), "index 1.0 is not an integer"),
        (special_operator, ("h", (0, 0, 0), True), "index True is not an integer"),
        (special_operator, ("h", (0, 0, 0), 2), "index 2 out of range 1..1"),
        (E, (1.0, 2, 3), "index 1.0 is not an integer"),
        (E, (1, True, 3), "index True is not an integer"),
        (E, (4, 2, 3), "index 4 out of range 1..3"),
        (E, (1, 0, 3), "index 0 out of range 1..3"),
    ]
    for fn, args, message in cases:
        with pytest.raises(ArgumentError) as info:
            fn(*args)
        assert str(info.value) == message, (fn.__name__, args)


def test_exponents_must_be_ints_not_bools():
    # a bool is an int, so an exponent True was accepted and kept in the
    # key (monomial_field((True, 0), 1) wrote "true" in its JSON); it is
    # refused as check_index and check_coefficient refuse a bool
    true = "exponent True in (True, 0) is not an integer"
    false = "exponent False in (0, False) is not an integer"
    cases = [
        (check_integer_exponents, ((True, 0),), true),
        (monomial_field, ((True, 0), 1), true),
        (WeylElement, (2, {((True, 0), (0, 0)): 1}), true),
        (WeylElement, (2, {((0, 0), (0, False)): 0}), false),
        (L_op, (1, 2, (0, False)), false),
    ]
    for fn, args, message in cases:
        with pytest.raises(ArgumentError) as info:
            fn(*args)
        assert str(info.value) == message, (fn.__name__, args)
    check_integer_exponents((0, -3, 2))


def test_mi_add_rank_mismatch():
    with pytest.raises(StructureError):
        mi_add((1, 0), (1, 0, 0))


def test_mi_geq_examples():
    assert mi_geq((0, 0), (-1, -1))
    assert not mi_geq((1, -2), (0, 0))
    # alpha = (-1, 0) >= -e_1 - e_2
    assert mi_geq((-1, 0), (-1, -1))


def test_mi_geq_partial_order():
    rng = random.Random(5)
    sample = lambda: tuple(rng.randint(-4, 4) for _ in range(3))
    for _ in range(300):
        a, b, c = sample(), sample(), sample()
        assert mi_geq(a, a)
        if mi_geq(a, b) and mi_geq(b, a):
            assert a == b
        if mi_geq(a, b) and mi_geq(b, c):
            assert mi_geq(a, c)


def test_falling_factorial():
    assert falling(5, 0) == 1
    assert falling(5, 2) == 20
    assert falling(0, 1) == 0
    assert falling(-3, 2) == 12
    assert falling(Fraction(1, 2), 2) == Fraction(-1, 4)


def test_box_basics():
    box = TruncationBox((0, 0), (5, 5), margin=2)
    assert box.contains((0, 5))
    assert not box.contains((-1, 0))
    assert box.contains_inner((2, 3))
    assert not box.contains_inner((1, 3))
    assert len(list(box.keys())) == 36
    assert len(list(box.inner_keys())) == 4


def test_box_refuses_a_bound_or_margin_that_is_not_an_int():
    # a float box used to construct and fail later in keys(), and to equal
    # and hash as the int box in the memos; a bool margin read as 1
    for lower, upper, margin in (
        ((0.5, 0), (2, 2), 0), ((0, 0), (2.0, 2), 0), ((True, 0), (2, 2), 0),
        ((0, 0), (2, 2), True), ((0, 0), (4, 4), 1.0), ((0, 0), (2, 2), Fraction(0)),
    ):
        with pytest.raises(ArgumentError, match="is not an integer"):
            TruncationBox(lower, upper, margin)
    assert TruncationBox((0, 0), (4, 4), 1).margin == 1


def test_box_rejects_empty_inner():
    with pytest.raises(ArgumentError):
        TruncationBox((0, 0), (3, 3), margin=2)
    with pytest.raises(ArgumentError):
        TruncationBox((0, 0), (-1, 0), margin=0)
