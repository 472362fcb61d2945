"""Expression grammar: parsing, typing rules, round trips."""

import itertools
import random
from fractions import Fraction

import oracles
import pytest

from weylmod.errors import ArgumentError, StructureError
from weylmod.exprparse import (
    ParseError,
    VectorLiteral,
    _coerce_literal,
    _wedge,
    format_vector,
    infer_rank,
    parse_expr,
    parse_vector_field,
)
from weylmod.tensorop import tensor
from weylmod.ugl import E, UglElement
from weylmod.vectorfields import L_op
from weylmod.weightmod import WeightModuleP, make_wedge_module
from weylmod.weyl import WeylElement, d, t


def test_parse_scalars():
    assert parse_expr("3/4", 1) == Fraction(3, 4)
    assert parse_expr("-2", 1) == -2
    assert parse_expr("(1/2 + 1/3)*6", 1) == 5


def test_parse_weyl_examples():
    expr = parse_expr("t[1]^2*d[1] - 2*t[1]*t[2]*d[2]", 2)
    assert expr == L_op(1, 2, (1, 0)).element
    assert parse_expr("d[1]*t[1]", 1) == t(1, 1) * d(1, 1) + WeylElement.one(1)
    assert parse_expr("L[1,2;(-1,-1)]", 2) == WeylElement.zero(2)
    assert parse_expr("L[1,2;(1,0)]", 2) == L_op(1, 2, (1, 0)).element


def test_parse_vector_field_kind():
    field = parse_vector_field("t[1]^2*d[1] - 2*t[1]*t[2]*d[2]", 2)
    assert field == L_op(1, 2, (1, 0))
    with pytest.raises(ArgumentError):
        parse_vector_field("e[1]", 2)


def test_parse_ugl():
    assert parse_expr("E[1,2]*E[2,1]", 2) == E(1, 2, 2) * E(2, 1, 2)
    assert parse_expr("E[1,1] - E[2,2]", 2) == E(1, 1, 2) - E(2, 2, 2)


def test_parse_tensor_operator():
    got = parse_expr("t[1] (x) E[1,2] + 1 (x) E[2,1]", 2)
    expected = tensor(t(1, 2), E(1, 2, 2)) + tensor(WeylElement.one(2), E(2, 1, 2))
    assert got == expected


def test_parse_module_vector():
    lit = parse_expr("t[1]^2*t[2]^-1 (x) e[1]^e[3]", 3)
    assert isinstance(lit, VectorLiteral)
    assert lit.terms == {((2, -1, 0), (1, 3)): 1}
    P = WeightModuleP([
        *(WeightModuleP.laurent(3).factors[:2]),
        *(WeightModuleP.polynomial(3).factors[:1]),
    ])
    vec = lit.bind(P)
    assert vec.module_m is make_wedge_module(3, 2)


def test_wedge_sign_and_collapse():
    lit = parse_expr("1 (x) e[2]^e[1]", 2)
    assert lit.terms == {((0, 0), (1, 2)): -1}
    assert parse_expr("1 (x) e[1]^e[1]", 2).terms == {}


def test_constant_vector_terms_round_trip():
    # a constant term prints as its coefficient, as in Weyl text; beside a
    # wedge label the unit key stays 1.  Vectors are read as the vector
    # flags read them (``_coerce_literal``)
    for text, canonical in (
        ("t[1]^-1*t[2]^2 - 2/3 + e[1]", "t[1]^-1*t[2]^2 - 2/3 + 1 (x) e[1]"),
        ("3 - t[2]", "3 - t[2]"),
        ("-1/3 (x) e[1]^e[2] + 2", "2 - 1/3*1 (x) e[1]^e[2]"),
    ):
        lit = _coerce_literal(parse_expr(text, 2), 2)
        assert str(lit) == canonical
        assert _coerce_literal(parse_expr(canonical, 2), 2) == lit


def test_vector_sums():
    lit = parse_expr("t[1] (x) e[2] - t[2] (x) e[1]", 2)
    assert lit.terms == {((1, 0), (2,)): 1, ((0, 1), (1,)): -1}


def test_wedge_labels_are_vectors():
    # a label is a vector at the unit key: scalar multiples, negations and
    # sums of labels, and ^ over a sum, read as their (x) forms
    for text, tensored in (
        ("2*e[1]", "2 (x) e[1]"),
        ("e[1]*2", "2 (x) e[1]"),
        ("-e[1]", "-1 (x) e[1]"),
        ("e[1]+e[2]", "1 (x) e[1] + 1 (x) e[2]"),
        ("(e[1]+e[2])^e[3]", "1 (x) e[1]^e[3] + 1 (x) e[2]^e[3]"),
    ):
        got = parse_expr(text, 3)
        assert isinstance(got, VectorLiteral), text
        assert got == parse_expr(tensored, 3), text
    assert parse_expr("e[1]", 2) == VectorLiteral(2, {((0, 0), (1,)): 1})
    assert parse_expr("(e[1]-e[1])^e[2]", 2).is_zero()


def test_negative_power_rules():
    assert parse_expr("t[1]^-2", 2).terms == {((-2, 0), (0, 0)): 1}
    with pytest.raises(ParseError):
        parse_expr("d[1]^-1", 1)
    with pytest.raises(ParseError):
        parse_expr("(t[1]+t[2])^-1", 2)
    # a tensor operator has powers in the library, not in the grammar
    with pytest.raises(ParseError, match="cannot raise this value to a power"):
        parse_expr("(t[1] (x) E[1,2])^2", 2)


def test_type_errors():
    with pytest.raises(StructureError):
        parse_expr("t[1]*E[1,2]", 2)
    with pytest.raises(StructureError):
        parse_expr("t[1] + E[1,2]", 2)
    with pytest.raises(StructureError, match="use \\(x\\)"):
        parse_expr("e[1]*e[2]", 2)
    with pytest.raises(ParseError):
        parse_expr("t[1] +", 2)
    with pytest.raises(ParseError):
        parse_expr("q[1]", 2)


def test_error_position():
    try:
        parse_expr("t[1] + ?", 2)
    except ParseError as exc:
        assert exc.pos == 7
    else:
        raise AssertionError("expected a parse error")


def test_rank_checks():
    with pytest.raises(ParseError):
        parse_expr("t[3]", 2)
    with pytest.raises(ParseError):
        parse_expr("L[1,2;(0,0,0)]", 2)
    assert infer_rank("t[1]*t[2]") == 2
    assert infer_rank("L[1,2;(0,0,0)]") == 3


def test_weyl_round_trip():
    rng = random.Random(71)
    for _ in range(20):
        terms = {}
        for _ in range(3):
            t_exp = tuple(rng.randint(0, 3) for _ in range(2))
            d_exp = tuple(rng.randint(0, 2) for _ in range(2))
            terms[(t_exp, d_exp)] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        a = WeylElement(2, terms)
        assert parse_expr(str(a), 2) == a


def test_ugl_round_trip():
    rng = random.Random(73)
    for _ in range(10):
        out = UglElement.zero(3)
        for _ in range(2):
            term = UglElement.one(3) * rng.randint(-3, 3)
            for _ in range(rng.randint(0, 2)):
                term = term * E(rng.randint(1, 3), rng.randint(1, 3), 3)
            out = out + term
        got = parse_expr(str(out), 3)
        if isinstance(got, (int, Fraction)):
            # constant elements print as bare scalars
            got = UglElement.one(3) * got
        assert got == out


def test_tensor_operator_round_trip():
    op = tensor(t(1, 2) * d(2, 2), E(1, 2, 2) * E(2, 1, 2)) - 3 * tensor(
        WeylElement.one(2), E(1, 1, 2)
    )
    assert parse_expr(str(op), 2) == op


def test_wedge_join_matches_the_permutation_sign():
    for n in range(1, 6):
        labels = [
            c for r in range(n + 1) for c in itertools.combinations(range(1, n + 1), r)
        ]
        for a in labels:
            for b in labels:
                hit = oracles.wedge_sort(a + b)
                got = _wedge(
                    VectorLiteral(n, {((0,) * n, a): 1}),
                    VectorLiteral(n, {((0,) * n, b): -1}),
                )
                if hit is None:
                    assert got.is_zero(), (a, b)
                else:
                    assert got.terms == {((0,) * n, hit[1]): -hit[0]}, (a, b)


def test_vector_round_trip():
    P = WeightModuleP.polynomial(2)
    wedge1 = make_wedge_module(2, 1)
    from weylmod.weightmod import FVector

    vec = FVector(P, wedge1, {((1, 0), 0): Fraction(2, 3), ((0, 2), 1): -1})
    text = format_vector(vec)
    lit = parse_expr(text, 2)
    assert lit.bind(P) == vec
