"""Expression grammar: parsing, typing rules, round trips."""

import itertools
import random
import sys
from fractions import Fraction

import oracles
import pytest

from weylmod.cli import _read_vector, main
from weylmod.errors import ArgumentError, StructureError
from weylmod.exprparse import (
    ParseError,
    VectorLiteral,
    _lift,
    _wedge,
    infer_rank,
    parse_expr,
)
from weylmod.tensorop import tensor
from weylmod.ugl import E, UglElement
from weylmod.vectorfields import L_op
from weylmod.weightmod import (
    FVector,
    WeightModuleP,
    make_hw_module,
    make_wedge_module,
    parse_module_descriptor,
)
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


def test_parse_ugl():
    assert parse_expr("E[1,2]*E[2,1]", 2) == E(1, 2, 2) * E(2, 1, 2)
    assert parse_expr("E[1,1] - E[2,2]", 2) == E(1, 1, 2) - E(2, 2, 2)


def test_parse_tensor_operator():
    got = parse_expr("t[1] (x) E[1,2] + 1 (x) E[2,1]", 2)
    expected = tensor(t(1, 2), E(1, 2, 2)) + tensor(WeylElement.one(2), E(2, 1, 2))
    assert got == expected
    # a scalar or a Weyl summand beside a tensor operator is promoted to
    # Weyl (x) U(gl), in either order; a Weyl summand was refused with
    # "cannot combine TensorOperator with WeylElement"
    spelled = parse_expr("t[1]*d[2] (x) E[2,1] + 2*d[1] (x) 1", 2)
    for text in ("t[1]*d[2] (x) E[2,1] + 2*d[1]", "2*d[1] + t[1]*d[2] (x) E[2,1]"):
        assert parse_expr(text, 2) == spelled, text
    assert parse_expr("3 - t[1] (x) E[1,2]", 2) == parse_expr("3 (x) 1 - t[1] (x) E[1,2]", 2)
    with pytest.raises(StructureError, match="cannot combine UglElement with TensorOperator"):
        parse_expr("E[1,2] + t[1] (x) E[1,2]", 2)


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
    # flags read them (``_lift`` to a vector)
    for text, canonical in (
        ("t[1]^-1*t[2]^2 - 2/3 + e[1]", "t[1]^-1*t[2]^2 - 2/3 + 1 (x) e[1]"),
        ("3 - t[2]", "3 - t[2]"),
        ("-1/3 (x) e[1]^e[2] + 2", "2 - 1/3*1 (x) e[1]^e[2]"),
    ):
        lit = _lift(parse_expr(text, 2), VectorLiteral, 2)
        assert str(lit) == canonical
        assert _lift(parse_expr(canonical, 2), VectorLiteral, 2) == lit


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


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-string limit")
def test_a_literal_past_the_int_string_limit_is_a_parse_error():
    # called outside cli.main, which lifts the limit, this raised a bare
    # ValueError from Fraction in tokenize
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for text, pos in (("7" * 5000, 0), ("t[1] + 1/" + "7" * 5000, 7)):
            with pytest.raises(ParseError) as info:
                parse_expr(text, 1)
            assert str(info.value) == (
                f"literal longer than the int-string limit of 4300 digits (at position {pos})"
            )
        assert parse_expr("7" * 4300, 1) == int("7" * 4300)
    finally:
        sys.set_int_max_str_digits(limit)


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


def test_nesting_past_the_recursion_limit_is_a_parse_error(capsys):
    # as deep as the recursion limit, parentheses, unary minus signs and
    # wedge joins are refused with a message, not a RecursionError; the
    # CLI exits 2 with it
    deep = sys.getrecursionlimit()
    texts = ["(" * deep + "t[1]" + ")" * deep, "-" * deep + "t[1]", "e[1]^" * deep + "e[1]"]
    for text in texts:
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_expr(text, 1)
    assert parse_expr("(" * 50 + "-" * 50 + "t[1]" + ")" * 50, 1) == t(1, 1)
    for text in ("(" * 200 + "t[1]" + ")" * 200, texts[0]):
        assert main(["parse", text, "--n", "1"]) == 2
        out = capsys.readouterr()
        assert not out.out and "error: expression is nested too deeply" in out.err


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


# the keys drawn on each line: a polynomial line from 0 up, a twisted one
# below 0, a Laurent one on both sides
_KEY_RANGES = {"poly": range(0, 3), "twist": range(-3, 0), "laurent": range(-2, 3)}


def test_vector_round_trip():
    # str(v) of every vector over an exterior power reads back to v as
    # derham pi --input reads it, and a nonzero one also binds to its
    # exterior power unnamed
    rng = random.Random(2505)
    for n in range(1, 5):
        for name in ("poly", "twist", "laurent(1/2)", "mixed"):
            factors = ["poly", "twist", "laurent(1/2)", "laurent(-1/3)"][:n] \
                if name == "mixed" else [name] * n
            P = parse_module_descriptor("[" + ",".join(factors) + "]")
            ranges = [_KEY_RANGES[f.kind] for f in P.factors]
            unit = P.supports_key((0,) * n)
            for r in range(n + 1):
                M = make_wedge_module(n, r)
                zero = FVector(P, M)
                assert str(zero) == "0"
                assert _read_vector("--input", "0", n).bind(P, M) == zero
                for trial in range(6):
                    terms = {}
                    if unit and trial == 0:
                        terms[((0,) * n, rng.randrange(M.dim))] = Fraction(-7, 3)
                    for _ in range(rng.randint(1, 4)):
                        key = tuple(rng.choice(rows) for rows in ranges)
                        coeff = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))
                        terms[(key, rng.randrange(M.dim))] = coeff
                    vec = FVector(P, M, terms)
                    lit = _read_vector("--input", str(vec), n)
                    assert lit.bind(P, M) == vec, (P, r, str(vec))
                    assert vec.is_zero() or lit.bind(P) == vec, (P, r, str(vec))
    # a highest-weight module prints its own labels, v<k>
    P = WeightModuleP.polynomial(2)
    M = make_hw_module((2,), 2)
    vec = FVector(P, M, {((0, 0), 2): 1, ((1, 0), 0): Fraction(-2, 3), ((0, 1), 1): 3})
    assert str(vec) == "1 (x) v2 + 3*t[2] (x) v1 - 2/3*t[1] (x) v0"
