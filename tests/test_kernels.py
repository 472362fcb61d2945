"""Compiled template and interpolation-row evaluators against the loops.

Every template with rows and every interpolation row set carries one
straight-line evaluator, compiled once with it.  Here each kernel is
compared with the interpretive reference (``oracles.evaluated`` and
``oracles.combine``), the row kernels also with the ``Fraction`` inverse
Vandermonde matrix, and the generated source is checked to hold no
constant but an int literal.
"""

import io
import itertools
import random
import tokenize
from contextlib import contextmanager
from fractions import Fraction

import oracles
import pytest

from weylmod import memo, tensorop
from weylmod.tensorop import CUBIC_NODES, QUARTIC_NODES, interpolation_matrix
from weylmod.terms import Poly


@contextmanager
def _compiled_sources():
    """Record the source of every kernel compiled inside the block, from
    empty memos; the memos are cleared again on the way out."""
    sources = []
    honest = tensorop._kernel

    def recording(lines, constants, name):
        sources.append("\n".join(lines))
        return honest(lines, constants, name)

    memo.clear()
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tensorop, "_kernel", recording)
            yield sources
    finally:
        memo.clear()


def _only_int_literals(source):
    """Whether every constant token of source is a plain int literal."""
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.STRING:
            return False
        if token.type == tokenize.NUMBER and not token.string.isdigit():
            return False
    return True


# -- template kernels ------------------------------------------------------------


NODE_CASES = (
    [("cubic", 3, i, j, m) for i, j in itertools.permutations(range(1, 4), 2)
     for m in CUBIC_NODES]
    + [("quartic", n, i, i + 2, m) for n in (3, 4) for i in range(1, n - 1)
       for m in QUARTIC_NODES]
)


@pytest.mark.parametrize("case", NODE_CASES, ids=str)
def test_node_kernels_equal_the_row_loop(case):
    # every alpha in [-2, 3]^n, so entries of -1 and 0 zero some parts
    kind, n, i, j, m = case
    template = tensorop._node_template(kind, n, i, j, m)
    assert template[1]
    for alpha in itertools.product(range(-2, 4), repeat=n):
        got = tensorop._evaluated(template, alpha, alpha)
        assert got == oracles.evaluated(template, alpha, alpha), alpha
        assert list(got) == list(oracles.evaluated(template, alpha, alpha)), alpha


def _odd_template():
    """A template over three symbols whose constants are Fractions, ints
    above 2^64 and nested tags, with offsets above 2^64 and a part that
    vanishes on a line."""
    a0, a1, a2 = Poly.symbols(3)
    big = 2**70 + 3
    base = (a0, a1 + a2, a2)
    tags = [(), (((1, 2), 1),), ((("x", (Fraction(1, 2), None)), 2**65),), "t"]
    coeffs = [
        Fraction(-3, 7) * (a0 - a1) * (a0 + 2),
        big * a1 * a1 * a1 - (big + 1) * a2,
        Fraction(5, big),
        -big,
        a0 * a2,
        Fraction(2, 3) * a0 * a2,
        1,
    ]
    offsets = [(0, 0, 0), (1, -big, 2), (-1, 0, big), (1, -big, 2)]
    product = {}
    for k, coeff in enumerate(coeffs):
        offset = offsets[k % len(offsets)]
        t_exp = tuple(b + o for b, o in zip(base, offset))
        product[((t_exp, (k, -k, big)), tags[k % len(tags)])] = coeff
    return tensorop._template(product, base)


def test_a_template_with_odd_constants_equals_the_row_loop():
    with _compiled_sources() as sources:
        template = _odd_template()
    assert len(sources) == 1 and _only_int_literals(sources[0])
    assert any(type(scale) is Fraction for *_, scale in template[1])
    rng = random.Random(3)
    points = [(0, 0, 0), (-2, 5, 0), (1, 1, 1), (2**66, -3, 7)]
    points += [tuple(rng.randint(-9, 9) for _ in range(3)) for _ in range(200)]
    for point in points:
        base = (point[0], point[1] + point[2], point[2])
        got = tensorop._evaluated(template, point, base)
        assert got == oracles.evaluated(template, point, base), point
        assert list(got) == list(oracles.evaluated(template, point, base)), point
        assert [type(c) for c in got.values()] == [
            type(c) for c in oracles.evaluated(template, point, base).values()
        ]


def test_templates_without_rows_compile_nothing():
    # the iota table of a rank and a residual template: no template has
    # rows, so the only kernel built is the residual's one weight row
    with _compiled_sources() as sources:
        assert tensorop._iota_live(3) == {}
        residual, _ = tensorop._residual_template("quartic", 4, 1, 3)
        assert residual[1] == () and residual[2] is tensorop._no_terms
        assert len(sources) == 1 and sources[0].startswith("def g(")
        assert tensorop._evaluated(residual, (1, 2, 3, 4), (1, 2, 3, 4)) == {}


def test_node_kernel_sources_hold_only_int_literals():
    with _compiled_sources() as sources:
        for kind, n, i, j, m in NODE_CASES:
            tensorop._node_template(kind, n, i, j, m)
        tensorop._interpolation_rows(tuple(CUBIC_NODES))
        tensorop._interpolation_rows(tuple(QUARTIC_NODES))
    assert len(sources) == len(NODE_CASES) + 2
    assert all(_only_int_literals(source) for source in sources)


# -- row kernels -------------------------------------------------------------------


def _random_nodes(rng):
    """1 to 6 distinct nodes, some negative and some Fractions."""
    pool = list(range(-6, 7)) + [Fraction(p, q) for p in range(-5, 6) for q in (2, 3)]
    return tuple(rng.sample(sorted(set(pool)), rng.randint(1, 6)))


def _random_value(rng, keys):
    """A term map over some of keys with int, Fraction or Poly values."""
    a = Poly.symbols(2)
    scalars = [rng.randint(-5, 5), Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
               a[0] * rng.randint(1, 3) - rng.randint(-2, 2),
               Fraction(1, 3) * a[1] * a[1] + a[0]]
    value = {}
    for key in rng.sample(keys, rng.randint(0, len(keys))):
        c = rng.choice(scalars)
        if c != 0:
            value[key] = c
    return value


def _matrix_combination(matrix, values):
    """The rows of a Fraction matrix applied to the term maps values,
    zero results left out."""
    keys = list(dict.fromkeys(key for value in values for key in value))
    out = []
    for row in matrix:
        terms = {}
        for key in keys:
            total = sum((w * value.get(key, 0) for w, value in zip(row, values)), Fraction(0))
            if total != 0:
                terms[key] = total
        out.append(terms)
    return out


@pytest.mark.parametrize("seed", range(6))
def test_row_kernels_equal_the_loop_and_the_matrix(seed):
    rng = random.Random(seed)
    keys = [("m", k) for k in range(8)]
    for _ in range(40):
        nodes = _random_nodes(rng)
        rows, combine = tensorop._interpolation_rows(nodes)
        values = [_random_value(rng, keys) for _ in nodes]
        got = combine(values)
        assert got == oracles.combine(values, rows), nodes
        assert [list(terms) for terms in got] == [
            list(terms) for terms in oracles.combine(values, rows)
        ]
        assert got == _matrix_combination(interpolation_matrix(nodes), values), nodes


def test_row_kernels_keep_exact_quotients():
    # an int total that D divides stays an int, one it does not becomes a
    # Fraction, and a Poly total is divided as a Poly
    a = Poly.symbols(1)[0]
    combine = tensorop._row_kernel((((1, 1), 2), ((1, -1), 1)))
    sums, diffs = combine([{"x": 3, "y": 2, "z": a}, {"x": 1, "y": -2, "z": a}])
    assert sums == {"x": 2, "z": a} and type(sums["x"]) is int
    assert diffs == {"x": 2, "y": 4} and type(diffs["y"]) is int
    (halves,) = tensorop._row_kernel((((1,), 2),))([{"x": 3}])
    assert halves == {"x": Fraction(3, 2)}
