"""Operators in (Laurent-)Weyl tensor U(gl_n) and the embedding identities.

This module hosts the algebra map iota from vector fields into the tensor
algebra, its Laurent extension, the named operators built from degree-two
matrix-unit products, and the exact interpolation identities that express
t^alpha tensor E_ij^2 (and the g operator) through products of images of
divergence-free generators.  Each identity's node product is built once
per (n, i, j) over a symbolic alpha and a symbolic node m; setting m gives
the product at each node, evaluated per alpha, and the identity's residual
over the same symbols, so a template with no rows and a product of degree
below the node count in m prove the identity for every integer alpha.

A template with rows, and each set of interpolation rows, carries one
straight-line evaluator compiled with it (``_template_kernel``,
``_row_kernel``), the only code that evaluates it.  The generated source
holds no constant but the repr of an exact int; every other constant is
bound by name in the evaluator's namespace (``_literal``).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import partial
from math import gcd, lcm
from operator import add, itemgetter, sub

from .errors import ArgumentError, StructureError
from .indices import (
    check_index,
    check_integer_exponents,
    mi_add,
    mi_sub,
    mi_unit,
    mi_units,
    mi_zero,
)
from .memo import bounded
from .terms import SCALARS, Poly, TermMap, accumulate, pair_terms
from .ugl import UglElement, pbw_json, pbw_product, pbw_text
from .vectorfields import VectorField, _L_terms, bracket, check_L_args
from .weyl import WeylElement, WeylTerms, _d_on_t, _monomial_product


def _operator_product(m1, m2):
    """The monomial rule of ``TensorOperator``: the Weyl factors multiply
    by ``weyl._monomial_product``, the PBW factors by ``pbw_product``."""
    (w1, p1), (w2, p2) = m1, m2
    pbw = pbw_product(p1, p2)
    return [((w, p), wc * pc) for w, wc in _monomial_product(w1, w2) for p, pc in pbw]


class TensorOperator(WeylTerms):
    """Sparse element of (Laurent-)Weyl tensor U(gl_n).

    Terms map (weyl monomial, PBW monomial) pairs to exact coefficients;
    both factors are normal-ordered, so a residual that cancels term-by-term
    leaves an empty map and equality is bit-exact.  The checks, the mode
    and the arithmetic are those of ``weyl.WeylTerms``.
    """

    __slots__ = ()

    # perfbench's tracer wraps these two in each class's own namespace
    __init__ = WeylTerms.__init__
    __mul__ = TermMap.__mul__

    _weyl = staticmethod(itemgetter(0))
    _monomial_product = staticmethod(_operator_product)

    @staticmethod
    def _check_key(key, rank: int, laurent: bool) -> None:
        """A key of outside input, checked as its Weyl and PBW factors are."""
        wmono, pmono = key
        WeylElement._check_key(wmono, rank, laurent)
        UglElement._check_key(pmono, rank)

    @classmethod
    def one(cls, rank: int, laurent: bool = False) -> TensorOperator:
        z = mi_zero(rank)
        return cls(rank, {((z, z), ()): 1}, laurent)

    @staticmethod
    def _text(mono) -> str:
        wmono, pmono = mono
        return f"{WeylElement._text(wmono) or 1} (x) {pbw_text(pmono) or 1}"

    @staticmethod
    def _json_fields(mono) -> dict:
        (t_exp, d_exp), pmono = mono
        return {"tExp": list(t_exp), "dExp": list(d_exp), "factors": pbw_json(pmono)}


def tensor(a: WeylElement, u: UglElement) -> TensorOperator:
    """The simple tensor a (x) u, extended bilinearly over the terms of
    two valid operands, so its map is adopted."""
    if a.rank != u.rank:
        raise StructureError(f"rank mismatch: {a.rank} vs {u.rank}")
    terms = dict(pair_terms(a.terms, u.terms, lambda w, p: (((w, p), 1),)))
    return TensorOperator._from_kernel(terms, rank=a.rank, laurent=a.laurent)


def from_weyl(a: WeylElement) -> TensorOperator:
    return tensor(a, UglElement.one(a.rank))


def shen_iota(x: VectorField) -> TensorOperator:
    """The embedding of vector fields into Weyl tensor U(gl_n):

        t^alpha d_i  |->  t^alpha d_i (x) 1 + sum_s d_s(t^alpha) (x) E_si.

    Polynomial fields land in polynomial mode; Laurent fields go through the
    Laurent extension of the same formula.
    """
    n = x.rank
    zero = mi_zero(n)

    def images():
        for (t_exp, d_exp), coeff in x.terms.items():
            i = d_exp.index(1) + 1
            yield ((t_exp, d_exp), ()), coeff
            for s, a_s in enumerate(t_exp, 1):
                if a_s != 0:
                    shifted = t_exp[: s - 1] + (a_s - 1,) + t_exp[s:]
                    yield ((shifted, zero), (((s, i), 1),)), coeff * a_s

    return TensorOperator._from_kernel(accumulate({}, images()), rank=n, laurent=x.laurent)


def iota_hom_residual(x: VectorField, y: VectorField) -> TensorOperator:
    """iota([x, y]) - [iota(x), iota(y)]; zero by contract.

    The residual is bilinear in (x, y), so it is the sum over the term
    pairs (c1 t^a d_i, c2 t^b d_j) of c1 c2 times the template of (n, i, j)
    evaluated at (a, b) (``_iota_template``).  Evaluation is a ring map, so
    the sum is the residual of the direct computation, term by term.  Only
    the pairs whose template has rows add anything, and those templates
    are read off the live table of the rank (``_iota_live``): an empty
    table is the zero operator, with no loop over the term pairs.  The
    exponents are ints: ``WeylElement`` refuses any other.
    """
    if x.rank != y.rank:
        raise StructureError(f"rank mismatch: {x.rank} vs {y.rank}")
    n, laurent = x.rank, x.laurent or y.laurent
    live = _iota_live(n)
    if not live:
        return TensorOperator._from_kernel({}, rank=n, laurent=laurent)

    def residual(m1, m2):
        (a, g), (b, h) = m1, m2
        template = live.get((g.index(1) + 1, h.index(1) + 1))
        if template is None:
            return ()
        return _evaluated(template, a + b, tuple(map(add, a, b))).items()

    terms = accumulate({}, pair_terms(x.terms, y.terms, residual))
    return TensorOperator._from_kernel(terms, rank=n, laurent=laurent)


@bounded(16)
def _iota_live(n: int) -> dict:
    """The iota templates of rank n that have rows, as {(i, j): template},
    built once per rank from ``_iota_template`` over all n^2 pairs and
    shared: treat it as read-only.  The residual is bilinear, so an empty
    table proves iota a homomorphism on every pair of fields of rank n."""
    pairs = itertools.product(range(1, n + 1), repeat=2)
    templates = {(i, j): _iota_template(n, i, j) for i, j in pairs}
    return {pair: template for pair, template in templates.items() if template[1]}


def _iota_template(n: int, i: int, j: int):
    """The residual iota([x, y]) + iota(y) iota(x) - iota(x) iota(y) of
    x = t^a d_i and y = t^b d_j over symbolic exponents, by ``bracket``,
    ``shen_iota`` and ``_operator_product`` in both orders on the 2n symbols
    (a, b) of ``terms.Poly``, with ``_d_on_t`` over a symbolic beta.  Returns
    ``_template`` of the residual over the base a + b (zero rows when iota
    is a homomorphism); not memoised, as ``_iota_live`` keeps what is read."""
    symbols = Poly.symbols(2 * n)
    a, b = symbols[:n], symbols[n:]
    x = _symbolic_field(n, {(a, mi_unit(i, n)): 1})
    y = _symbolic_field(n, {(b, mi_unit(j, n)): 1})
    ix, iy = shen_iota(x).terms, shen_iota(y).terms
    terms = accumulate(dict(shen_iota(bracket(x, y)).terms), pair_terms(iy, ix, _operator_product))
    accumulate(terms, ((mono, -c) for mono, c in pair_terms(ix, iy, _operator_product)))
    return _template(terms, tuple(map(add, a, b)))


SPECIAL_KINDS = ("f", "g", "h", "u")


def special_operator(kind: str, alpha, i: int) -> TensorOperator:
    """The named operators built from the degree-two matrix-unit products.

    All four are Laurent-mode in general; their terms are the rows of
    ``_special_rows``, collected in one pass.
    """
    alpha = _special_args(kind, alpha, i)
    return _special_operator(kind, alpha, i)


def _special_args(kind: str, alpha, i: int) -> tuple:
    """The argument checks of ``special_operator``; returns alpha as a tuple."""
    alpha = tuple(alpha)
    check_index(i, len(alpha) - 2)
    if kind not in SPECIAL_KINDS:
        raise ArgumentError(f"unknown operator kind {kind!r}")
    check_integer_exponents(alpha)
    return alpha


def _special_operator(kind: str, alpha, i: int) -> TensorOperator:
    """``special_operator`` unchecked; alpha's entries may be symbols."""
    terms = accumulate(
        {},
        (
            (((t_exp, d_exp), pmono), coeff * pcoeff)
            for coeff, t_exp, d_exp, word in _special_rows(kind, alpha, i)
            for pmono, pcoeff in pbw_product(*word)
        ),
    )
    return TensorOperator._from_kernel(terms, rank=len(alpha), laurent=True)


def _special_rows(kind: str, alpha, i: int):
    """The terms of a special operator as rows (coeff, t_exp, d_exp, word):
    coeff * t^t_exp d^d_exp (x) the product of the word's two PBW
    monomials, each one matrix unit or 1.  f and h are listed term by term,
    g as f + (g - f), and u keeps its definition
    u = h - sum_s (d_s t^beta) (x) E_(s,i+2) E_(i,i+1), with
    beta = alpha + e_(i+1) + e_(i+2) - e_i and d_s t^beta normal-ordered by
    ``_d_on_t``.  Rows with a zero coefficient are left out.
    """
    n = len(alpha)
    zero = mi_zero(n)
    units = mi_units(n)
    e_i, e_i1, e_i2 = units[i - 1 : i + 2]
    beta = mi_sub(mi_add(alpha, mi_add(e_i1, e_i2)), e_i)
    f1 = mi_add(mi_sub(alpha, e_i), e_i1)
    f2 = mi_add(mi_sub(alpha, e_i), e_i2)

    def unit(a, b):
        return (((a, b), 1),)

    # the one-unit PBW monomials E_ii, E_(i,i+1), E_(i,i+2), and per s the
    # word E_(s,i+2) E_(i,i+1) with its e_s
    E_ii, E_i1, E_i2 = unit(i, i), unit(i, i + 1), unit(i, i + 2)
    s_words = [(e_s, (unit(s, i + 2), E_i1)) for s, e_s in enumerate(units, 1)]
    rows = []
    if kind in ("f", "g"):
        a_i2 = 1 + alpha[i + 1]
        rows += [
            (a_i2, f1, zero, (E_ii, E_i1)),
            (-a_i2, f1, zero, (E_i1, ())),
            (-1, f2, zero, (E_i2, E_ii)),
            (-alpha[i - 1], mi_sub(beta, e_i), zero, (E_i2, E_i1)),
        ]
    if kind != "f":
        rows += [(1, beta, e_i1, (E_i2, ())), (-1, beta, e_i2, (E_i1, ()))]
    if kind == "g":
        rows += [
            (-a_s, tuple(map(sub, beta, e_s)), zero, word)
            for a_s, (e_s, word) in zip(alpha, s_words)
        ]
        rows += [
            (-1, f1, zero, (unit(i + 2, i + 2), E_i1)),
            (1, f2, zero, (E_i2, unit(i + 1, i + 1))),
        ]
    if kind in ("h", "u"):
        rows += [(1, beta, e_s, word) for e_s, word in s_words]
    if kind == "u":
        rows += [
            (-c, tuple(map(sub, beta, k)), tuple(map(sub, e_s, k)), word)
            for e_s, word in s_words
            for c, k in _d_on_t(e_s, beta)
        ]
    return [row for row in rows if row[0]]


def interpolation_matrix(nodes):
    """Inverse Vandermonde matrix of pairwise-distinct integer nodes, in
    closed form.

    Entry (k, t) is the m^k coefficient of the Lagrange basis polynomial
    prod_(s != t) (m - m_s) / (m_t - m_s), so row k maps the values at the
    nodes to the m^k coefficient of the interpolating polynomial.
    """
    nodes = _checked_nodes(nodes)
    columns = []
    for t, m_t in enumerate(nodes):
        coeffs, den = [1], 1  # prod (m - m_s), lowest degree first
        for s, m_s in enumerate(nodes):
            if s != t:
                coeffs = [a - m_s * b for a, b in zip([0, *coeffs], [*coeffs, 0])]
                den *= m_t - m_s
        columns.append([Fraction(c, den) for c in coeffs])
    return [list(row) for row in zip(*columns)]


def _checked_nodes(nodes) -> tuple:
    """The nodes as a tuple, each an int or a Fraction and none repeated."""
    nodes = tuple(nodes)
    for m in nodes:
        if not isinstance(m, SCALARS) or isinstance(m, bool):
            raise ArgumentError(f"interpolation node {m!r} is not an int or a Fraction")
    if len(set(nodes)) != len(nodes):
        raise ArgumentError(f"interpolation nodes {nodes} repeat a node")
    return nodes


# Both identities read off the m^3 coefficient of their node products, which
# is row 3 of the inverse Vandermonde matrix when the products have degree
# below the node count in m: the cubic products carry minus the target there,
# the quartic products the g operator itself.
CUBIC_NODES = (0, 1, 2, 3)
QUARTIC_NODES = (-1, 0, 1, 2, 3)
CUBIC_WEIGHTS = {m: -w for m, w in zip(CUBIC_NODES, interpolation_matrix(CUBIC_NODES)[3])}
QUARTIC_WEIGHTS = dict(zip(QUARTIC_NODES, interpolation_matrix(QUARTIC_NODES)[3]))


def _scaled(weights):
    """The weights over one common denominator D: (integer numerators, D)."""
    den = lcm(1, *(w.denominator for w in weights))
    return tuple(w.numerator * (den // w.denominator) for w in weights), den


def _row_kernel(rows: tuple):
    """The straight-line evaluator g(values) of (integer numerators, D)
    rows, all of one width: one term map per row, the sum of
    numerators[t] * values[t] over the term maps values, divided by D.

    It gathers each monomial's coefficients over the term maps values once,
    into locals (0 where a map lacks the monomial), computes every row as
    an inline integer combination with its zero numerators left out, and
    divides only the nonzero totals by D, exactly: an int when
    D divides, a ``Fraction`` otherwise, total / D for a non-int total.  A
    term that cancels never builds a Fraction.  Returns one term map per
    row, each in the order the monomials first appear in values.
    """
    constants = {"Fraction": Fraction, "int": int, "type": type}
    lit = partial(_literal, constants=constants)
    width = len(rows[0][0])
    maps = [f"v{t}" for t in range(width)]
    coeffs = [f"c{t}" for t in range(width)]
    outs = [f"r{k}" for k in range(len(rows))]
    lines = [
        "def g(values):",
        f"    ({', '.join(maps)},) = values",
        *(f"    get{t} = v{t}.get" for t in range(width)),
        *(f"    {out} = {{}}" for out in outs),
        f"    for key in {{{', '.join('**' + v for v in maps)}}}:",
        f"        ({', '.join(coeffs)},) = {', '.join(f'get{t}(key, 0)' for t in range(width))},",
    ]
    for out, (nums, den) in zip(outs, rows):
        total = " + ".join(_times(lit(num), c) for num, c in zip(nums, coeffs) if num)
        if not total:
            continue
        d = lit(den)
        lines += [f"        total = {total}", "        if total:"]
        if d == "1":
            lines.append(f"            {out}[key] = total")
        else:
            lines += [
                "            if type(total) is int:",
                f"                {out}[key] = Fraction(total, {d}) if total % {d} else total // {d}",
                "            else:",
                f"                {out}[key] = total / {d}",
            ]
    lines.append(f"    return [{', '.join(outs)}]")
    return _kernel(lines, constants, "g")


def _times(scale: str, value: str) -> str:
    """The source of scale * value, with a scale of 1 or -1 left implicit."""
    if scale == "1":
        return value
    return f"-{value}" if scale == "(-1)" else f"{scale} * {value}"


def _literal(x, constants: dict) -> str:
    """The source of the constant x in a generated kernel.  Only an exact
    int enters the source, as its repr (parenthesized when negative); any
    other value is bound by a fresh name in constants, the kernel's
    namespace, so no outside text is ever compiled."""
    if type(x) is int:
        return repr(x) if x >= 0 else f"({x!r})"
    name = f"k{len(constants)}"
    constants[name] = x
    return name


def _kernel(lines, constants: dict, name: str):
    """The function ``name`` that the source lines define, compiled once
    with constants as its namespace."""
    namespace = dict(constants)
    exec(compile("\n".join(lines) + "\n", f"<{name} kernel>", "exec"), namespace)
    return namespace[name]


def cubic_m_product(alpha, i: int, j: int, m: int) -> TensorOperator:
    """iota_hat(L_ij^(alpha - m e_i)) * iota_hat(t^(m e_i) d_j), read off
    the node template of (n, i, j, m) at alpha (see ``_node_product``)."""
    return _node_product("cubic", alpha, i, j, m)


def cubic_target(alpha, i: int, j: int) -> TensorOperator:
    """t^(alpha+e_j-2e_i) (x) E_ij^2, the left side of the cubic identity."""
    return _cubic_target(check_L_args(j, i, alpha), i, j)


def _cubic_target(alpha, i: int, j: int) -> TensorOperator:
    """``cubic_target`` unchecked; alpha's entries may be symbols."""
    n = len(alpha)
    exp = mi_sub(mi_add(alpha, mi_unit(j, n)), tuple(2 * x for x in mi_unit(i, n)))
    mono = ((exp, mi_zero(n)), (((i, j), 2),))
    return TensorOperator._from_kernel({mono: 1}, rank=n, laurent=True)


def cubic_identity_residual(alpha, i: int, j: int) -> TensorOperator:
    """Residual of the four-point identity expressing t^(alpha+e_j-2e_i) E_ij^2.

    Zero for every integer alpha; the right-hand side is the fixed rational
    combination CUBIC_WEIGHTS of the products at m = 0, 1, 2, 3.  The
    arguments get the checks of the target (``check_L_args(j, i, alpha)``);
    the residual is read off ``_residual_template``.
    """
    alpha = check_L_args(j, i, alpha)
    return _at(_residual_template("cubic", len(alpha), i, j)[0], alpha)


def quartic_m_product(alpha, i: int, m: int) -> TensorOperator:
    """iota_hat(L_(i,i+2)^(alpha - m e_i)) * iota_hat(L_(i,i+1)^(m e_i)),
    read off the node template of (n, i, m) at alpha."""
    return _node_product("quartic", alpha, i, i + 2, m)


def _node_product(kind: str, alpha, i: int, j: int, m: int) -> TensorOperator:
    """A node product at alpha: the arguments get the checks of ``L_op`` on
    the left factor (a non-int m leaves a non-int entry in alpha - m e_i,
    since m * 0 keeps the type of m), then the template of
    (kind, n, i, j, m) is evaluated at alpha (``_evaluated``): the terms of
    the direct product, exactly.
    """
    alpha = tuple(alpha)
    shift = tuple(m * x for x in mi_unit(i, len(alpha)))
    check_L_args(i, j, mi_sub(alpha, shift))
    return _at(_node_template(kind, len(alpha), i, j, m), alpha)


def _at(template, alpha) -> TensorOperator:
    """The Laurent-mode operator of a template over the base alpha,
    evaluated at alpha (``_evaluated``); a template with no rows is the
    zero operator, with no evaluation."""
    terms = _evaluated(template, alpha, alpha) if template[1] else {}
    return TensorOperator._from_kernel(terms, rank=len(alpha), laurent=True)


@bounded(256)
def _node_template(kind: str, n: int, i: int, j: int, m: int):
    """``_template`` of the node product of (kind, n, i, j) at m over alpha."""
    return _template(_at_node(_node_terms(kind, n, i, j), m), Poly.symbols(n + 1)[:n])


@bounded(64)
def _node_terms(kind: str, n: int, i: int, j: int) -> dict:
    """The node product of (kind, n, i, j) over the n + 1 symbols of
    ``terms.Poly``, alpha and the node m last, built by ``shen_iota`` and
    ``_operator_product`` from the factors (``_left_terms``,
    ``_right_terms``).  Its t exponents are alpha plus integers: m only
    enters the coefficients.  Built once per case and shared by ``_node_template`` and
    ``_residual_template``: treat it as read-only.
    """
    symbols = Poly.symbols(n + 1)
    alpha, m = symbols[:n], symbols[n]
    left = shen_iota(_symbolic_field(n, _left_terms(i, j, alpha, m)))
    right = shen_iota(_symbolic_field(n, _right_terms(kind, n, i, j, m)))
    return accumulate({}, pair_terms(left.terms, right.terms, _operator_product))


def _left_terms(i: int, j: int, alpha, m) -> dict:
    """The left factor L_ij^(alpha - m e_i); alpha and m may be symbols."""
    return _L_terms(i, j, mi_sub(alpha, tuple(m * x for x in mi_unit(i, len(alpha)))))


def _right_terms(kind: str, n: int, i: int, j: int, m) -> dict:
    """The right factor t^(m e_i) d_j (cubic) or L_(i,i+1)^(m e_i)
    (quartic); m may be a symbol."""
    shift = tuple(m * x for x in mi_unit(i, n))
    return {(shift, mi_unit(j, n)): 1} if kind == "cubic" else _L_terms(i, i + 1, shift)


def _symbolic_field(n: int, terms: dict) -> VectorField:
    """The Laurent-mode field of a term map whose exponents may be symbols."""
    return VectorField._from_kernel(terms, rank=n, laurent=True)


def _at_node(product: dict, m: int) -> dict:
    """A product of ``_node_terms`` with m set to an int in each coefficient
    (``Poly.at_last``, a ring map), vanishing terms left out.  The t
    exponents are kept: one that carries m makes ``_template`` raise."""
    return accumulate(
        {}, ((key, c.at_last(m) if type(c) is Poly else c) for key, c in product.items())
    )


@bounded(64)
def _residual_template(kind: str, n: int, i: int, j: int):
    """The cubic (kind "cubic", indices i, j) or quartic (kind "quartic",
    j = i + 2) identity over a symbolic alpha, as (``_template`` of its
    residual over the base alpha, degree in m of its node product).  The
    residual is the target (``_cubic_target``, or the g rows of
    ``_special_rows``) minus the weights' combination (``_row_kernel``) of
    the node product ``_node_terms`` set at each node (``_at_node``).

    Evaluation at alpha is a ring map that keeps distinct rows distinct, so
    the residual at alpha is that of the per-alpha computation, term by
    term.  No rows and a degree below the node count prove the identity for
    every integer alpha: the weights then read the product's m^3 coefficient.
    """
    alpha = Poly.symbols(n + 1)[:n]
    if kind == "cubic":
        target, weights = _cubic_target(alpha, i, j), CUBIC_WEIGHTS
    else:
        target, weights = _special_operator("g", alpha, i), QUARTIC_WEIGHTS
    product = _node_terms(kind, n, i, j)
    combine = _row_kernel((_scaled(weights.values()),))
    (combined,) = combine([_at_node(product, m) for m in weights])
    residual = accumulate(dict(target.terms), ((key, -c) for key, c in combined.items()))
    degree = max((e[-1] for c in product.values() if type(c) is Poly for e in c.terms), default=0)
    return _template(residual, alpha), degree


def _template(product: dict, base):
    """A collected term map over symbolic exponents as (parts, rows,
    kernel).

    The keys are ((t_exp, d_exp), tag): the tag, a PBW monomial for an
    operator, is opaque here and carried through unchanged (the operator
    lemmas put a (source, target) index pair there).  Every t exponent must
    be base + an integer offset, base being a tuple of ``Poly`` sums of
    distinct symbols.  Each coefficient is split into an integer scale
    times a primitive part (``_primitive``); parts lists the distinct
    parts, so one evaluation serves every row that shares one.  A row is
    (offset, d_exp, tag, part index, scale).  A t exponent of any other
    shape (an entry without its symbols, or with a multiple of them) would
    let two rows meet at some point, so it raises ``StructureError``.
    The kernel is the template's compiled evaluator (``_template_kernel``),
    built once with the template; a template with no rows gets the shared
    ``_no_terms``, and nothing is compiled for it.
    """
    parts = {}
    rows = []
    for ((t_exp, d_exp), tag), coeff in product.items():
        offset = tuple(e - s for s, e in zip(base, t_exp))
        if any(type(c) is not int for c in offset):
            raise StructureError(f"t exponent {t_exp} is not {base} plus an integer offset")
        scale, part = _primitive(coeff)
        rows.append((offset, d_exp, tag, parts.setdefault(part, len(parts)), scale))
    parts, rows = tuple(parts), tuple(rows)
    return parts, rows, _template_kernel(parts, rows) if rows else _no_terms


def _no_terms(point, base) -> dict:
    """The evaluator of a template with no rows: zero at every point."""
    return {}


# the part of a constant coefficient: its value is the row's scale
_CONSTANT_PART = ((1, ()),)


def _template_kernel(parts, rows):
    """The straight-line evaluator f(point, base) of a template with rows.

    It reads the symbols the parts use from point and the base entries
    into locals, evaluates each primitive part once as one expression,
    builds the t exponent tuple of each distinct offset once, and fills
    the term map row by row, in row order, skipping a row whose part is
    zero (a constant part is never zero, and its row's value is its
    scale).  Ints enter the source as literals, every other constant
    (d exponents, tags, ``Fraction`` scales) by name (``_literal``).
    """
    constants = {}
    lit = partial(_literal, constants=constants)
    symbols = sorted({s for part in parts for _, powers in part for s, _ in powers})
    bases = [f"b{s}" for s in range(len(rows[0][0]))]
    lines = ["def f(point, base):"]
    lines += [f"    p{s} = point[{s}]" for s in symbols]
    lines.append(f"    ({', '.join(bases)},) = base")
    for index, part in enumerate(parts):
        if part != _CONSTANT_PART:
            terms = (
                (lit(c), "*".join(f"p{s}" if e == 1 else f"p{s}**{lit(e)}" for s, e in powers))
                for c, powers in part
            )
            expr = " + ".join(_times(c, product) if product else c for c, product in terms)
            lines.append(f"    v{index} = {expr}")
    tuples = {}
    for offset, *_ in rows:
        if offset not in tuples:
            tuples[offset] = name = f"t{len(tuples)}"
            entries = [b if o == 0 else f"{b} + {lit(o)}" for b, o in zip(bases, offset)]
            lines.append(f"    {name} = ({', '.join(entries)},)")
    lines.append("    terms = {}")
    guard = None
    for offset, d_exp, tag, index, scale in rows:
        key = f"({tuples[offset]}, {lit(d_exp)}), {lit(tag)}"
        if parts[index] == _CONSTANT_PART:
            guard = None
            lines.append(f"    terms[{key}] = {lit(scale)}")
            continue
        if guard != index:
            guard = index
            lines.append(f"    if v{index}:")
        lines.append(f"        terms[{key}] = {_times(lit(scale), f'v{index}')}")
    lines.append("    return terms")
    return _kernel(lines, constants, "f")


def _evaluated(template, point, base) -> dict:
    """The term map of a ``_template`` with the symbols set to the ints of
    point and the base to base, computed by the template's kernel; rows
    whose coefficient vanishes there are left out, and each row's opaque
    tag is its key's second slot.

    Distinct rows have distinct offsets or distinct (d_exp, tag), so
    they stay distinct at every point, and the terms are exactly those of
    the same kernels run on the integer exponents.
    """
    return template[2](point, base)


def _primitive(coeff):
    """(scale, part) with coeff = scale * part.  A polynomial's scale is the
    gcd of its coefficients' numerators over the lcm of their denominators
    (an int when that is whole), signed so that the part's lowest term is
    positive; the part's coefficients are then coprime ints.  A constant is
    its own scale over the part 1.  The part is listed for evaluation as
    ((c, ((s, e), ...)), ...): the sum of the terms c * prod alpha[s]**e,
    in a canonical order."""
    if type(coeff) is not Poly:
        return coeff, ((1, ()),)
    values = coeff.terms.values()
    scale = Fraction(
        gcd(*(c.numerator for c in values)), lcm(*(c.denominator for c in values))
    )
    if coeff.terms[min(coeff.terms)] < 0:
        scale = -scale
    terms = sorted((exps, int(c / scale)) for exps, c in coeff.terms.items())
    if scale.denominator == 1:
        scale = scale.numerator
    return scale, tuple(
        (c, tuple((s, e) for s, e in enumerate(exps) if e)) for exps, c in terms
    )


def quartic_identity_residual(alpha, i: int) -> TensorOperator:
    """Residual of the five-point identity recovering the g operator.

    Zero for every integer alpha; the right-hand side combines the products
    at m = -1, 0, 1, 2, 3 with the fixed rational QUARTIC_WEIGHTS.  The
    arguments get the checks of the g operator (those of the node products
    then hold); the residual is read off ``_residual_template``.
    """
    alpha = _special_args("g", alpha, i)
    return _at(_residual_template("quartic", len(alpha), i, i + 2)[0], alpha)


@bounded(64)
def _interpolation_rows(nodes: tuple):
    """The rows of ``interpolation_matrix(nodes)``, each as its integer
    numerators over its common denominator, with their compiled evaluator:
    (rows, ``_row_kernel(rows)``), cached per node tuple."""
    rows = tuple(_scaled(row) for row in interpolation_matrix(nodes))
    return rows, _row_kernel(rows)


def interpolate_coefficients(values, nodes):
    """Exact polynomial interpolation over tensor operators.

    Given operator values P(m) at pairwise-distinct integer nodes, return the
    coefficient operators [c_0, ..., c_(deg)] with P(m) = sum c_k m^k.  The
    inverse Vandermonde matrix (``interpolation_matrix``) is built once per
    node tuple and kept as integer rows over a common denominator.  Each
    monomial's values over the nodes form one vector; every row is applied
    to it in integers and the survivors are divided once, so each
    coefficient is built as one Laurent-mode operator.
    """
    if len(values) != len(nodes) or not values:
        raise ArgumentError("need one value per node")
    # checked before the memo: (0.0, 1.0) would hit the entry of (0, 1)
    _, combine = _interpolation_rows(_checked_nodes(nodes))
    ranks = {v.rank for v in values}
    if len(ranks) != 1:
        raise StructureError(f"node products differ in rank: {sorted(ranks)}")
    (rank,) = ranks
    return [
        TensorOperator._from_kernel(terms, rank=rank, laurent=True)
        for terms in combine([v.terms for v in values])
    ]
