"""Operators in (Laurent-)Weyl tensor U(gl_n) and the embedding identities.

This module hosts the algebra map iota from vector fields into the tensor
algebra, its Laurent extension, the named operators built from degree-two
matrix-unit products, and the exact interpolation identities that express
t^alpha tensor E_ij^2 (and the g operator) through products of images of
divergence-free generators.  Those node products are built once per
(n, i, j, m) over a symbolic alpha and evaluated at each alpha.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add, mul, sub

from .errors import ArgumentError, StructureError
from .indices import check_integer_exponents, mi_add, mi_sub, mi_unit, mi_units, mi_zero
from .terms import SCALARS, Poly, TermMap, accumulate
from .ugl import UglElement, pbw_json, pbw_product, pbw_text
from .vectorfields import L_op, VectorField, _L_terms, bracket, check_L_args, monomial_field
from .weyl import WeylElement, _d_on_t


class TensorOperator(TermMap):
    """Sparse element of (Laurent-)Weyl tensor U(gl_n).

    Terms map (weyl monomial, PBW monomial) pairs to exact coefficients;
    both factors are normal-ordered, so a residual that cancels term-by-term
    leaves an empty map and equality is bit-exact.
    """

    __slots__ = ("rank", "laurent")

    def __init__(self, rank: int, terms=None, laurent: bool = False):
        cleaned = {}
        if terms:
            for (wmono, pmono), coeff in terms.items():
                if coeff == 0:
                    continue
                t_exp, d_exp = wmono
                if len(t_exp) != rank or len(d_exp) != rank:
                    raise StructureError("weyl factor rank mismatch")
                if not laurent and any(b < 0 for b in t_exp):
                    raise StructureError("negative t exponent in polynomial mode")
                cleaned[(wmono, pmono)] = coeff
        self._set(cleaned, rank=rank, laurent=laurent)

    @classmethod
    def _from_kernel(cls, rank: int, terms: dict, laurent: bool) -> TensorOperator:
        """An operator over a term map that a kernel of this library built
        (``accumulate`` or ``_combine``): no zero coefficients, every
        exponent of length rank, and no negative t exponent in polynomial
        mode, all by construction.  The map is adopted, not copied or
        re-checked.  Input from outside goes through ``__init__``.
        """
        op = cls(rank, None, laurent)
        op._set(terms)
        return op

    def _context(self):
        return (self.rank,)

    def _like(self, terms, other=None):
        # every TermMap caller passes a collected map: sums, differences,
        # negations and products keep rank and polynomial-mode signs
        laurent = self.laurent or (other is not None and other.laurent)
        return TensorOperator._from_kernel(self.rank, terms, laurent)

    def _scale(self, scalar):
        # a zero scalar leaves zero coefficients, which only __init__ drops
        return TensorOperator(
            self.rank, {k: c * scalar for k, c in self.terms.items()}, self.laurent
        )

    @property
    def mode(self) -> str:
        return "laurent" if self.laurent else "polynomial"

    @classmethod
    def zero(cls, rank: int, laurent: bool = False) -> TensorOperator:
        return cls(rank, {}, laurent)

    @classmethod
    def one(cls, rank: int, laurent: bool = False) -> TensorOperator:
        z = mi_zero(rank)
        return cls(rank, {((z, z), ()): 1}, laurent)

    def __mul__(self, other):
        if isinstance(other, SCALARS):
            return self._scale(other)
        self._check_same(other)
        return self._like(accumulate({}, _product_terms(self, other)), other)

    def demote(self) -> TensorOperator:
        """Polynomial-mode copy when every t exponent allows it, else self."""
        if not self.laurent:
            return self
        if all(all(b >= 0 for b in wm[0]) for wm, _ in self.terms):
            return TensorOperator(self.rank, self.terms, laurent=False)
        return self

    @staticmethod
    def _text(mono) -> str:
        wmono, pmono = mono
        return f"{WeylElement._text(wmono) or 1} (x) {pbw_text(pmono) or 1}"

    def to_json_obj(self):
        return {
            "rank": self.rank,
            "mode": self.mode,
            "terms": self._json_terms(
                lambda m: {
                    "tExp": list(m[0][0]),
                    "dExp": list(m[0][1]),
                    "factors": pbw_json(m[1]),
                }
            ),
        }


def _product_terms(a: TensorOperator, b: TensorOperator):
    """The (monomial, coeff) pairs of a * b before collection: the Weyl
    factors normal-order through _d_on_t, the PBW factors through
    pbw_product."""
    for ((b1, g1), p1), c1 in a.terms.items():
        for ((b2, g2), p2), c2 in b.terms.items():
            base = c1 * c2
            pbw = pbw_product(p1, p2)
            t_sum = tuple(map(add, b1, b2))
            d_sum = tuple(map(add, g1, g2))
            for wcoeff, k in _d_on_t(g1, b2):
                wmono = (tuple(map(sub, t_sum, k)), tuple(map(sub, d_sum, k)))
                wbase = base * wcoeff
                for pmono, pcoeff in pbw:
                    yield (wmono, pmono), wbase * pcoeff


def tensor(a: WeylElement, u: UglElement) -> TensorOperator:
    """The simple tensor a (x) u, extended bilinearly over the terms."""
    if a.rank != u.rank:
        raise StructureError(f"rank mismatch: {a.rank} vs {u.rank}")
    terms = {}
    for wmono, wc in a.terms.items():
        for pmono, pc in u.terms.items():
            terms[(wmono, pmono)] = wc * pc
    return TensorOperator(a.rank, terms, a.laurent)


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
        for (t_exp, d_exp), coeff in x.element.terms.items():
            i = d_exp.index(1) + 1
            yield ((t_exp, d_exp), ()), coeff
            for s, a_s in enumerate(t_exp, 1):
                if a_s != 0:
                    shifted = t_exp[: s - 1] + (a_s - 1,) + t_exp[s:]
                    yield ((shifted, zero), (((s, i), 1),)), coeff * a_s

    return TensorOperator._from_kernel(n, accumulate({}, images()), x.laurent)


def iota_hom_residual(x: VectorField, y: VectorField) -> TensorOperator:
    """iota([x, y]) - [iota(x), iota(y)]; zero by contract.  The commutator
    terms are added to iota([x, y]) as they are produced, in the order
    iota(y) iota(x) - iota(x) iota(y), which is minus the commutator."""
    lhs = shen_iota(bracket(x, y))
    terms = accumulate(dict(lhs.terms), _commutator_terms(shen_iota(y), shen_iota(x)))
    return TensorOperator._from_kernel(lhs.rank, terms, lhs.laurent)


def commutator(a: TensorOperator, b: TensorOperator) -> TensorOperator:
    """a * b - b * a in one pass over the term pairs."""
    a._check_same(b)
    return a._like(accumulate({}, _commutator_terms(a, b)), b)


def _commutator_terms(a: TensorOperator, b: TensorOperator):
    """The (monomial, coeff) pairs of a * b - b * a before collection.

    The k = 0 terms of d^g1 t^b2 and d^g2 t^b1 both give the monomial
    t^(b1+b2) d^(g1+g2), so they enter once, with the PBW commutator
    p1 p2 - p2 p1, and not at all when that vanishes (for instance when
    either PBW part is 1).  Only the k != 0 terms of the two orders are
    emitted apart, with the PBW products of their own order.
    """
    right = [(b2, g2, p2, c2, any(g2)) for ((b2, g2), p2), c2 in b.terms.items()]
    for ((b1, g1), p1), c1 in a.terms.items():
        lowers = any(g1)
        for b2, g2, p2, c2, lowers2 in right:
            base = c1 * c2
            t_sum = tuple(map(add, b1, b2))
            d_sum = tuple(map(add, g1, g2))
            if p1 and p2:
                ab, ba = pbw_product(p1, p2), pbw_product(p2, p1)
                if ab != ba:
                    pbw = accumulate(dict(ab), ((m, -c) for m, c in ba))
                    for pmono, pcoeff in pbw.items():
                        yield ((t_sum, d_sum), pmono), base * pcoeff
            if lowers:
                yield from _lowered(base, t_sum, d_sum, _d_on_t(g1, b2), p1, p2)
            if lowers2:
                yield from _lowered(-base, t_sum, d_sum, _d_on_t(g2, b1), p2, p1)


def _lowered(base, t_sum, d_sum, choices, p1, p2):
    """The k != 0 terms of one order of a term pair: choices is the
    ``_d_on_t`` expansion, whose first pair is k = 0."""
    if len(choices) > 1:
        pbw = pbw_product(p1, p2)
        for wcoeff, k in choices[1:]:
            wmono = (tuple(map(sub, t_sum, k)), tuple(map(sub, d_sum, k)))
            wbase = base * wcoeff
            for pmono, pcoeff in pbw:
                yield (wmono, pmono), wbase * pcoeff


SPECIAL_KINDS = ("f", "g", "h", "u")


def special_operator(kind: str, alpha, i: int) -> TensorOperator:
    """The named operators built from the degree-two matrix-unit products.

    All four are Laurent-mode in general; their terms are the rows of
    ``_special_rows``, collected in one pass.
    """
    alpha = tuple(alpha)
    n = len(alpha)
    if not 1 <= i <= n - 2:
        raise ArgumentError(f"index {i} out of range 1..{n - 2}")
    if kind not in SPECIAL_KINDS:
        raise ArgumentError(f"unknown operator kind {kind!r}")
    check_integer_exponents(alpha)
    terms = accumulate(
        {},
        (
            (((t_exp, d_exp), pmono), coeff * pcoeff)
            for coeff, t_exp, d_exp, word in _special_rows(kind, alpha, i)
            for pmono, pcoeff in pbw_product(*word)
        ),
    )
    return TensorOperator._from_kernel(n, terms, laurent=True)


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
    nodes = tuple(nodes)
    if len(set(nodes)) != len(nodes):
        raise ArgumentError(f"interpolation nodes {nodes} repeat a node")
    columns = []
    for t, m_t in enumerate(nodes):
        coeffs, den = [1], 1  # prod (m - m_s), lowest degree first
        for s, m_s in enumerate(nodes):
            if s != t:
                coeffs = [a - m_s * b for a, b in zip([0, *coeffs], [*coeffs, 0])]
                den *= m_t - m_s
        columns.append([Fraction(c, den) for c in coeffs])
    return [list(row) for row in zip(*columns)]


# one node beyond both windows; the product there certifies the degree in m
CHECK_NODE = 4


def _identity_weights(nodes, sign):
    """Both identities read off the m^3 coefficient of their node products,
    which is row 3 of the inverse Vandermonde matrix: the cubic products
    carry minus the target there (sign -1), the quartic products the g
    operator itself.  Also returns the weights that predict the product at
    CHECK_NODE from the node products."""
    inv = interpolation_matrix(nodes)
    weights = {m: sign * w for m, w in zip(nodes, inv[3])}
    prediction = {
        m: sum(row[t] * CHECK_NODE**k for k, row in enumerate(inv))
        for t, m in enumerate(nodes)
    }
    return weights, prediction


CUBIC_NODES = (0, 1, 2, 3)
QUARTIC_NODES = (-1, 0, 1, 2, 3)
CUBIC_WEIGHTS, CUBIC_PREDICTION = _identity_weights(CUBIC_NODES, -1)
QUARTIC_WEIGHTS, QUARTIC_PREDICTION = _identity_weights(QUARTIC_NODES, 1)


def _scaled(weights):
    """The weights over one common denominator D: (integer numerators, D)."""
    den = lcm(1, *(w.denominator for w in weights))
    return tuple(w.numerator * (den // w.denominator) for w in weights), den


def _combine(values, rows):
    """One Laurent-mode operator per (numerators, D) row: the sum of
    numerators[t] * values[t], divided by D.

    Each monomial's coefficients over the values are gathered into one
    vector, every row is applied to it in integers, and only the survivors
    are divided by D, so a term that cancels never builds a Fraction.
    """
    ranks = {v.rank for v in values}
    if len(ranks) != 1:
        raise StructureError(f"node products differ in rank: {sorted(ranks)}")
    (rank,) = ranks
    width = len(values)
    vectors = {}
    for t, value in enumerate(values):
        for key, c in value.terms.items():
            vec = vectors.get(key)
            if vec is None:
                vectors[key] = vec = [0] * width
            vec[t] = c
    out = []
    for nums, den in rows:
        terms = {}
        for key, vec in vectors.items():
            total = sum(map(mul, nums, vec))
            if total:
                terms[key] = _divide(total, den)
        out.append(TensorOperator._from_kernel(rank, terms, laurent=True))
    return out


def _divide(total, den):
    """total / den, kept an int when den divides it."""
    if type(total) is int:
        q, r = divmod(total, den)
        return Fraction(total, den) if r else q
    return total / den


def node_combination(products, weights) -> TensorOperator:
    """sum_m weights[m] * products[m] over the nodes listed in weights, in
    integers over the weights' common denominator (see ``_combine``)."""
    if not weights:
        raise ArgumentError("need at least one node")
    values = [products[m] for m in weights]
    return _combine(values, [_scaled(list(weights.values()))])[0]


def cubic_m_factors(alpha, i: int, j: int, m: int):
    """The fields L_ij^(alpha - m e_i) and t^(m e_i) d_j (Laurent mode)."""
    alpha = tuple(alpha)
    shift = tuple(m * x for x in mi_unit(i, len(alpha)))
    return (
        L_op(i, j, mi_sub(alpha, shift), laurent=True),
        monomial_field(shift, j, laurent=True),
    )


def cubic_m_product(alpha, i: int, j: int, m: int) -> TensorOperator:
    """iota_hat(L_ij^(alpha - m e_i)) * iota_hat(t^(m e_i) d_j), read off
    the node template of (n, i, j, m) at alpha (see ``_node_product``)."""
    return _node_product("cubic", alpha, i, j, m)


def cubic_target(alpha, i: int, j: int) -> TensorOperator:
    """t^(alpha+e_j-2e_i) (x) E_ij^2, the left side of the cubic identity."""
    alpha = tuple(alpha)
    n = len(alpha)
    if i == j:
        raise ArgumentError("indices must differ")
    exp = mi_sub(mi_add(alpha, mi_unit(j, n)), tuple(2 * x for x in mi_unit(i, n)))
    return TensorOperator(n, {((exp, mi_zero(n)), (((i, j), 2),)): 1}, laurent=True)


def cubic_identity_residual(alpha, i: int, j: int) -> TensorOperator:
    """Residual of the four-point identity expressing t^(alpha+e_j-2e_i) E_ij^2.

    Zero for every integer alpha; the right-hand side is the fixed rational
    combination CUBIC_WEIGHTS of the products at m = 0, 1, 2, 3.
    """
    target = cubic_target(alpha, i, j)
    products = {m: cubic_m_product(alpha, i, j, m) for m in CUBIC_NODES}
    return target - node_combination(products, CUBIC_WEIGHTS)


def quartic_m_factors(alpha, i: int, m: int):
    """The fields L_(i,i+2)^(alpha - m e_i) and L_(i,i+1)^(m e_i) (Laurent mode)."""
    alpha = tuple(alpha)
    shift = tuple(m * x for x in mi_unit(i, len(alpha)))
    return (
        L_op(i, i + 2, mi_sub(alpha, shift), laurent=True),
        L_op(i, i + 1, shift, laurent=True),
    )


def quartic_m_product(alpha, i: int, m: int) -> TensorOperator:
    """iota_hat(L_(i,i+2)^(alpha - m e_i)) * iota_hat(L_(i,i+1)^(m e_i)),
    read off the node template of (n, i, m) at alpha."""
    return _node_product("quartic", alpha, i, i + 2, m)


def _node_product(kind: str, alpha, i: int, j: int, m: int) -> TensorOperator:
    """A node product at alpha: the arguments get the checks of ``L_op`` on
    the left factor (a non-int m leaves a non-int entry in alpha - m e_i,
    since m * 0 keeps the type of m), then the template of
    (kind, n, i, j, m) is evaluated at alpha.

    Every template row is coeff * t^(alpha+offset) d^d_exp (x) pmono with
    coeff a polynomial in alpha.  Distinct rows have distinct offsets or
    distinct (d_exp, pmono), so they stay distinct at every alpha, and the
    value is exact: the terms of the direct product, with the rows whose
    coefficient vanishes at alpha dropped.
    """
    alpha = tuple(alpha)
    n = len(alpha)
    shift = tuple(m * x for x in mi_unit(i, n))
    check_L_args(i, j, mi_sub(alpha, shift))
    parts, rows = _node_template(kind, n, i, j, m)
    values = []
    for part in parts:
        value = 0
        for c, powers in part:
            for s, e in powers:
                c *= alpha[s] ** e
            value += c
        values.append(value)
    terms = {}
    for offset, d_exp, pmono, index, scale in rows:
        c = values[index]
        if c:
            terms[((tuple(map(add, alpha, offset)), d_exp), pmono)] = scale * c
    return TensorOperator._from_kernel(n, terms, laurent=True)


@lru_cache(maxsize=256)
def _node_template(kind: str, n: int, i: int, j: int, m: int):
    """The node product of (kind, n, i, j, m) over a symbolic alpha, built
    once by the library's own kernels: ``_L_terms`` on the symbols of
    ``terms.Poly``, ``shen_iota`` and ``_product_terms``.  Only the left
    factor carries alpha, and ``_d_on_t`` reads only the right factor's t
    exponent, so the product is exact over the symbols.

    Returns (parts, rows).  Each coefficient is split into an integer
    scale times a primitive part (``_primitive``); parts lists the distinct
    parts, so one evaluation serves every row that shares one.  A row is
    (offset, d_exp, pmono, part index, scale), with t exponent
    alpha + offset.  A t exponent of any other shape (an entry without its
    symbol, or with a multiple of it) would let two rows meet at some
    alpha, so it raises ``StructureError``.
    """
    symbols = Poly.symbols(n)
    shift = tuple(m * x for x in mi_unit(i, n))
    left = VectorField(WeylElement(n, _L_terms(i, j, mi_sub(symbols, shift)), True))
    if kind == "cubic":
        right = monomial_field(shift, j, laurent=True)
    else:
        right = L_op(i, i + 1, shift, laurent=True)
    product = accumulate({}, _product_terms(shen_iota(left), shen_iota(right)))
    parts = {}
    rows = []
    for ((t_exp, d_exp), pmono), coeff in product.items():
        offset = tuple(b - a for a, b in zip(symbols, t_exp))
        if any(type(c) is not int for c in offset):
            raise StructureError(f"t exponent {t_exp} is not alpha plus an integer offset")
        scale, part = _primitive(coeff)
        rows.append((offset, d_exp, pmono, parts.setdefault(part, len(parts)), scale))
    return tuple(parts), tuple(rows)


def _primitive(coeff):
    """(scale, part) with coeff = scale * part.  A polynomial's scale is the
    gcd of its int coefficients, signed so that the part's lowest term is
    positive, and a constant is its own scale over the part 1.  The part is
    listed for evaluation as ((c, ((s, e), ...)), ...): the sum of the
    terms c * prod alpha[s]**e, in a canonical order."""
    if type(coeff) is not Poly:
        return coeff, ((1, ()),)
    scale = gcd(*coeff.terms.values())
    if coeff.terms[min(coeff.terms)] < 0:
        scale = -scale
    terms = sorted((coeff / scale).terms.items())
    return scale, tuple(
        (c, tuple((s, e) for s, e in enumerate(exps) if e)) for exps, c in terms
    )


def quartic_target(alpha, i: int) -> TensorOperator:
    """The g operator, the left side of the quartic identity."""
    return special_operator("g", alpha, i)


def quartic_identity_residual(alpha, i: int) -> TensorOperator:
    """Residual of the five-point identity recovering the g operator.

    Zero for every integer alpha; the right-hand side combines the products
    at m = -1, 0, 1, 2, 3 with the fixed rational QUARTIC_WEIGHTS.
    """
    target = quartic_target(alpha, i)
    products = {m: quartic_m_product(alpha, i, m) for m in QUARTIC_NODES}
    return target - node_combination(products, QUARTIC_WEIGHTS)


@lru_cache(maxsize=64)
def _interpolation_rows(nodes: tuple):
    """The rows of ``interpolation_matrix(nodes)``, each as its integer
    numerators over its common denominator; cached per node tuple."""
    return tuple(_scaled(row) for row in interpolation_matrix(nodes))


def interpolate_coefficients(values, nodes):
    """Exact polynomial interpolation over tensor operators.

    Given operator values P(m) at pairwise-distinct integer nodes, return the
    coefficient operators [c_0, ..., c_(deg)] with P(m) = sum c_k m^k.  The
    inverse Vandermonde matrix (``interpolation_matrix``) is built once per
    node tuple and kept as integer rows over a common denominator.  Each
    monomial's values over the nodes form one vector; every row is applied
    to it in integers and the survivors are divided once, so each
    coefficient is built as one operator.
    """
    if len(values) != len(nodes) or not values:
        raise ArgumentError("need one value per node")
    return _combine(values, _interpolation_rows(tuple(nodes)))
