"""Operators in (Laurent-)Weyl tensor U(gl_n) and the embedding identities.

This module hosts the algebra map iota from vector fields into the tensor
algebra, its Laurent extension, the named operators built from degree-two
matrix-unit products, and the exact interpolation identities that express
t^alpha tensor E_ij^2 (and the g operator) through products of images of
divergence-free generators.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ArgumentError, StructureError
from .indices import mi_add, mi_sub, mi_unit, mi_zero
from .linalg import invert
from .terms import SCALARS, TermMap, accumulate
from .ugl import E, UglElement, pbw_product
from .vectorfields import L_op, VectorField, bracket, monomial_field
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

    def _context(self):
        return (self.rank,)

    def _like(self, terms, other=None):
        laurent = self.laurent or (other is not None and other.laurent)
        return TensorOperator(self.rank, terms, laurent)

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

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for ((t_exp, d_exp), pmono), coeff in self.sorted_items():
            weyl = WeylElement(self.rank, {(t_exp, d_exp): 1}, laurent=True)
            ugl = UglElement(self.rank, {pmono: 1})
            body = f"{weyl} (x) {ugl}"
            if coeff == 1:
                parts.append(body)
            elif coeff == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{coeff}*{body}")
        return " + ".join(parts).replace("+ -", "- ")

    __repr__ = __str__

    def to_json_obj(self):
        return {
            "rank": self.rank,
            "mode": self.mode,
            "terms": [
                {
                    "tExp": list(te),
                    "dExp": list(de),
                    "factors": [[i, j, e] for (i, j), e in pmono],
                    "coeff": str(Fraction(c)),
                }
                for ((te, de), pmono), c in self.sorted_items()
            ],
        }


def _product_terms(a: TensorOperator, b: TensorOperator):
    """The (monomial, coeff) pairs of a * b before collection: the Weyl
    factors normal-order through _d_on_t, the PBW factors through
    pbw_product."""
    for ((b1, g1), p1), c1 in a.terms.items():
        for ((b2, g2), p2), c2 in b.terms.items():
            base = c1 * c2
            pbw = pbw_product(p1, p2)
            for wcoeff, k in _d_on_t(g1, b2):
                t_exp = tuple(x + y - z for x, y, z in zip(b1, b2, k))
                d_exp = tuple(x + y - z for x, y, z in zip(g1, g2, k))
                wbase = base * wcoeff
                for pmono, pcoeff in pbw.items():
                    yield ((t_exp, d_exp), pmono), wbase * pcoeff


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

    def images():
        for (t_exp, d_exp), coeff in x.element.terms.items():
            i = d_exp.index(1) + 1
            yield ((t_exp, d_exp), ()), coeff
            for s in range(1, n + 1):
                a_s = t_exp[s - 1]
                if a_s != 0:
                    shifted = mi_sub(t_exp, mi_unit(s, n))
                    yield ((shifted, mi_zero(n)), (((s, i), 1),)), coeff * a_s

    return TensorOperator(n, accumulate({}, images()), x.laurent)


def iota_hom_residual(x: VectorField, y: VectorField) -> TensorOperator:
    """iota([x, y]) - (iota(x) iota(y) - iota(y) iota(x)); zero by contract."""
    lhs = shen_iota(bracket(x, y))
    ix = shen_iota(x)
    iy = shen_iota(y)
    return lhs - (ix * iy - iy * ix)


def _special_indices(alpha, i: int):
    n = len(alpha)
    if not 1 <= i <= n - 2:
        raise ArgumentError(f"index {i} out of range 1..{n - 2}")
    return n, mi_unit(i, n), mi_unit(i + 1, n), mi_unit(i + 2, n)


def special_operator(kind: str, alpha, i: int) -> TensorOperator:
    """The named operators built from the degree-two matrix-unit products.

    All four are Laurent-mode in general; beta below is
    alpha + e_(i+1) + e_(i+2) - e_i.
    """
    alpha = tuple(alpha)
    n, ei, ei1, ei2 = _special_indices(alpha, i)
    beta = mi_sub(mi_add(alpha, mi_add(ei1, ei2)), ei)
    lau = True
    if kind == "g":
        return _op_f(alpha, i, n, ei, ei1, ei2, lau) + _g_minus_f(
            alpha, i, n, ei, ei1, ei2, beta, lau
        )
    if kind == "f":
        return _op_f(alpha, i, n, ei, ei1, ei2, lau)
    if kind == "u":
        out = _op_h(alpha, i, n, beta, lau)
        for s in range(1, n + 1):
            prod = WeylElement.monomial(mi_zero(n), mi_unit(s, n)) * WeylElement.t_power(
                beta, laurent=True
            )
            out = out - tensor(prod, E(s, i + 2, n) * E(i, i + 1, n))
        return out
    if kind == "h":
        return _op_h(alpha, i, n, beta, lau)
    raise ArgumentError(f"unknown operator kind {kind!r}")


def _op_f(alpha, i, n, ei, ei1, ei2, lau) -> TensorOperator:
    a_i = alpha[i - 1]
    a_i2 = alpha[i + 1]
    out = tensor(
        WeylElement.t_power(mi_add(mi_sub(alpha, ei), ei1), 1 + a_i2, laurent=lau),
        E(i, i, n) * E(i, i + 1, n) - E(i, i + 1, n),
    )
    out = out - tensor(
        WeylElement.t_power(mi_add(mi_sub(alpha, ei), ei2), laurent=lau),
        E(i, i + 2, n) * E(i, i, n),
    )
    out = out - tensor(
        WeylElement.t_power(
            mi_sub(mi_add(alpha, mi_add(ei1, ei2)), mi_add(ei, ei)), a_i, laurent=lau
        ),
        E(i, i + 2, n) * E(i, i + 1, n),
    )
    return out


def _g_minus_f(alpha, i, n, ei, ei1, ei2, beta, lau) -> TensorOperator:
    out = tensor(
        WeylElement.monomial(beta, mi_unit(i + 1, n), laurent=lau), E(i, i + 2, n)
    )
    out = out - tensor(
        WeylElement.monomial(beta, mi_unit(i + 2, n), laurent=lau), E(i, i + 1, n)
    )
    for s in range(1, n + 1):
        a_s = alpha[s - 1]
        if a_s != 0:
            out = out - tensor(
                WeylElement.t_power(mi_sub(beta, mi_unit(s, n)), a_s, laurent=lau),
                E(s, i + 2, n) * E(i, i + 1, n),
            )
    out = out - tensor(
        WeylElement.t_power(mi_add(mi_sub(alpha, ei), ei1), laurent=lau),
        E(i + 2, i + 2, n) * E(i, i + 1, n),
    )
    out = out + tensor(
        WeylElement.t_power(mi_add(mi_sub(alpha, ei), ei2), laurent=lau),
        E(i, i + 2, n) * E(i + 1, i + 1, n),
    )
    return out


def _op_h(alpha, i, n, beta, lau) -> TensorOperator:
    out = tensor(
        WeylElement.monomial(beta, mi_unit(i + 1, n), laurent=lau), E(i, i + 2, n)
    )
    out = out - tensor(
        WeylElement.monomial(beta, mi_unit(i + 2, n), laurent=lau), E(i, i + 1, n)
    )
    for s in range(1, n + 1):
        out = out + tensor(
            WeylElement.monomial(beta, mi_unit(s, n), laurent=lau),
            E(s, i + 2, n) * E(i, i + 1, n),
        )
    return out


def interpolation_matrix(nodes):
    """Inverse Vandermonde matrix of pairwise-distinct integer nodes.

    Row k maps the values at the nodes to the m^k coefficient of the
    interpolating polynomial.  The exact inversion also certifies the
    matrix nonsingular.
    """
    return invert([[m**k for k in range(len(nodes))] for m in nodes])


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


def node_combination(products, weights) -> TensorOperator:
    """sum_m weights[m] * products[m] over the nodes listed in weights."""
    rank = products[next(iter(weights))].rank
    acc = TensorOperator.zero(rank, laurent=True)
    for m, w in weights.items():
        acc = acc + products[m] * w
    return acc


def cubic_m_factors(alpha, i: int, j: int, m: int):
    """The fields L_ij^(alpha - m e_i) and t^(m e_i) d_j (Laurent mode)."""
    alpha = tuple(alpha)
    shift = tuple(m * x for x in mi_unit(i, len(alpha)))
    return (
        L_op(i, j, mi_sub(alpha, shift), laurent=True),
        monomial_field(shift, j, laurent=True),
    )


def cubic_m_product(alpha, i: int, j: int, m: int) -> TensorOperator:
    """iota_hat(L_ij^(alpha - m e_i)) * iota_hat(t^(m e_i) d_j)."""
    left, right = cubic_m_factors(alpha, i, j, m)
    return shen_iota(left) * shen_iota(right)


def cubic_target(alpha, i: int, j: int) -> TensorOperator:
    """t^(alpha+e_j-2e_i) (x) E_ij^2, the left side of the cubic identity."""
    alpha = tuple(alpha)
    n = len(alpha)
    if i == j:
        raise ArgumentError("indices must differ")
    exp = mi_sub(mi_add(alpha, mi_unit(j, n)), tuple(2 * x for x in mi_unit(i, n)))
    return tensor(WeylElement.t_power(exp, laurent=True), E(i, j, n) * E(i, j, n))


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
    """iota_hat(L_(i,i+2)^(alpha - m e_i)) * iota_hat(L_(i,i+1)^(m e_i))."""
    left, right = quartic_m_factors(alpha, i, m)
    return shen_iota(left) * shen_iota(right)


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


def interpolate_coefficients(values, nodes):
    """Exact polynomial interpolation over tensor operators.

    Given operator values P(m) at pairwise-distinct integer nodes, return the
    coefficient operators [c_0, ..., c_(deg)] with P(m) = sum c_k m^k.  The
    solve inverts the Vandermonde matrix over the rationals, which also
    certifies it nonsingular.
    """
    if len(values) != len(nodes) or not values:
        raise ArgumentError("need one value per node")
    inv = interpolation_matrix(nodes)
    products = dict(enumerate(values))
    return [node_combination(products, dict(enumerate(row))) for row in inv]
