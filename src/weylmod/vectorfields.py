"""Polynomial and Laurent vector fields: bracket, divergence, generators.

A vector field is a Weyl element whose every monomial has total derivative
degree exactly one, i.e. sum_i f_i d_i with f_i (Laurent) polynomials.
"""

from __future__ import annotations

from .errors import ArgumentError, DomainError, StructureError
from .indices import check_index, check_integer_exponents, mi_unit, mi_units, mi_zero
from .terms import accumulate, pair_terms
from .weyl import WeylElement, WeylTerms, _checked_monomial


class VectorField(WeylTerms):
    """A Weyl element of derivative degree one, as a term map of its own:
    it shares the monomials, text and JSON of ``WeylElement``, and its only
    product is by a scalar (the product of two fields leaves the fields)."""

    __slots__ = ()

    def __init__(self, element: WeylElement):
        """Adopts the map, rank and mode of a checked element whose every
        monomial has derivative degree one."""
        for _, d_exp in element.terms:
            if sum(d_exp) != 1:
                raise StructureError(
                    "vector field monomials must have derivative degree one"
                )
        self._freeze(terms=element.terms, rank=element.rank, laurent=element.laurent)

    _text = staticmethod(WeylElement._text)
    _json_fields = staticmethod(WeylElement._json_fields)

    @property
    def element(self) -> WeylElement:
        """The field as a Weyl element, over the same map."""
        return WeylElement._from_kernel(self.terms, rank=self.rank, laurent=self.laurent)


def bracket(x: VectorField, y: VectorField) -> VectorField:
    """Lie bracket of vector fields, by the closed monomial formula

        [t^a d_i, t^b d_j] = b_i t^(a+b-e_i) d_j - a_j t^(a+b-e_j) d_i

    (d_i = d/dt_i), as the monomial rule of ``pair_terms``.  It agrees
    with the commutator x*y - y*x in the Weyl algebra, whose second-order
    terms cancel.
    """
    if x.rank != y.rank:
        raise StructureError(f"rank mismatch: {x.rank} vs {y.rank}")
    units = mi_units(x.rank)

    def lowered(a, b, k):
        exp = [p + q for p, q in zip(a, b)]
        exp[k] -= 1
        return tuple(exp)

    def monomial_bracket(m1, m2):
        (a, g), (b, h) = m1, m2
        i, j = g.index(1), h.index(1)
        out = []
        if b[i]:
            out.append(((lowered(a, b, i), units[j]), b[i]))
        if a[j]:
            out.append(((lowered(a, b, j), units[i]), -a[j]))
        return out

    terms = accumulate({}, pair_terms(x.terms, y.terms, monomial_bracket))
    # kernel-built: the symbolic iota templates bracket over Poly exponents
    return VectorField._from_kernel(terms, rank=x.rank, laurent=x.laurent or y.laurent)


def divergence(x: VectorField) -> WeylElement:
    """sum_i d_i(f_i) as a polynomial in t, in one pass over the terms of
    x: each term c t^a d_i contributes c a_i t^(a - e_i)."""
    if x.laurent:
        raise DomainError("divergence expects a polynomial-mode field")
    zero = mi_zero(x.rank)

    def terms():
        for (a, g), c in x.terms.items():
            i = g.index(1)
            if a[i]:
                yield (a[:i] + (a[i] - 1,) + a[i + 1:], zero), c * a[i]

    return WeylElement._from_kernel(accumulate({}, terms()), rank=x.rank, laurent=False)


def is_divergence_free(x: VectorField) -> bool:
    """Membership test for the simple subalgebra of divergence-zero fields."""
    return divergence(x).is_zero()


def has_constant_divergence(x: VectorField) -> bool:
    div = divergence(x)
    zero = mi_zero(x.rank)
    return all(key == (zero, zero) for key in div.terms)


def L_op(i: int, j: int, alpha, laurent: bool = False) -> VectorField:
    """The divergence-free generator attached to (i, j, alpha):

        t^alpha ((1+alpha_j) d_i - (1+alpha_i) d_j)   with d_i = t_i * d/dt_i,

    expanded to (1+alpha_j) t^(alpha+e_i) d/dt_i - (1+alpha_i) t^(alpha+e_j) d/dt_j.

    Every alpha entry must be an int.  In polynomial mode the final
    exponents of the surviving terms must be nonnegative (alpha entries of
    -1 at i or j are fine: the matching coefficient vanishes).
    """
    alpha = check_L_args(i, j, alpha)
    terms = _L_terms(i, j, alpha)
    if not laurent:
        for t_exp, _ in terms:
            if any(b < 0 for b in t_exp):
                raise DomainError(
                    f"alpha={alpha} yields a Laurent monomial in polynomial mode"
                )
    return VectorField._from_kernel(terms, rank=len(alpha), laurent=laurent)


def check_L_args(i: int, j: int, alpha) -> tuple:
    """The argument checks of ``L_op``: distinct indices in range and
    integer exponents.  Returns alpha as a tuple."""
    alpha = tuple(alpha)
    n = len(alpha)
    if i == j:
        raise ArgumentError("indices must differ")
    check_index(i, n)
    check_index(j, n)
    check_integer_exponents(alpha)
    return alpha


def _L_terms(i: int, j: int, alpha) -> dict:
    """The terms of L_ij^alpha, unchecked, zero coefficients left out.

    Only sums and products touch alpha, so its entries may also be the
    symbols of ``terms.Poly``: a coefficient that vanishes at some alpha
    then stays a polynomial, and the caller drops it after evaluation.
    """
    units = mi_units(len(alpha))
    terms = {}
    for a, b, sign in ((i, j, 1), (j, i, -1)):
        coeff = sign * (1 + alpha[b - 1])
        if coeff != 0:
            e_a = units[a - 1]
            terms[(tuple(x + e for x, e in zip(alpha, e_a)), e_a)] = coeff
    return terms


def monomial_field(t_exp, i: int, coeff=1, laurent=None) -> VectorField:
    """The field coeff * t^exp * d/dt_i, 1-based i: the index checked, then
    the one monomial (``weyl._checked_monomial``), whose derivative degree
    is one by construction."""
    t_exp = tuple(t_exp)
    return _checked_monomial(VectorField, t_exp, mi_unit(i, len(t_exp)), coeff, laurent)
