"""U(gl_n) with PBW normal form over the matrix-unit basis.

A PBW monomial is a product of matrix units E_ij in the canonical order:
lowering generators (i > j) first, then diagonal ones, then raising
generators (i < j), each block sorted lexicographically by (i, j).  A
product is built by multiplying a normal monomial on the left by matrix
units: a power that does not follow the first factor is prepended or
raises its exponent, and any other unit g moves past that whole factor h^e
in one step, g h^e = sum_k C(e, k) h^(e-k) D^k(g) with D(x) = [x, h],
which has at most three terms for h off the diagonal.  That step recurses
only into the factors after h^e and into products of lower filtration
degree, so a long power costs no recursion depth.  The nontrivial left
products are kept in a memo of fixed size that evicts its oldest entry
first.
"""

from __future__ import annotations

from math import comb, inf

from .errors import ArgumentError, StructureError
from .indices import check_index
from .memo import bounded, register
from .terms import RankTerms, TermMap, accumulate

# monomials are tuples of ((i, j), exponent) pairs in canonical order


def _gen_key(g):
    i, j = g
    block = 0 if i > j else (1 if i == j else 2)
    return (block, i, j)


# (matrix unit, normal monomial) -> {normal monomial: integer coefficient}
_NORMAL_CACHE: dict = register(f"{__name__}._NORMAL_CACHE", {})
_NORMAL_CACHE_SIZE = 8192


def _left_mul(g, mono):
    """The product E_g * mono as {normal monomial: integer coefficient},
    a shared map that callers only read."""
    if not mono:
        return {((g, 1),): 1}
    h, e = mono[0]
    if g == h:
        return {((g, e + 1),) + mono[1:]: 1}
    if _gen_key(g) < _gen_key(h):
        return {((g, 1),) + mono: 1}
    cached = _NORMAL_CACHE.get((g, mono))
    if cached is not None:
        return cached
    # g h^e = sum_k C(e, k) h^(e-k) D^k(g) with D(x) = [x, h]: right and
    # left multiplication by h differ by D, and the two commute.  D^k(g) is
    # a combination of units: zero past k = 2 when h is off the diagonal, a
    # multiple of g when h is diagonal.
    rest = mono[1:]
    result = {}
    term = {g: 1}
    for k in range(e + 1):
        if not term:
            break
        scale = comb(e, k)
        for u, c in term.items():
            for m, c2 in _left_mul(u, rest).items():
                power = _left_mul_power(h, e - k, m)
                accumulate(result, ((m2, scale * c * c2 * c3) for m2, c3 in power.items()))
        term = _bracket(term, h)
    if len(_NORMAL_CACHE) >= _NORMAL_CACHE_SIZE:
        del _NORMAL_CACHE[next(iter(_NORMAL_CACHE))]
    _NORMAL_CACHE[(g, mono)] = result
    return result


def _left_mul_power(h, e, mono):
    """E_h^e * mono as {normal monomial: integer coefficient}, a map that
    callers only read: a power that merges with the first factor or
    precedes it is written down, a single unit is ``_left_mul``, and any
    other power is multiplied in one unit at a time."""
    if e == 0:
        return {mono: 1}
    if not mono or _gen_key(h) < _gen_key(mono[0][0]):
        return {((h, e),) + mono: 1}
    if mono[0][0] == h:
        return {((h, mono[0][1] + e),) + mono[1:]: 1}
    if e == 1:
        return _left_mul(h, mono)
    combo = {mono: 1}
    for _ in range(e):
        combo = _left_mul_all(h, 1, combo)
    return combo


def _bracket(combo, h):
    """[x, E_h] for x a combination {unit: coefficient} of matrix units,
    by [E_ab, E_cd] = delta_bc E_ad - delta_da E_cb."""
    c, d = h
    pairs = []
    for (a, b), coeff in combo.items():
        if b == c:
            pairs.append(((a, d), coeff))
        if d == a:
            pairs.append(((c, b), -coeff))
    return accumulate({}, pairs)


def _left_mul_all(g, e, combo):
    """E_g^e * combo, a map {normal monomial: coefficient}, as a new map:
    the one left fold, each monomial multiplied by ``_left_mul_power``."""
    out = {}
    for mono, c in combo.items():
        accumulate(out, ((m, c * c2) for m, c2 in _left_mul_power(g, e, mono).items()))
    return out


@bounded(4096)
def pbw_product(m1, m2):
    """The product of two PBW monomials as a tuple of (normal monomial,
    integer coeff) pairs, read from a bounded memo: the powers of m1 are
    multiplied into m2 on the left, last factor first."""
    result = {m2: 1}
    for g, e in reversed(m1):
        result = _left_mul_all(g, e, result)
    return tuple(result.items())


def pbw_text(mono) -> str:
    """A PBW monomial as ``E[i,j]^e`` factors; empty for the unit."""
    return "*".join(f"E[{i},{j}]" + (f"^{e}" if e > 1 else "") for (i, j), e in mono)


def pbw_json(mono) -> list:
    """A PBW monomial as its [i, j, e] factors."""
    return [[i, j, e] for (i, j), e in mono]


def _mono_sort(item):
    mono = item[0]
    return tuple((_gen_key(g), e) for g, e in mono)


class UglElement(RankTerms):
    """Sparse element of U(gl_n) in PBW normal form.

    Text and JSON list the monomials in the order of their generator keys.
    """

    __slots__ = ()

    _sort_key = staticmethod(_mono_sort)

    def __init__(self, rank: int, terms=None):
        """Checks outside input by ``_checked_terms`` and ``_check_key``."""
        self._freeze(terms=self._checked_terms(terms, rank), rank=rank)

    @staticmethod
    def _check_key(mono, rank: int) -> None:
        """The check of one PBW monomial of outside input: int indices in
        range and int exponents >= 1 by ``check_index``, in canonical order."""
        for (i, j), e in mono:
            try:
                check_index(i, rank)
                check_index(j, rank)
                check_index(e, inf)
            except ArgumentError as error:
                raise StructureError(f"bad PBW factor E[{i},{j}]^{e}") from error
        keys = [_gen_key(g) for g, _ in mono]
        if any(a >= b for a, b in zip(keys, keys[1:])):
            raise StructureError(f"monomial not in canonical order: {mono}")

    @classmethod
    def zero(cls, rank: int) -> UglElement:
        return cls(rank, {})

    @classmethod
    def one(cls, rank: int) -> UglElement:
        return cls(rank, {(): 1})

    # perfbench's tracer wraps this in the class's own namespace
    __mul__ = TermMap.__mul__

    _monomial_product = staticmethod(pbw_product)

    _text = staticmethod(pbw_text)

    def to_json_obj(self):
        return {
            "rank": self.rank,
            "terms": self._json_terms(lambda m: {"factors": pbw_json(m)}),
        }


def E(i: int, j: int, n: int) -> UglElement:
    """The matrix unit E_ij as an element of U(gl_n), 1-based."""
    check_index(i, n)
    check_index(j, n)
    return UglElement(n, {(((i, j), 1),): 1})

