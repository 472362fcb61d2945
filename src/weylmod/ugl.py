"""U(gl_n) with PBW normal form over the matrix-unit basis.

A PBW monomial is a product of matrix units E_ij in the canonical order:
lowering generators (i > j) first, then diagonal ones, then raising
generators (i < j), each block sorted lexicographically by (i, j).  Products
are rewritten to this form by adjacent transpositions with commutator
insertion; rewriting terminates because each insertion lowers the filtration
degree.  The rewriting memo is filled idempotently, so concurrent readers
are safe.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import DomainError, StructureError
from .indices import check_index
from .terms import SCALARS, TermMap, accumulate

# monomials are tuples of ((i, j), exponent) pairs in canonical order


def _gen_key(g):
    i, j = g
    block = 0 if i > j else (1 if i == j else 2)
    return (block, i, j)


def _mono_from_seq(seq):
    mono = []
    for g in seq:
        if mono and mono[-1][0] == g:
            mono[-1] = (g, mono[-1][1] + 1)
        else:
            mono.append((g, 1))
    return tuple(mono)


def _seq_from_mono(mono):
    seq = []
    for g, e in mono:
        seq.extend([g] * e)
    return tuple(seq)


_NORMAL_CACHE: dict = {}


def _normalize_seq(seq):
    """Rewrite a generator word into {normal monomial: integer coefficient}."""
    cached = _NORMAL_CACHE.get(seq)
    if cached is not None:
        return cached
    spot = None
    for k in range(len(seq) - 1):
        if _gen_key(seq[k]) > _gen_key(seq[k + 1]):
            spot = k
            break
    if spot is None:
        result = {_mono_from_seq(seq): 1}
    else:
        (a, b), (c, e) = seq[spot], seq[spot + 1]
        swapped = seq[:spot] + (seq[spot + 1], seq[spot]) + seq[spot + 2:]
        result = dict(_normalize_seq(swapped))
        # [E_ab, E_ce] = delta_bc E_ae - delta_ea E_cb
        corrections = []
        if b == c:
            corrections.append((1, (a, e)))
        if e == a:
            corrections.append((-1, (c, b)))
        for coeff, gen in corrections:
            sub = _normalize_seq(seq[:spot] + (gen,) + seq[spot + 2:])
            accumulate(result, ((mono, coeff * c2) for mono, c2 in sub.items()))
    _NORMAL_CACHE[seq] = result
    return result


@lru_cache(maxsize=4096)
def pbw_product(m1, m2):
    """The product of two PBW monomials as a tuple of (normal monomial,
    integer coeff) pairs, read from a bounded memo.

    When the last factor of m1 already precedes (or equals) the first factor
    of m2 in canonical order, the product is the concatenation with the
    touching powers merged; otherwise the joined word is rewritten.
    """
    if not m1 or not m2:
        return ((m1 + m2, 1),)
    (g1, e1), (g2, e2) = m1[-1], m2[0]
    if g1 == g2:
        return ((m1[:-1] + ((g1, e1 + e2),) + m2[1:], 1),)
    if _gen_key(g1) < _gen_key(g2):
        return ((m1 + m2, 1),)
    return tuple(_normalize_seq(_seq_from_mono(m1) + _seq_from_mono(m2)).items())


def pbw_text(mono) -> str:
    """A PBW monomial as ``E[i,j]^e`` factors; empty for the unit."""
    return "*".join(f"E[{i},{j}]" + (f"^{e}" if e > 1 else "") for (i, j), e in mono)


def pbw_json(mono) -> list:
    """A PBW monomial as its [i, j, e] factors."""
    return [[i, j, e] for (i, j), e in mono]


def _mono_sort(item):
    mono = item[0]
    return tuple((_gen_key(g), e) for g, e in mono)


class UglElement(TermMap):
    """Sparse element of U(gl_n) in PBW normal form.

    Text and JSON list the monomials in the order of their generator keys.
    """

    __slots__ = ("rank",)

    _fields = ("rank",)
    _sort_key = staticmethod(_mono_sort)

    def __init__(self, rank: int, terms=None):
        cleaned = {}
        if terms:
            for mono, coeff in terms.items():
                if coeff == 0:
                    continue
                for (i, j), e in mono:
                    if not (1 <= i <= rank and 1 <= j <= rank) or e <= 0:
                        raise StructureError(f"bad PBW factor E[{i},{j}]^{e}")
                keys = [_gen_key(g) for g, _ in mono]
                if any(a >= b for a, b in zip(keys, keys[1:])):
                    raise StructureError(f"monomial not in canonical order: {mono}")
                cleaned[tuple(mono)] = coeff
        self._set(cleaned, rank=rank)

    @classmethod
    def zero(cls, rank: int) -> UglElement:
        return cls(rank, {})

    @classmethod
    def one(cls, rank: int) -> UglElement:
        return cls(rank, {(): 1})

    def __mul__(self, other):
        if isinstance(other, SCALARS):
            return self._scale(other)
        self._check_same(other)
        products = (
            (mono, c1 * c2 * c)
            for m1, c1 in self.terms.items()
            for m2, c2 in other.terms.items()
            for mono, c in pbw_product(m1, m2)
        )
        return self._like(accumulate({}, products))

    def __pow__(self, k: int) -> UglElement:
        if k < 0:
            raise DomainError("negative powers are not defined")
        out = UglElement.one(self.rank)
        for _ in range(k):
            out = out * self
        return out

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


def in_usl(u: UglElement) -> bool:
    """Whether u lies in the subalgebra U(sl_n) of U(gl_n).

    Each PBW monomial is (lowering)(Cartan)(raising) with a commutative
    Cartan part, a polynomial in E_11..E_nn.  In the coordinates h_k =
    E_kk - E_(k+1)(k+1) and the central I = sum_i E_ii, U(gl_n) is
    U(sl_n)[I], so u lies in U(sl_n) exactly when no Cartan part depends on
    I.  The derivation sum_i d/dE_ii kills every h_k and sends I to n: it is
    n d/dI, and u lies in U(sl_n) exactly when it kills u.
    """
    derived = {}
    for mono, coeff in u.terms.items():
        accumulate(
            derived,
            (
                (mono[:k] + (((g, e - 1),) if e > 1 else ()) + mono[k + 1:], coeff * e)
                for k, (g, e) in enumerate(mono)
                if g[0] == g[1]
            ),
        )
    return not derived
