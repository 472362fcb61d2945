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

from fractions import Fraction

from .errors import ArgumentError, StructureError
from .indices import binomial
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


def pbw_product(m1, m2):
    """The product of two PBW monomials as {normal monomial: integer coeff}.

    When the last factor of m1 already precedes (or equals) the first factor
    of m2 in canonical order, the product is the concatenation with the
    touching powers merged; otherwise the joined word is rewritten.  The
    result may be shared: treat it as read-only.
    """
    if not m1 or not m2:
        return {m1 + m2: 1}
    (g1, e1), (g2, e2) = m1[-1], m2[0]
    if g1 == g2:
        return {m1[:-1] + ((g1, e1 + e2),) + m2[1:]: 1}
    if _gen_key(g1) < _gen_key(g2):
        return {m1 + m2: 1}
    return _normalize_seq(_seq_from_mono(m1) + _seq_from_mono(m2))


def _mono_sort(item):
    mono = item[0]
    return tuple((_gen_key(g), e) for g, e in mono)


class UglElement(TermMap):
    """Sparse element of U(gl_n) in PBW normal form.

    Text and JSON list the monomials in the order of their generator keys.
    """

    __slots__ = ("rank",)

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

    def _context(self):
        return (self.rank,)

    def _like(self, terms, other=None):
        return UglElement(self.rank, terms)

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
            for mono, c in pbw_product(m1, m2).items()
        )
        return UglElement(self.rank, accumulate({}, products))

    def __pow__(self, k: int) -> UglElement:
        out = UglElement.one(self.rank)
        for _ in range(k):
            out = out * self
        return out

    def filtration_degree(self) -> int:
        return max((sum(e for _, e in m) for m in self.terms), default=0)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in self.sorted_items():
            factors = [
                f"E[{i},{j}]" + (f"^{e}" if e > 1 else "") for (i, j), e in mono
            ]
            body = "*".join(factors)
            if not body:
                parts.append(str(coeff))
            elif coeff == 1:
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
            "terms": [
                {
                    "factors": [[i, j, e] for (i, j), e in mono],
                    "coeff": str(Fraction(c)),
                }
                for mono, c in self.sorted_items()
            ],
        }

    @staticmethod
    def from_json_obj(obj) -> UglElement:
        terms = {}
        for rec in obj["terms"]:
            mono = tuple(((i, j), e) for i, j, e in rec["factors"])
            terms[mono] = Fraction(rec["coeff"])
        return UglElement(obj["rank"], terms)


def E(i: int, j: int, n: int) -> UglElement:
    """The matrix unit E_ij as an element of U(gl_n), 1-based."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise ArgumentError(f"indices ({i},{j}) out of range 1..{n}")
    return UglElement(n, {(((i, j), 1),): 1})


def _cartan_in_split_basis(n: int):
    """Coefficient rows expressing E_ii - I/n over h_1..h_{n-1}.

    Row i-1 holds the h coordinates of the traceless part of E_ii, where
    h_k = E_kk - E_(k+1)(k+1).
    """
    rows = []
    for i in range(1, n + 1):
        rows.append(
            [
                Fraction(n - k, n) if k >= i else Fraction(-k, n)
                for k in range(1, n)
            ]
        )
    return rows


def in_usl(u: UglElement) -> bool:
    """Whether u lies in the subalgebra U(sl_n) of U(gl_n).

    Each PBW monomial splits into off-diagonal factors and a commutative
    Cartan part.  Substituting E_ii = (traceless part) + I/n turns the Cartan
    part into a polynomial in the split basis (h_1..h_{n-1}, I); membership
    means no monomial with an I factor survives.
    """
    n = u.rank
    split = _cartan_in_split_basis(n)
    collected = {}
    for mono, coeff in u.terms.items():
        context = tuple((g, e) for g, e in mono if g[0] != g[1])
        diag = [(g[0], e) for g, e in mono if g[0] == g[1]]
        # expand prod_i (H_i + I/n)^(e_i) as a polynomial in (h_*, I)
        poly = {((0,) * (n - 1), 0): Fraction(1)}
        for i, e in diag:
            h_row = split[i - 1]
            base = {}
            for a in range(e + 1):
                # (I/n)^a * H_i^(e-a), H_i expanded multinomially below
                c_bin = binomial(e, a) * Fraction(1, n) ** a
                for h_exp, c_h in _h_power(h_row, e - a, n).items():
                    key = (h_exp, a)
                    base[key] = base.get(key, Fraction(0)) + c_bin * c_h
            poly = _poly_mul(poly, base)
        accumulate(
            collected,
            (((context, h_exp, i_exp), coeff * c) for (h_exp, i_exp), c in poly.items()),
        )
    return all(i_exp == 0 for (_, _, i_exp) in collected)


def _h_power(h_row, e: int, n: int):
    """(sum_k h_row[k] h_k)^e as {h exponent tuple: coefficient}."""
    poly = {(0,) * (n - 1): Fraction(1)}
    for _ in range(e):
        step = {}
        for exp, c in poly.items():
            for k, coef in enumerate(h_row):
                if coef == 0:
                    continue
                new_exp = list(exp)
                new_exp[k] += 1
                key = tuple(new_exp)
                step[key] = step.get(key, Fraction(0)) + c * coef
        poly = step
    return poly


def _poly_mul(p1, p2):
    products = (
        ((tuple(a + b for a, b in zip(h1, h2)), i1 + i2), c1 * c2)
        for (h1, i1), c1 in p1.items()
        for (h2, i2), c2 in p2.items()
    )
    return accumulate({}, products)
