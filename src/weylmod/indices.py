"""Exact scalars, multi-indices, and integer weight windows.

Scalars are ``fractions.Fraction`` values (plain ``int`` is accepted
everywhere and compares/hashes equal to the reduced fraction, so the two may
be mixed freely).  Multi-indices are plain tuples of ints whose length is the
ambient rank; every operation checks rank compatibility.
"""

from __future__ import annotations

import itertools
from operator import le
from typing import Iterator

from .errors import ArgumentError, StructureError
from .memo import bounded
from .terms import Frozen

MultiIndex = tuple  # tuple[int, ...]


def check_rank(a: MultiIndex, b: MultiIndex) -> None:
    if len(a) != len(b):
        raise StructureError(f"rank mismatch: {len(a)} vs {len(b)}")


def mi_zero(n: int) -> MultiIndex:
    return (0,) * n


@bounded(16)
def mi_units(n: int) -> tuple:
    """The unit vectors (e_1, ..., e_n), built once per rank."""
    return tuple(tuple(int(k == i) for k in range(n)) for i in range(n))


def check_int(value, name: str) -> None:
    """Refuse a value that is not an int, named in the message.  A bool,
    float or Fraction is refused even when it equals an int."""
    if type(value) is not int:
        raise ArgumentError(f"{name} {value!r} is not an integer")


def check_index(i, hi: int, lo: int = 1) -> None:
    """Refuse an index that is not an int in lo..hi."""
    check_int(i, "index")
    if not lo <= i <= hi:
        raise ArgumentError(f"index {i} out of range {lo}..{hi}")


def mi_unit(i: int, n: int) -> MultiIndex:
    """Unit vector e_i, 1-based."""
    check_index(i, n)
    return mi_units(n)[i - 1]


def check_integer_exponents(alpha) -> None:
    """Refuse a bool, Fraction, float or other non-int exponent: exact stays exact."""
    for a in alpha:
        if type(a) is not int:
            raise ArgumentError(f"exponent {a!r} in {tuple(alpha)} is not an integer")


def mi_add(a: MultiIndex, b: MultiIndex) -> MultiIndex:
    check_rank(a, b)
    return tuple(x + y for x, y in zip(a, b))


def mi_sub(a: MultiIndex, b: MultiIndex) -> MultiIndex:
    check_rank(a, b)
    return tuple(x - y for x, y in zip(a, b))


def mi_geq(a: MultiIndex, b: MultiIndex) -> bool:
    """Componentwise partial order: a >= b iff a_i >= b_i for all i."""
    check_rank(a, b)
    return all(x >= y for x, y in zip(a, b))


def falling(x, k: int):
    """Falling factorial x(x-1)...(x-k+1); exact for int or Fraction x."""
    out = 1
    for j in range(k):
        out *= x - j
    return out


class TruncationBox(Frozen):
    """Inclusive integer window on weight keys with a safety margin.

    The outer box is [lower, upper] componentwise; the inner box shrinks both
    bounds by ``margin``.  Closure computations apply generators only when the
    result stays inside the outer box and judge completeness on the inner box.

    A box is immutable and hashes on (lower, upper, margin), once, at
    construction, so the per-profile memos of ``derham`` and ``structure``
    key on it directly.
    """

    __slots__ = ("lower", "upper", "margin", "inner_lower", "inner_upper", "_hash")

    def __init__(self, lower: MultiIndex, upper: MultiIndex, margin: int = 0):
        lower = tuple(lower)
        upper = tuple(upper)
        for x in (*lower, *upper, margin):
            check_int(x, "box bound or margin")
        check_rank(lower, upper)
        if margin < 0:
            raise ArgumentError("margin must be nonnegative")
        if not mi_geq(upper, lower):
            raise ArgumentError(f"empty box: lower={lower} upper={upper}")
        inner_lo = tuple(x + margin for x in lower)
        inner_hi = tuple(x - margin for x in upper)
        if not mi_geq(inner_hi, inner_lo):
            raise ArgumentError(
                f"empty inner box: lower={lower} upper={upper} margin={margin}"
            )
        self._freeze(lower=lower, upper=upper, margin=margin, inner_lower=inner_lo,
                     inner_upper=inner_hi, _hash=hash((lower, upper, margin)))

    def __reduce__(self):
        return TruncationBox, (self.lower, self.upper, self.margin)

    @property
    def rank(self) -> int:
        return len(self.lower)

    def contains(self, key: MultiIndex) -> bool:
        check_rank(key, self.lower)
        return all(map(le, self.lower, key)) and all(map(le, key, self.upper))

    def contains_inner(self, key: MultiIndex) -> bool:
        check_rank(key, self.inner_lower)
        return all(map(le, self.inner_lower, key)) and all(map(le, key, self.inner_upper))

    def keys(self) -> Iterator[MultiIndex]:
        ranges = [range(lo, hi + 1) for lo, hi in zip(self.lower, self.upper)]
        return itertools.product(*ranges)

    def inner_keys(self) -> Iterator[MultiIndex]:
        ranges = [
            range(lo, hi + 1) for lo, hi in zip(self.inner_lower, self.inner_upper)
        ]
        return itertools.product(*ranges)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncationBox)
            and self.lower == other.lower
            and self.upper == other.upper
            and self.margin == other.margin
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"TruncationBox({self.lower}, {self.upper}, margin={self.margin})"
