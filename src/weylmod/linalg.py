"""Dense exact linear algebra for small matrices.

``rref``, the Fraction reduced echelon form, works on lists of lists of
Fraction/int; the library no longer calls it, and the tests keep it as an
oracle.  ``RowBasis``, the incremental echelon basis behind every closure,
graded subspace and de Rham kernel, is fraction-free: it keeps
primitive integer rows, clears the denominators of a rational input once,
and eliminates by integer cross-multiplication, so its inner loop never
builds a Fraction.  Sizes stay tiny in this library (weight blocks rarely
exceed a few dozen columns), so clarity beats asymptotics.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import gcd, lcm


def rref(rows):
    """Reduced row echelon form.  Returns (new_rows, pivot_columns)."""
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((k for k in range(r, len(rows)) if rows[k][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = Fraction(1, 1) / Fraction(rows[r][c])
        rows[r] = [inv * x for x in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][c] != 0:
                f = rows[k][c]
                rows[k] = [x - f * y for x, y in zip(rows[k], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return [row for row in rows if any(x != 0 for x in row)], pivots


def clear_denominators(vec):
    """An integer multiple of a rational vector: every entry times the lcm of
    the denominators.  Integer entries come back as they are."""
    den = 0  # stays 0 while every entry is an int
    for x in vec:
        if type(x) is not int:
            den = lcm(den or 1, x.denominator)
    if not den:
        return list(vec)
    return [x.numerator * (den // x.denominator) for x in vec]


class RowBasis:
    """Incrementally maintained echelon basis of a subspace, in integers.

    Rows are dense lists over a fixed column count.  Each stored row is a
    primitive integer vector (gcd 1, positive pivot) with a zero in every
    other row's pivot column: the reduced echelon rows of the span, each
    scaled to its unique primitive integer multiple.  ``rows`` gives the
    reduced echelon form itself, with unit pivots.  ``insert`` returns True
    when the vector enlarged the span.
    """

    __slots__ = ("ncols", "_rows", "pivots")

    def __init__(self, ncols: int):
        self.ncols = ncols
        self._rows = []     # primitive integer rows, in pivot order
        self.pivots = []    # pivot column of each row, strictly increasing

    @property
    def dim(self) -> int:
        return len(self._rows)

    @property
    def primitive_rows(self):
        """The stored primitive integer rows, in pivot order: shared, so
        treat them as read-only."""
        return self._rows

    @property
    def rows(self):
        """The reduced row echelon form of the span (Fraction entries)."""
        return [
            [Fraction(x, row[p]) for x in row]
            for row, p in zip(self._rows, self.pivots)
        ]

    def reduce(self, vec):
        """A nonzero integer multiple of the residual of vec modulo the span,
        or the zero vector exactly when vec lies in the span.

        Callers only test the result for zero or insert it, so it is not
        normalised: elimination cross-multiplies and never divides.
        """
        vec = clear_denominators(vec)
        if not self._rows:
            return vec
        for row, p in zip(self._rows, self.pivots):
            f = vec[p]
            if f:
                a = row[p]
                if a == 1:
                    vec = [x - f * y for x, y in zip(vec, row)]
                else:
                    g = gcd(a, f)
                    a //= g
                    f //= g
                    vec = [a * x - f * y for x, y in zip(vec, row)]
        return vec

    def insert(self, vec) -> bool:
        res = self.reduce(vec)
        for lead, x in enumerate(res):
            if x:
                break
        else:
            return False
        g = gcd(*res)
        if res[lead] < 0:
            g = -g
        if g != 1:
            res = [x // g for x in res]
        a = res[lead]
        rows = self._rows
        for i, row in enumerate(rows):
            f = row[lead]
            if f:
                # a > 0 and res is zero at the pivot of row, so that pivot
                # stays positive
                h = gcd(a, f)
                row = [(a // h) * x - (f // h) * y for x, y in zip(row, res)]
                h = gcd(*row)
                rows[i] = [x // h for x in row] if h != 1 else row
        at = bisect_right(self.pivots, lead)
        rows.insert(at, res)
        self.pivots.insert(at, lead)
        return True

    def contains(self, vec) -> bool:
        return not any(self.reduce(vec))


def kernel(columns, height: int) -> RowBasis:
    """The echelon basis of the right kernel of a matrix given by sparse
    columns, each a list of (row, entry) pairs over ``height`` rows.

    Row i of the augmented matrix is (column i | e_i).  A combination of
    those rows has a zero column part exactly when its e part is in the
    kernel, so the echelon rows that pivot in the e part span it; being
    primitive, reduced and zero in the column part, their e parts are the
    kernel's own echelon rows.
    """
    width = height + len(columns)
    augmented = RowBasis(width)
    for i, col in enumerate(columns):
        row = [0] * width
        for pos, c in col:
            row[pos] = c
        row[height + i] = 1
        augmented.insert(row)
    out = RowBasis(len(columns))
    for row, p in zip(augmented._rows, augmented.pivots):
        if p >= height:
            out._rows.append(row[height:])
            out.pivots.append(p - height)
    return out
