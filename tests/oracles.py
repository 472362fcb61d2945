"""Independent reference implementations that the tests compare against."""

from fractions import Fraction

from weylmod.indices import falling


def monomial_on_key(P, key, t_exp, d_exp):
    """t^b d^g on the basis vector at key, in Fraction arithmetic: falling
    factorials of the true exponents, with the support boundary rules.
    Returns (coeff, new key) or None."""
    coeff = 1
    out = []
    for f, k, b, g in zip(P.factors, key, t_exp, d_exp):
        c = falling(f.exponent(k), g)
        if c == 0:
            return None
        new = k - g + b
        if f.kind == "poly" and new < 0:
            return None
        if f.kind == "twist" and new > -1:
            return None
        coeff *= c
        out.append(new)
    return coeff, tuple(out)


class RowBasis:
    """The Fraction echelon basis that ``weylmod.linalg.RowBasis`` replaced:
    rows kept in reduced echelon form with unit pivots, and ``reduce``
    returning the exact residual."""

    def __init__(self, ncols):
        self.ncols = ncols
        self.rows = []
        self.pivots = []

    @property
    def dim(self):
        return len(self.rows)

    def reduce(self, vec):
        vec = list(vec)
        for row, p in zip(self.rows, self.pivots):
            f = vec[p]
            if f != 0:
                for c in range(p, self.ncols):
                    vec[c] -= f * row[c]
        return vec

    def insert(self, vec):
        res = self.reduce(vec)
        lead = next((c for c in range(self.ncols) if res[c] != 0), None)
        if lead is None:
            return False
        inv = Fraction(1, 1) / Fraction(res[lead])
        res = [inv * x for x in res]
        for i, row in enumerate(self.rows):
            f = row[lead]
            if f != 0:
                self.rows[i] = [x - f * y for x, y in zip(row, res)]
        at = next((i for i, p in enumerate(self.pivots) if p > lead), len(self.pivots))
        self.rows.insert(at, res)
        self.pivots.insert(at, lead)
        return True

    def contains(self, vec):
        return all(x == 0 for x in self.reduce(vec))
