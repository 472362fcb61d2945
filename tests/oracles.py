"""Independent reference implementations that the tests compare against."""

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
