"""The all-alpha certificates: every case of every symbolic template family
builds a template with no rows.

Evaluation keeps distinct rows distinct, so a template with no rows is a
residual (or table) that is zero at every integer alpha:

- iota: iota([x, y]) = [iota(x), iota(y)] for x = t^a d_i, y = t^b d_j at
  every (i, j) and n = 2..5, so for every pair of Laurent fields at those
  n, by bilinearity;
- residual: the cubic and quartic interpolation identities at n <= 5,
  whose node products have degree 3 (cubic) or 4 (quartic) in m, below the
  node count, so the weights read their m^3 coefficient;
- lemma: g = u and h o pi = 0 at n <= 6, for every P;
- equivariance: pi o iota(X) = iota(X) o pi on F(P, wedge^r) for X =
  t^a d_i at every (i, r), r = 0..n-1, and n = 2..6, so for every field of
  S_n and every P at those n, by linearity.

``FAMILIES`` is read by the test and by the CI step that logs each
family's case count, row count and build time.
"""

import itertools

import pytest

from weylmod import derham, memo, tensorop

FAMILIES = {
    "iota": (
        tensorop._iota_template,
        [((n, i, j), None) for n in range(2, 6)
         for i, j in itertools.product(range(1, n + 1), repeat=2)],
    ),
    "residual": (
        tensorop._residual_template,
        [(("cubic", n, i, j), 3) for n in range(2, 6)
         for i, j in itertools.permutations(range(1, n + 1), 2)]
        + [(("quartic", n, i, i + 2), 4) for n in range(3, 6) for i in range(1, n - 1)],
    ),
    "lemma": (
        derham._lemma_template,
        [((check, n, i, r), None) for n in range(3, 7)
         for check in ("g-equals-u", "h-annihilates")
         for i in range(1, n - 1) for r in range(2, n)],
    ),
    "equivariance": (
        derham._equivariance_template,
        [((n, i, r), None) for n in range(2, 7) for i in range(1, n + 1) for r in range(n)],
    ),
}


def built(family):
    """Build every template of a family from an empty memo, in case order;
    yields (rows, degree in m), the degree None outside the residuals."""
    builder, cases = FAMILIES[family]
    memo.clear()
    for args, degree in cases:
        template = builder(*args)
        if degree is not None:
            template, degree = template
        yield template[1], degree


@pytest.mark.parametrize(
    "family, count", [("iota", 54), ("residual", 46), ("lemma", 60), ("equivariance", 90)]
)
def test_every_template_has_no_rows(family, count):
    builder, cases = FAMILIES[family]
    for (args, degree), got in zip(cases, built(family), strict=True):
        assert got == ((), degree), args
    assert len(cases) == len({args for args, _ in cases}) == count
