"""The three seeded workloads: case generation, the call, and its check.

A case is one top-level public call whose verdict is checked.  The seed
samples the cases; the case counts depend only on ``seconds``, so one seed
always gives the same work.  Counts are sized on a 2-CPU Intel Xeon box so
that a run of ``seconds`` seconds spends about that long inside the cases,
each of which runs twice (see ``child.REPEATS``).

Every expectation comes from the paper's statements as the acceptance
criteria pin them (zero residuals, g = u, h o pi = 0, PASS/FAIL per closure
configuration) and from the closed forms in ``expect``.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import weylmod
from weylmod import (
    Factor,
    TensorOperator,
    TruncationBox,
    WeightModuleP,
    make_hw_module,
    make_wedge_module,
    monomial_field,
)
from weylmod import tensorop

import expect


class Case:
    """One call: ``fn(*args)``, then ``check(result)``.

    ``check`` returns (problem or None, checked count, JSON-ready record).
    Library functions are looked up when the case runs, not when it is
    generated, so a tracer installed in between sees the calls.
    """

    __slots__ = ("label", "fn", "args", "check")

    def __init__(self, label, fn, args, check):
        self.label = label
        self.fn = fn
        self.args = args
        self.check = check


def _api(name):
    """weylmod.<name>, looked up at call time."""

    def call(*args):
        return getattr(weylmod, name)(*args)

    return call


def _verdict(problems, checked, record):
    problem = "; ".join(problems) if problems else None
    if problem is None and checked == 0:
        problem = "checked nothing"
    return problem, checked, record


# -- operator-algebra ----------------------------------------------------------

IOTA_PER_S = 280
CUBIC_PER_S = 22.5
QUARTIC_N3_PER_S = 4.5
QUARTIC_N4_PER_S = 9
MULTI_TERM_SHARE = 0.1
MULTI_TERM_COEFFS = (1, -1, 2, -2, Fraction(1, 2), Fraction(-3, 2))
CUBIC_NODES = [0, 1, 2, 3]
QUARTIC_NODES = [-1, 0, 1, 2, 3]


def _monomial_specs(n, deg):
    return [
        (exp, i)
        for exp in itertools.product(range(deg + 1), repeat=n)
        if sum(exp) <= deg
        for i in range(1, n + 1)
    ]


def _field_spec(rng, monomials):
    """A monomial field, or with MULTI_TERM_SHARE a sum of two or three."""
    if rng.random() >= MULTI_TERM_SHARE:
        exp, i = rng.choice(monomials)
        return [(exp, i, 1)]
    picks = rng.sample(monomials, rng.choice((2, 3)))
    return [(exp, i, rng.choice(MULTI_TERM_COEFFS)) for exp, i in picks]


def _field(spec):
    out = None
    for exp, i, c in spec:
        term = monomial_field(exp, i, c)
        out = term if out is None else out + term
    return out


def _json_spec(spec):
    return [[list(exp), i, str(c)] for exp, i, c in spec]


def _check_iota(residual):
    problems = [] if residual.is_zero() else [f"{len(residual.terms)} residual terms"]
    return _verdict(problems, 1, residual.to_json_obj())


def cubic_case(alpha, i, j):
    """The cubic identity and the interpolation over its node products."""
    residual = weylmod.cubic_identity_residual(alpha, i, j)
    products = [tensorop.cubic_m_product(alpha, i, j, m) for m in CUBIC_NODES]
    return residual, weylmod.interpolate_coefficients(products, CUBIC_NODES)


def quartic_case(alpha, i):
    """The quartic identity and the interpolation over its node products."""
    residual = weylmod.quartic_identity_residual(alpha, i)
    products = [tensorop.quartic_m_product(alpha, i, m) for m in QUARTIC_NODES]
    return residual, weylmod.interpolate_coefficients(products, QUARTIC_NODES)


def _cubic_leading(alpha, i, j):
    """-t^(alpha + e_j - 2 e_i) (x) E_ij^2, written down term by term."""
    n = len(alpha)
    t_exp = tuple(
        a + (s == j - 1) - 2 * (s == i - 1) for s, a in enumerate(alpha)
    )
    return TensorOperator(
        n, {((t_exp, (0,) * n), (((i, j), 2),)): -1}, laurent=True
    )


def _interp_checker(leading):
    def check(result):
        residual, coeffs = result
        problems = []
        if not residual.is_zero():
            problems.append(f"{len(residual.terms)} residual terms")
        if coeffs[3] != leading():
            problems.append("interpolated m^3 coefficient differs")
        record = {
            "residual": residual.to_json_obj(),
            "coeffs": [c.to_json_obj() for c in coeffs],
        }
        return _verdict(problems, 2, record)

    return check


def operator_algebra(rng, seconds):
    n = 3
    monomials = _monomial_specs(n, 3)
    cases = []
    for _ in range(round(IOTA_PER_S * seconds)):
        xs = _field_spec(rng, monomials)
        ys = _field_spec(rng, monomials)
        label = {"kind": "iota-hom", "x": _json_spec(xs), "y": _json_spec(ys)}
        cases.append(Case(label, _api("iota_hom_residual"), (_field(xs), _field(ys)), _check_iota))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    for k in range(round(CUBIC_PER_S * seconds)):
        i, j = pairs[k % len(pairs)]
        alpha = tuple(rng.randint(-2, 3) for _ in range(n))
        label = {"kind": "cubic", "alpha": list(alpha), "i": i, "j": j}
        check = _interp_checker(lambda a=alpha, i=i, j=j: _cubic_leading(a, i, j))
        cases.append(Case(label, cubic_case, (alpha, i, j), check))
    for dim, count in ((3, QUARTIC_N3_PER_S), (4, QUARTIC_N4_PER_S)):
        for k in range(round(count * seconds)):
            i = 1 + k % (dim - 2)
            alpha = tuple(rng.randint(-2, 3) for _ in range(dim))
            label = {"kind": "quartic", "alpha": list(alpha), "i": i}
            check = _interp_checker(lambda a=alpha, i=i: weylmod.special_operator("g", a, i))
            cases.append(Case(label, quartic_case, (alpha, i), check))
    rng.shuffle(cases)
    return cases


# -- lemma-grid ------------------------------------------------------------------

LEMMA_N = 4
# Cases per (profile, lemma) per second; Laurent cases cost about twice as
# much, so fewer of them give the two sides about half the run each.
LEMMA_PER_CELL_PER_S = {"poly": 11, "one-twist": 11, "laurent": 7}
LAURENT_SHIFTS = tuple(
    Fraction(s) for s in ("1/2", "1/3", "2/3", "3/2", "-1/2", "5/3", "-7/5", "3/4")
)


def _lemma_profiles(n):
    """(name, key box, module factory) per standard profile.

    Key radii: poly [0, 2]^n, one-twist [-3, -1] x [0, 3]^(n-1), Laurent
    [-1, 1]^n.  With LEMMA_PER_CELL_PER_S the integer-key profiles and the
    Laurent profile each take about half of the run, and the Laurent
    h-annihilates cases are the slowest.
    """
    return [
        ("poly", TruncationBox((0,) * n, (2,) * n), lambda lam: WeightModuleP.polynomial(n)),
        (
            "one-twist",
            TruncationBox((-3,) + (0,) * (n - 1), (-1,) + (3,) * (n - 1)),
            lambda lam: WeightModuleP([Factor("twist")] + [Factor("poly")] * (n - 1)),
        ),
        ("laurent", TruncationBox((-1,) * n, (1,) * n), lambda lam: WeightModuleP.laurent(n, lam)),
    ]


def _lemma_checker(expected):
    def check(report):
        problems = []
        if not report["pass"]:
            problems.append(f"{len(report['failures'])} failing evaluations")
        if report["checked"] != expected:
            problems.append(f"checked {report['checked']}, expected {expected}")
        return _verdict(problems, report["checked"], report)

    return check


def lemma_grid(rng, seconds):
    """Fixed case counts per (profile, lemma), equal per (i, r) inside it;
    the Laurent shifts go round the list.  The seed draws alpha and the
    order."""
    n = LEMMA_N
    grid = [(i, r) for i in range(1, n - 1) for r in range(2, n)]
    lemmas = (
        ("g-equals-u", _api("verify_g_equals_u"), expect.g_equals_u_checked),
        ("h-annihilates", _api("verify_h_annihilates"), expect.h_annihilates_checked),
    )
    cases = []
    for profile, key_box, module in _lemma_profiles(n):
        per_cell = round(LEMMA_PER_CELL_PER_S[profile] * seconds)
        for kind, fn, expected in lemmas:
            shifts = [LAURENT_SHIFTS[k % len(LAURENT_SHIFTS)] for k in range(per_cell)]
            rng.shuffle(shifts)
            for k in range(per_cell):
                i, r = grid[k % len(grid)]
                base = [0] * n
                base[i - 1] += 2
                base[i + 1] -= 1
                alpha = tuple(b + rng.randint(0, 2) for b in base)
                P = module(shifts[k])
                label = {
                    "kind": kind,
                    "profile": repr(P),
                    "alpha": list(alpha),
                    "i": i,
                    "r": r,
                }
                check = _lemma_checker(expected(P, r, key_box))
                cases.append(Case(label, fn, (alpha, i, P, r, key_box), check))
    rng.shuffle(cases)
    return cases


# -- closure-evidence --------------------------------------------------------------

CLOSURE_ROUND_S = 20
LAURENT_TRANSLATION = 3

# Nontrivial layers of the five inventories, as criterion 10 pins them.
INVENTORY_NONTRIVIAL = {
    ("A2", 0): ["P/constants"],
    ("A2F", 0): ["deltaP"],
    ("A2", 1): ["P/constants", "P/constants (shifted)"],
    ("A3", 1): ["P/constants", "image(2)"],
    ("A3", 2): ["P/constants (shifted)", "image(2)"],
}


EVIDENCE = _api("evidence_simplicity")


def _cube(lo, hi, n, margin=0):
    return TruncationBox((lo,) * n, (hi,) * n, margin=margin)


def _evidence_checker(expected_pass, expected_seeds, image_seeds=None):
    """PASS/FAIL per configuration and the closed-form seed count.

    On a FAIL configuration every de Rham image seed must fail, and only
    those: their closures stay inside the image.
    """

    def check(report):
        problems = []
        if report["pass"] != expected_pass:
            problems.append(f"verdict {report['pass']}, expected {expected_pass}")
        seeds = report["seeds"]
        if len(seeds) != expected_seeds:
            problems.append(f"{len(seeds)} seeds, expected {expected_seeds}")
        if image_seeds is not None:
            failing = [s for s in seeds if not s["pass"]]
            if len(failing) != image_seeds:
                problems.append(f"{len(failing)} failing seeds, expected {image_seeds}")
            if any(s["kind"] != "submodule-row" for s in failing):
                problems.append("a failing seed is not a de Rham image row")
        return _verdict(problems, len(seeds), report)

    return check


def _inventory_checker(P, r, box, nontrivial):
    layers = expect.inventory_layers(P, r, box)

    def check(report):
        problems = []
        if not report["pass"]:
            problems.append("a candidate match failed")
        if report["nontrivial"] != nontrivial:
            problems.append(f"nontrivial layers {report['nontrivial']}")
        got = [(layer["name"], layer["totalDim"]) for layer in report["layers"]]
        if got != layers:
            problems.append(f"layers {got}, expected {layers}")
        return _verdict(problems, sum(total for _, total in got), report)

    return check


def _closure_round(rng):
    """One round: every configuration once, with its repeat count."""
    A2 = WeightModuleP.polynomial(2)
    A3 = WeightModuleP.polynomial(3)
    L2 = WeightModuleP.laurent(2)
    L3 = WeightModuleP.laurent(3)
    T2 = WeightModuleP.twisted(2)
    T3 = WeightModuleP.twisted(3)
    one_twist3 = WeightModuleP([Factor("twist"), Factor("poly"), Factor("poly")])
    adjoint = make_hw_module((2,), 2)

    def shift():
        return rng.randint(-LAURENT_TRANSLATION, LAURENT_TRANSLATION)

    def ln(P, box):
        label = {"kind": "simplicity", "ambient": "Ln", "r": 2, "P": repr(P),
                 "box": [list(box.lower), list(box.upper)]}
        seeds = expect.image_dim_total(P, 2, box)
        check = _evidence_checker(True, seeds)
        return Case(label, EVIDENCE, (P, None, "Ln", box, 2), check)

    def delta_p(P, box):
        label = {"kind": "simplicity", "ambient": "deltaP", "P": repr(P),
                 "box": [list(box.lower), list(box.upper)]}
        check = _evidence_checker(True, expect.delta_p_total(P, box))
        return Case(label, EVIDENCE, (P, None, "deltaP", box), check)

    def adjoint_f(P, box):
        label = {"kind": "simplicity", "ambient": "F", "M": "hw:(2,)", "P": repr(P),
                 "box": [list(box.lower), list(box.upper)]}
        seeds = expect.module_ambient_total(P, expect.sym2_weights(2), box)
        check = _evidence_checker(True, seeds)
        return Case(label, EVIDENCE, (P, adjoint, "F", box), check)

    def wedge_f(P, r, box):
        n = P.rank
        label = {"kind": "simplicity", "ambient": "F", "M": f"wedge({n},{r})",
                 "P": repr(P), "box": [list(box.lower), list(box.upper)]}
        seeds = expect.module_ambient_total(P, expect.wedge_weights(n, r), box)
        image = expect.image_dim_total(P, r, box)
        check = _evidence_checker(False, seeds, image_seeds=image)
        M = make_wedge_module(n, r)
        return Case(label, EVIDENCE, (P, M, "F", box), check)

    def inventory(tag, P, r, box):
        label = {"kind": "inventory", "module": tag, "r": r,
                 "box": [list(box.lower), list(box.upper)]}
        check = _inventory_checker(P, r, box, INVENTORY_NONTRIVIAL[(tag, r)])
        return Case(label, _api("subquotient_inventory"), (P, r, box), check)

    def laurent_box(lo, hi, n):
        t = shift()
        return _cube(t + lo, t + hi, n, margin=2)

    # Case latencies scatter by a tenth around their mean on a busy host, so
    # the counts put the median inside the block of 21 identical n=2 FAIL
    # closures and the tail (eleventh slowest) inside the block of 11
    # identical n=3 FAIL closures, away from the block edges.
    cases = [
        ln(L3, laurent_box(-2, 3, 3)),
        ln(one_twist3, TruncationBox((-6, 0, 0), (-1, 5, 5), margin=2)),
    ]
    cases += [ln(A3, _cube(0, 4, 3, margin=2)) for _ in range(2)]
    cases += [ln(L3, laurent_box(-2, 2, 3)) for _ in range(2)]
    cases += [adjoint_f(A2, _cube(0, 5, 2, margin=2)) for _ in range(2)]
    cases += [adjoint_f(L2, laurent_box(-3, 2, 2)) for _ in range(2)]
    for P in (T2, T3):
        cases += [delta_p(P, _cube(-6, -1, P.rank, margin=2)) for _ in range(2)]
    cases += [wedge_f(A2, 1, _cube(0, 5, 2, margin=2)) for _ in range(21)]
    cases += [wedge_f(A3, 1, _cube(0, 4, 3, margin=2)) for _ in range(11)]
    cases += [wedge_f(A3, 2, _cube(0, 4, 3, margin=2))]
    inventories = [
        ("A2", A2, 0, _cube(0, 4, 2)),
        ("A2F", T2, 0, _cube(-4, -1, 2)),
        ("A2", A2, 1, _cube(0, 4, 2)),
        ("A3", A3, 1, _cube(0, 3, 3)),
        ("A3", A3, 2, _cube(0, 3, 3)),
    ]
    for _ in range(4):
        cases += [inventory(*spec) for spec in inventories]
    return cases


def closure_evidence(rng, seconds):
    cases = []
    for _ in range(max(1, round(seconds / CLOSURE_ROUND_S))):
        cases += _closure_round(rng)
    rng.shuffle(cases)
    return cases


WORKLOADS = {
    "operator-algebra": operator_algebra,
    "lemma-grid": lemma_grid,
    "closure-evidence": closure_evidence,
}


def make_cases(workload, seed, seconds):
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), seconds)
