"""Named verification checks shared by the command line and the test suite.

Every check is a plain top-level function returning the JSON-ready record
of ``_record``; a check passes only when it looked at something and nothing
failed, and failures carry enough context to reproduce.  Randomized checks
draw from a seed (SHENWEYL_SEED or the given value), so identical
configurations produce identical reports.
"""

from __future__ import annotations

import itertools
import math
import os
import random
from fractions import Fraction

from .derham import (
    _derham_table,
    _equivariance_image,
    _table_image,
    ambient_labels,
    partial_span,
    pi_kernel,
    verify_g_equals_u,
    verify_h_annihilates,
)
from .errors import ArgumentError
from .indices import TruncationBox, check_index, mi_sub, mi_unit
from .structure import (
    GeneratorSet,
    _delta_dim,
    closure,
    evidence_simplicity,
)
from .tensorop import (
    CUBIC_NODES,
    QUARTIC_NODES,
    _at,
    _left_terms,
    _residual_template,
    _right_terms,
    _special_args,
    iota_hom_residual,
)
from .vectorfields import check_L_args, monomial_field
from .weightmod import (
    DEFAULT_SHIFT,
    POLY,
    TWIST,
    Factor,
    FVector,
    WeightModuleP,
    compose,
    make_wedge_module,
)


DEFAULT_SEED = 20240801
# the failures a report lists at most
MAX_FAILURES = 10


def get_seed(seed=None) -> int:
    if seed is not None:
        return int(seed)
    return int(os.environ.get("SHENWEYL_SEED", DEFAULT_SEED))


def _record(check, params, checked, failures, **extra):
    """The report of one check: the first MAX_FAILURES failures, and a pass
    only when something was checked and nothing failed.  ``extra`` adds
    the check's own counters."""
    return {
        "check": check,
        "params": params,
        "checked": checked,
        "failures": failures[:MAX_FAILURES],
        "pass": checked > 0 and not failures,
        **extra,
    }


def _monomial_fields(n: int, deg: int):
    """(exponent, index, field) of every monomial field t^exp d_i of degree
    <= deg, each field built once."""
    exps = itertools.product(range(deg + 1), repeat=n)
    return [
        (exp, i, monomial_field(exp, i))
        for exp in exps
        if sum(exp) <= deg
        for i in range(1, n + 1)
    ]


def check_iota_hom(n: int, deg: int = 4):
    """Residual of the embedding on all monomial field pairs up to degree."""
    fields = _monomial_fields(n, deg)
    failures = []
    checked = 0
    residual_terms = 0
    for (a_exp, i, x), (b_exp, j, y) in itertools.product(fields, repeat=2):
        checked += 1
        residual = iota_hom_residual(x, y)
        if not residual.is_zero():
            residual_terms += len(residual.terms)
            failures.append({"x": [list(a_exp), i], "y": [list(b_exp), j]})
    return _record("iota-hom", {"n": n, "deg": deg}, checked, failures,
                   residual_terms=residual_terms)


def _check_identity(kind, n, lo, hi, cases, nodes):
    """One interpolation identity over every alpha in the window.

    ``cases`` lists (index args, j, lower bound on alpha); the callers give
    each case the argument checks of the public residual function once, on
    its lower bound, since every alpha of the window is a tuple of ints.
    An alpha passes when its case is certified (its node product has degree
    below the node count in m) and its residual vanishes, both read off the
    template of (kind, n, i, j) that the public residual functions read
    (``tensorop._residual_template``), and, above the lower bound, when
    every factor at the nodes is polynomial; the right factors do not
    depend on alpha, so they are checked once per case.  A template with
    no rows is zero at every alpha, so it is read once and not evaluated.
    """
    failures = []
    checked = residual_terms = membership_checked = 0
    for args, j, lower in cases:
        i = args[0]
        identity, degree = _residual_template(kind, n, i, j)
        right_polynomial = all(_polynomial(_right_terms(kind, n, i, j, m)) for m in nodes)
        for alpha in itertools.product(range(lo, hi + 1), repeat=n):
            checked += 1
            ok = degree < len(nodes)
            if identity[1]:
                residual = _at(identity, alpha)
                residual_terms += len(residual.terms)
                ok = ok and residual.is_zero()
            if ok and all(a >= b for a, b in zip(alpha, lower)):
                membership_checked += 1
                ok = right_polynomial and all(
                    _polynomial(_left_terms(i, j, alpha, m)) for m in nodes
                )
            if not ok:
                failures.append({"alpha": list(alpha), **dict(zip("ij", args))})
    return _record(f"eq-{kind}", {"n": n, "window": [lo, hi]}, checked, failures,
                   residual_terms=residual_terms, polynomialWitnesses=membership_checked)


def _polynomial(terms) -> bool:
    """Whether no t exponent of a field's terms is negative (``L_op``'s check)."""
    return all(b >= 0 for t_exp, _ in terms for b in t_exp)


def _lower_bound(n: int, i: int, j: int):
    """2 e_i - e_j, the corner of the admissible alpha windows: above it
    the identities have polynomial factors and the lemmas apply."""
    return mi_sub(tuple(2 * x for x in mi_unit(i, n)), mi_unit(j, n))


def check_eq_cubic(n: int, lo: int = -2, hi: int = 3, pairs=None):
    """The four-point identity for t^(alpha+e_j-2e_i) (x) E_ij^2."""
    if pairs is None:
        pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    cases = [((i, j), j, check_L_args(j, i, _lower_bound(n, i, j))) for i, j in pairs]
    return _check_identity("cubic", n, lo, hi, cases, CUBIC_NODES)


def check_eq_quartic(n: int, lo: int = -2, hi: int = 3, i_list=None):
    """The five-point identity recovering the g operator."""
    if i_list is None:
        i_list = list(range(1, n - 1))
    for i in i_list:
        check_index(i, n - 2)
    cases = [((i,), i + 2, _special_args("g", _lower_bound(n, i, i + 2), i)) for i in i_list]
    return _check_identity("quartic", n, lo, hi, cases, QUARTIC_NODES)


def standard_profiles(n: int, shift=DEFAULT_SHIFT):
    """The three weight-module profiles used throughout the evidence suites."""
    return {
        "poly": WeightModuleP.polynomial(n),
        "laurent": WeightModuleP.laurent(n, Fraction(shift)),
        "one-twist": WeightModuleP([Factor(TWIST)] + [Factor(POLY)] * (n - 1)),
    }


def _profile_key_box(P: WeightModuleP, radius: int) -> TruncationBox:
    """The keys within radius that each line of P supports."""
    bounds = {POLY: (0, radius), TWIST: (-radius, -1)}
    lower, upper = zip(*(bounds.get(f.kind, (-radius, radius)) for f in P.factors))
    return TruncationBox(lower, upper)


def _check_lemma(check, lemma, n, delta_hi, key_radius, profiles, shift):
    """Run one operator lemma over every profile, degree, index and alpha in
    the admissible window."""
    if profiles is None:
        profiles = standard_profiles(n, shift)
    sub = []
    for name, P in profiles.items():
        key_box = _profile_key_box(P, key_radius)
        for r in range(2, n):
            for i in range(1, n - 1):
                base = _lower_bound(n, i, i + 2)
                for delta in itertools.product(range(delta_hi + 1), repeat=n):
                    alpha = tuple(b + d for b, d in zip(base, delta))
                    report = lemma(alpha, i, P, r, key_box)
                    if not report["checked"]:
                        # an empty case is a bad key box, not a lemma failure
                        raise ArgumentError(
                            f"the configuration leaves nothing to check in {check}"
                            f" on the {name} profile (keyRadius {key_radius})"
                        )
                    sub.append(
                        {
                            "profile": name,
                            "r": r,
                            "i": i,
                            "alpha": list(alpha),
                            "checked": report["checked"],
                            "pass": report["pass"],
                        }
                    )
    return _record(
        check, {"n": n, "deltaWindow": delta_hi, "keyRadius": key_radius},
        sum(s["checked"] for s in sub), [s for s in sub if not s["pass"]],
        cases=len(sub),
    )


def check_g_u(n: int, delta_hi: int = 2, key_radius: int = 3, profiles=None,
              shift=DEFAULT_SHIFT):
    """g = u on every p (x) v over the admissible alpha window."""
    return _check_lemma(
        "g-equals-u", verify_g_equals_u, n, delta_hi, key_radius, profiles, shift
    )


def check_h_ln(n: int, delta_hi: int = 2, key_radius: int = 3, profiles=None,
               shift=DEFAULT_SHIFT):
    """h annihilates the de Rham image over the admissible alpha window."""
    return _check_lemma(
        "h-annihilates", verify_h_annihilates, n, delta_hi, key_radius, profiles, shift
    )


def _random_fvector(rng, P, M, nterms=3, radius=3):
    """Random terms with keys drawn from the profile's key box."""
    box = _profile_key_box(P, radius)
    terms = {}
    for _ in range(nterms):
        key = tuple(rng.randint(lo, hi) for lo, hi in zip(box.lower, box.upper))
        terms[(key, rng.randrange(M.dim))] = rng.randint(-4, 4)
    return FVector(P, M, terms)


def check_derham(n: int, count: int = 100, seed=None, shift=DEFAULT_SHIFT):
    """Composite maps vanish; kernels at degree zero match the factor
    profile; the maps intertwine the generator action.

    Both the composite and the intertwining are read off tables: pi o pi
    is one constant table per degree (``compose`` of two de Rham tables),
    and each generator's intertwining residual is read off the templates
    at the indices of its terms (``derham._equivariance_image``).  The
    samples are drawn as they always were, so the report counts them; an
    empty table passes a sample with no row work.
    """
    if count < 0:
        raise ArgumentError(f"count must be at least 0, got {count}")
    rng = random.Random(get_seed(seed))
    failures = []
    checked = 0
    profiles = standard_profiles(n, shift)
    for k in range(n - 1):
        M = make_wedge_module(n, k)
        composite = compose(_derham_table(n, k + 1), _derham_table(n, k))
        target = make_wedge_module(n, k + 2)
        for _ in range(count):
            P = profiles[rng.choice(sorted(profiles))]
            w = _random_fvector(rng, P, M)
            checked += 1
            if not _table_image(composite, target, w).is_zero():
                failures.append({"kind": "composite", "k": k})
    kernel_expect = {"poly": 1, "laurent": 0, "one-twist": 0}
    for name, P in profiles.items():
        box = _profile_key_box(P, 3)
        total = pi_kernel(P, 0, box).total_dim()
        checked += 1
        if total != kernel_expect[name]:
            failures.append({"kind": "kernel", "profile": name, "dim": total})
    gens = GeneratorSet.default(n)
    for k in range(n - 1):
        M = make_wedge_module(n, k)
        for name, P in profiles.items():
            for _ in range(3):
                w = _random_fvector(rng, P, M, nterms=2, radius=2)
                for g in gens.members:
                    checked += 1
                    if not _equivariance_image(g.field, w).is_zero():
                        failures.append(
                            {"kind": "equivariance", "k": k, "gen": g.name}
                        )
    return _record("derham", {"n": n, "count": count, "seed": get_seed(seed)},
                   checked, failures)


def check_unique_submodule(n: int, side: int = 5, margin: int = 2, max_deg: int = 3):
    """The polynomial module: constants close to a line, anything else fills
    the inner box."""
    A = WeightModuleP.polynomial(n)
    triv = make_wedge_module(n, 0)
    box = TruncationBox((0,) * n, (side,) * n, margin=margin)
    gens = GeneratorSet.default(n)
    failures = []
    const = closure([FVector.basis(A, triv, (0,) * n, 0)], gens, box)
    if const.classification != "trivial-line" or const.total_dim() != 1:
        failures.append({"seed": [0] * n, "classification": const.classification})
    checked = 1
    target = {w: 1 for w in box.inner_keys()}
    for key in itertools.product(range(max_deg + 1), repeat=n):
        if sum(key) > max_deg or key == (0,) * n:
            continue
        report = closure([FVector.basis(A, triv, key, 0)], gens, box, target_dims=target)
        checked += 1
        if not report.reached_target:
            failures.append(
                {"seed": list(key), "firstUnreached": list(report.first_unreached())}
            )
    return _record("unique-submodule",
                   {"n": n, "box": side, "margin": margin, "maxDeg": max_deg},
                   checked, failures)


def check_delta_p(n: int, radius: int = 6, margin: int = 2, shift=DEFAULT_SHIFT):
    """Graded dimensions of the derivative span per profile against their
    closed form, plus simplicity evidence for the twisted profile and the
    containment S_n p in deltaP."""
    profiles = standard_profiles(n, shift)
    AF = WeightModuleP.twisted(n)
    tbox = TruncationBox((-radius,) * n, (-1,) * n, margin=margin)
    spans = (
        ("poly", profiles["poly"], TruncationBox((0,) * n, (radius,) * n, margin=margin)),
        ("laurent", profiles["laurent"],
         TruncationBox((-radius // 2,) * n, (radius // 2,) * n, margin=margin)),
        ("twist", AF, tbox),
    )
    failures = []
    checked = 0
    for name, P, box in spans:
        delta = partial_span(P, box)
        for w in box.keys():
            checked += 1
            if delta.dim_at(w) != _delta_dim(P, w):
                failures.append({"kind": "dims", "profile": name, "weight": list(w)})
    evidence = evidence_simplicity(AF, None, "deltaP", tbox)
    checked += len(evidence["seeds"])
    if not evidence["pass"]:
        failures.append({"kind": "simplicity", "profile": "twist"})
    # containment of the generator action inside the span
    triv = make_wedge_module(n, 0)
    A = WeightModuleP.polynomial(n)
    box = TruncationBox((0,) * n, (radius,) * n)
    span = partial_span(A, box)
    gens = GeneratorSet.default(n)
    for gi, g in enumerate(gens.members):
        for key in itertools.product(range(2), repeat=n):
            out = gens.act(gi, FVector.basis(A, triv, key, 0))
            checked += 1
            if not out.is_zero() and not span.contains(out):
                failures.append({"kind": "containment", "gen": g.name, "key": list(key)})
    return _record("delta-p", {"n": n, "radius": radius, "margin": margin},
                   checked, failures)


def _line_count(P, mu, r: int) -> int:
    """The multiplicity of weight mu in F(P, wedge^r) line by line: the
    label (mu - e_S, S) is in it when each line l supports (s_l) its key,
    so it is the x^r coefficient of prod_l (s_l(mu_l) + s_l(mu_l - 1) x)."""
    coeffs = [1]
    for f, m in zip(P.factors, mu):
        here, lowered = f.supports(m), f.supports(m - 1)
        coeffs = [here * c + lowered * prev for c, prev in zip(coeffs + [0], [0] + coeffs)]
    return coeffs[r]


def check_bounded_multiplicity(n: int, radius: int = 2, shift=DEFAULT_SHIFT):
    """Weight multiplicities of F(P, wedge^r) stay below the binomial bound
    and match the line-by-line count ``_line_count``."""
    failures = []
    checked = 0
    for r in range(n + 1):
        M = make_wedge_module(n, r)
        bound = math.comb(n, r)
        for name, P in standard_profiles(n, shift).items():
            for mu in itertools.product(range(-radius, radius + 1), repeat=n):
                checked += 1
                count = len(ambient_labels(P, M, mu))
                if count > bound or count != _line_count(P, mu, r):
                    failures.append({"profile": name, "r": r, "mu": list(mu)})
    return _record("bounded-multiplicity", {"n": n, "radius": radius}, checked, failures)


SUITES = {
    "iota-hom": check_iota_hom,
    "eq-cubic": check_eq_cubic,
    "eq-quartic": check_eq_quartic,
    "g-u": check_g_u,
    "h-ln": check_h_ln,
    "derham": check_derham,
    "unique-submodule": check_unique_submodule,
    "delta-p": check_delta_p,
    "bounded": check_bounded_multiplicity,
}
