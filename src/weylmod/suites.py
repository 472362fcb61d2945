"""Named verification checks shared by the command line and the test suite.

Every check is a plain top-level function returning a JSON-ready dict with
at least {"check", "params", "pass"}; failures carry enough context to
reproduce.  Randomized checks draw from a seed (SHENWEYL_SEED or the given
value), so identical configurations produce identical reports.
"""

from __future__ import annotations

import itertools
import os
import random
from fractions import Fraction

from .derham import (
    partial_span,
    pi,
    pi_kernel,
    verify_g_equals_u,
    verify_h_annihilates,
)
from .errors import ArgumentError
from .indices import TruncationBox, mi_sub, mi_unit
from .structure import GeneratorSet, evidence_simplicity
from .tensorop import (
    CHECK_NODE,
    CUBIC_PREDICTION,
    CUBIC_WEIGHTS,
    QUARTIC_PREDICTION,
    QUARTIC_WEIGHTS,
    _combine,
    _scaled,
    cubic_m_factors,
    cubic_m_product,
    cubic_target,
    iota_hom_residual,
    quartic_m_factors,
    quartic_m_product,
    quartic_target,
)
from .vectorfields import monomial_field
from .weightmod import (
    POLY,
    TWIST,
    Factor,
    FVector,
    WeightModuleP,
    make_wedge_module,
    sn_act,
)


DEFAULT_SEED = 20240801


def get_seed(seed=None) -> int:
    if seed is not None:
        return int(seed)
    return int(os.environ.get("SHENWEYL_SEED", DEFAULT_SEED))


def _monomial_fields(n: int, deg: int):
    out = []
    for exp in itertools.product(range(deg + 1), repeat=n):
        if sum(exp) > deg:
            continue
        for i in range(1, n + 1):
            out.append((exp, i))
    return out


def check_iota_hom(n: int, deg: int):
    """Residual of the embedding on all monomial field pairs up to degree."""
    fields = _monomial_fields(n, deg)
    failures = []
    checked = 0
    residual_terms = 0
    for (a_exp, i), (b_exp, j) in itertools.product(fields, repeat=2):
        x = monomial_field(a_exp, i)
        y = monomial_field(b_exp, j)
        checked += 1
        residual = iota_hom_residual(x, y)
        if not residual.is_zero():
            residual_terms += len(residual.terms)
            failures.append({"x": [list(a_exp), i], "y": [list(b_exp), j]})
    return {
        "check": "iota-hom",
        "params": {"n": n, "deg": deg},
        "checked": checked,
        "residual_terms": residual_terms,
        "failures": failures[:10],
        "pass": not failures,
    }


def _check_identity(check, n, lo, hi, cases, target, product, factors, weights,
                    prediction):
    """One interpolation identity over every alpha in the window.

    ``cases`` lists (index args, lower bound on alpha).  Per alpha the check
    needs three things: the fixed weights turn the node products into the
    target; the product at CHECK_NODE equals the prediction from the node
    products, which certifies the degree in m that the weights assume; and,
    when alpha is above the lower bound, every right-hand factor demotes to a
    polynomial field.
    """
    failures = []
    checked = 0
    residual_terms = 0
    membership_checked = 0
    rows = [_scaled(list(weights.values())),
            _scaled([prediction[m] for m in weights])]
    for args, lower in cases:
        for alpha in itertools.product(range(lo, hi + 1), repeat=n):
            values = [product(alpha, *args, m) for m in weights]
            combined, predicted = _combine(values, rows)
            checked += 1
            residual = target(alpha, *args) - combined
            residual_terms += len(residual.terms)
            ok = residual.is_zero() and predicted == product(alpha, *args, CHECK_NODE)
            if ok and all(a >= b for a, b in zip(alpha, lower)):
                membership_checked += 1
                ok = not any(
                    f.element.demote().laurent
                    for m in weights
                    for f in factors(alpha, *args, m)
                )
            if not ok:
                failures.append({"alpha": list(alpha), **dict(zip("ij", args))})
    return {
        "check": check,
        "params": {"n": n, "window": [lo, hi]},
        "checked": checked,
        "residual_terms": residual_terms,
        "polynomialWitnesses": membership_checked,
        "failures": failures[:10],
        "pass": not failures,
    }


def _lower_bound(n: int, i: int, j: int):
    """2 e_i - e_j, the corner of the admissible alpha windows: above it
    the identities have polynomial factors and the lemmas apply."""
    return mi_sub(tuple(2 * x for x in mi_unit(i, n)), mi_unit(j, n))


def check_eq_cubic(n: int, lo: int = -2, hi: int = 3, pairs=None):
    """The four-point identity for t^(alpha+e_j-2e_i) (x) E_ij^2."""
    if pairs is None:
        pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    return _check_identity(
        "eq-cubic", n, lo, hi, [((i, j), _lower_bound(n, i, j)) for i, j in pairs],
        cubic_target, cubic_m_product, cubic_m_factors,
        CUBIC_WEIGHTS, CUBIC_PREDICTION,
    )


def check_eq_quartic(n: int, lo: int = -2, hi: int = 3, i_list=None):
    """The five-point identity recovering the g operator."""
    if i_list is None:
        i_list = list(range(1, n - 1))
    return _check_identity(
        "eq-quartic", n, lo, hi, [((i,), _lower_bound(n, i, i + 2)) for i in i_list],
        quartic_target, quartic_m_product, quartic_m_factors,
        QUARTIC_WEIGHTS, QUARTIC_PREDICTION,
    )


def standard_profiles(n: int, shift=Fraction(1, 2)):
    """The three weight-module profiles used throughout the evidence suites."""
    return {
        "poly": WeightModuleP.polynomial(n),
        "laurent": WeightModuleP.laurent(n, shift),
        "one-twist": WeightModuleP([Factor(TWIST)] + [Factor(POLY)] * (n - 1)),
    }


def _profile_key_box(P: WeightModuleP, radius: int) -> TruncationBox:
    lower = []
    upper = []
    for f in P.factors:
        if f.kind == POLY:
            lower.append(0)
            upper.append(radius)
        elif f.kind == TWIST:
            lower.append(-radius)
            upper.append(-1)
        else:
            lower.append(-radius)
            upper.append(radius)
    return TruncationBox(tuple(lower), tuple(upper))


def _check_lemma(check, lemma, n, delta_hi, key_radius, profiles, shift):
    """Run one operator lemma over every profile, degree, index and alpha in
    the admissible window."""
    if profiles is None:
        profiles = standard_profiles(n, Fraction(shift))
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
    return {
        "check": check,
        "params": {"n": n, "deltaWindow": delta_hi, "keyRadius": key_radius},
        "cases": len(sub),
        "checked": sum(s["checked"] for s in sub),
        "failures": [s for s in sub if not s["pass"]][:10],
        "pass": all(s["pass"] for s in sub),
    }


def check_g_u(n: int, delta_hi: int = 2, key_radius: int = 3, profiles=None,
              shift="1/2"):
    """g = u on every p (x) v over the admissible alpha window."""
    return _check_lemma(
        "g-equals-u", verify_g_equals_u, n, delta_hi, key_radius, profiles, shift
    )


def check_h_ln(n: int, delta_hi: int = 2, key_radius: int = 3, profiles=None,
               shift="1/2"):
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


def check_derham(n: int, count: int = 100, seed=None, shift="1/2"):
    """Composite maps vanish; kernels at degree zero match the factor
    profile; the maps intertwine the generator action."""
    rng = random.Random(get_seed(seed))
    failures = []
    checked = 0
    profiles = standard_profiles(n, Fraction(shift))
    for k in range(n - 1):
        M = make_wedge_module(n, k)
        for _ in range(count):
            P = profiles[rng.choice(sorted(profiles))]
            w = _random_fvector(rng, P, M)
            checked += 1
            if not pi(pi(w)).is_zero():
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
                    if pi(sn_act(g.field, w)) != sn_act(g.field, pi(w)):
                        failures.append(
                            {"kind": "equivariance", "k": k, "gen": g.name}
                        )
    return {
        "check": "derham",
        "params": {"n": n, "count": count, "seed": get_seed(seed)},
        "checked": checked,
        "failures": failures[:10],
        "pass": not failures,
    }


def check_unique_submodule(n: int, side: int = 5, margin: int = 2, max_deg: int = 3):
    """The polynomial module: constants close to a line, anything else fills
    the inner box."""
    from .structure import ClosureEngine, closure

    A = WeightModuleP.polynomial(n)
    triv = make_wedge_module(n, 0)
    box = TruncationBox((0,) * n, (side,) * n, margin=margin)
    gens = GeneratorSet.default(n)
    engine = ClosureEngine(A, triv, gens, box)
    failures = []
    const = closure([FVector.basis(A, triv, (0,) * n, 0)], gens, box, engine=engine)
    if const.classification != "trivial-line" or const.total_dim() != 1:
        failures.append({"seed": [0] * n, "classification": const.classification})
    checked = 1
    target = {w: 1 for w in box.inner_keys()}
    for key in itertools.product(range(max_deg + 1), repeat=n):
        if sum(key) > max_deg or key == (0,) * n:
            continue
        report = closure(
            [FVector.basis(A, triv, key, 0)],
            gens,
            box,
            engine=engine,
            target_dims=target,
        )
        checked += 1
        if not report.reached_target:
            failures.append(
                {"seed": list(key), "firstUnreached": list(report.first_unreached())}
            )
    return {
        "check": "unique-submodule",
        "params": {"n": n, "box": side, "margin": margin, "maxDeg": max_deg},
        "checked": checked,
        "failures": failures[:10],
        "pass": not failures,
    }


def check_delta_p(n: int, radius: int = 6, margin: int = 2, shift="1/2"):
    """Graded dimensions of the derivative span per profile, plus simplicity
    evidence for the twisted profile and the containment S_n p in deltaP."""
    failures = []
    profiles = standard_profiles(n, Fraction(shift))
    boxes = {
        "poly": TruncationBox((0,) * n, (radius,) * n, margin=margin),
        "laurent": TruncationBox((-radius // 2,) * n, (radius // 2,) * n, margin=margin),
        "one-twist": None,
    }
    checked = 0
    for name, P in profiles.items():
        if name == "one-twist":
            continue
        box = boxes[name]
        delta = partial_span(P, box)
        for w in box.keys():
            expected = 1 if P.supports_key(w) else 0
            checked += 1
            if delta.dim_at(w) != expected:
                failures.append({"kind": "dims", "profile": name, "weight": list(w)})
    AF = WeightModuleP.twisted(n)
    tbox = TruncationBox((-radius,) * n, (-1,) * n, margin=margin)
    delta = partial_span(AF, tbox)
    corner = (-1,) * n
    for w in tbox.keys():
        expected = 0 if w == corner else 1
        checked += 1
        if delta.dim_at(w) != expected:
            failures.append({"kind": "dims", "profile": "twist", "weight": list(w)})
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
    for g in gens.members:
        for key in itertools.product(range(2), repeat=n):
            out = sn_act(g.field, FVector.basis(A, triv, key, 0))
            checked += 1
            if not out.is_zero() and not span.contains(out):
                failures.append({"kind": "containment", "gen": g.name, "key": list(key)})
    return {
        "check": "delta-p",
        "params": {"n": n, "radius": radius, "margin": margin},
        "checked": checked,
        "failures": failures[:10],
        "pass": not failures,
    }


def check_bounded_multiplicity(n: int, radius: int = 2, shift="1/2"):
    """Weight multiplicities of F(P, wedge^r) stay below the binomial bound."""
    import math

    failures = []
    checked = 0
    for r in range(n + 1):
        M = make_wedge_module(n, r)
        bound = math.comb(n, r)
        for name, P in standard_profiles(n, Fraction(shift)).items():
            for mu in itertools.product(range(-radius, radius + 1), repeat=n):
                count = sum(
                    1
                    for midx in range(M.dim)
                    if P.supports_key(
                        tuple(m - wt for m, wt in zip(mu, M.weights[midx]))
                    )
                )
                checked += 1
                if count > bound:
                    failures.append({"profile": name, "r": r, "mu": list(mu)})
    return {
        "check": "bounded-multiplicity",
        "params": {"n": n, "radius": radius},
        "checked": checked,
        "failures": failures[:10],
        "pass": not failures,
    }


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
