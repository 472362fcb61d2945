"""Acceptance criteria, one test per criterion, exact tolerances.

Each test prints a single PASS line (visible with pytest -s); every check is
exact rational arithmetic, so the only tolerance anywhere is zero.
"""

import time

import oracles

from weylmod.indices import TruncationBox
from weylmod.structure import (
    GeneratorSet,
    closure,
    evidence_simplicity,
    subquotient_inventory,
)
from weylmod.derham import pi_image
from weylmod.suites import (
    check_bounded_multiplicity,
    check_delta_p,
    check_derham,
    check_eq_cubic,
    check_eq_quartic,
    check_g_u,
    check_h_ln,
    check_iota_hom,
    check_unique_submodule,
)
from weylmod.weightmod import (
    Factor,
    WeightModuleP,
    make_hw_module,
    make_wedge_module,
)


def report(criterion, detail, elapsed):
    print(f"ACCEPTANCE {criterion}: PASS  {detail}  [{elapsed:.1f}s]")


def test_criterion_1_iota_homomorphism():
    started = time.monotonic()
    total = 0
    for n in (2, 3):
        result = check_iota_hom(n, 4)
        assert result["pass"], result["failures"]
        total += result["checked"]
    elapsed = time.monotonic() - started
    assert elapsed < 120
    report(1, f"iota homomorphism residuals, {total} pairs", elapsed)


def test_criterion_2_cubic_identity():
    started = time.monotonic()
    total = 0
    witnesses = 0
    for n in (2, 3, 4):
        result = check_eq_cubic(n, alpha_window=(-2, 3))
        assert result["pass"], result["failures"]
        total += result["checked"]
        witnesses += result["polynomialWitnesses"]
    assert witnesses > 0
    elapsed = time.monotonic() - started
    assert elapsed < 120
    report(2, f"cubic identity, {total} alphas, {witnesses} membership witnesses",
           elapsed)


def test_criterion_3_quartic_identity():
    started = time.monotonic()
    total = 0
    witnesses = 0
    for n in (3, 4, 5):
        result = check_eq_quartic(n, alpha_window=(-2, 3))
        assert result["pass"], result["failures"]
        total += result["checked"]
        witnesses += result["polynomialWitnesses"]
    assert witnesses > 0
    elapsed = time.monotonic() - started
    assert elapsed < 600
    report(3, f"quartic identity + Vandermonde, {total} alphas", elapsed)


def test_criterion_4_g_equals_u():
    started = time.monotonic()
    total = 0
    for n in (3, 4):
        result = check_g_u(n, delta_window=2, key_radius=3)
        assert result["pass"], result["failures"]
        total += result["checked"]
    elapsed = time.monotonic() - started
    report(4, f"g = u on tensor vectors, {total} evaluations", elapsed)


def test_criterion_5_h_annihilates_image():
    started = time.monotonic()
    total = 0
    for n in (3, 4):
        result = check_h_ln(n, delta_window=2, key_radius=3)
        assert result["pass"], result["failures"]
        total += result["checked"]
    elapsed = time.monotonic() - started
    report(5, f"h annihilates the de Rham image, {total} evaluations", elapsed)


def test_criterion_6_de_rham():
    started = time.monotonic()
    total = 0
    for n in (2, 3, 4):
        result = check_derham(n, count=100)
        assert result["pass"], result["failures"]
        total += result["checked"]
    elapsed = time.monotonic() - started
    report(6, f"de Rham complex/kernel/equivariance, {total} checks", elapsed)


def test_criterion_7_unique_proper_submodule():
    started = time.monotonic()
    total = 0
    for n in (2, 3):
        result = check_unique_submodule(n, margin=2)
        assert result["pass"], result["failures"]
        total += result["checked"]
    elapsed = time.monotonic() - started
    assert elapsed < 300
    report(7, f"unique proper submodule of the polynomial module, "
              f"{total} closures", elapsed)


def test_criterion_8_delta_p_structure():
    started = time.monotonic()
    total = 0
    for n in (2, 3):
        result = check_delta_p(n)
        assert result["pass"], result["failures"]
        total += result["checked"]
    elapsed = time.monotonic() - started
    report(8, f"derivative-span structure and simplicity evidence, "
              f"{total} checks", elapsed)


def test_criterion_9_simplicity_evidence():
    started = time.monotonic()
    # PASS side: the adjoint-type coefficient module is simple
    A2 = WeightModuleP.polynomial(2)
    adj = make_hw_module((2,), 2)
    box = TruncationBox((0, 0), (5, 5), margin=2)
    result = evidence_simplicity(A2, adj, "F", box)
    assert result["pass"], [s for s in result["seeds"] if not s["pass"]][:3]

    L2 = WeightModuleP.laurent(2)
    lbox = TruncationBox((-3, -3), (2, 2), margin=2)
    result = evidence_simplicity(L2, adj, "F", lbox)
    assert result["pass"], [s for s in result["seeds"] if not s["pass"]][:3]

    # FAIL side: exterior powers in middle degrees are never simple, and the
    # failing seeds' closures stay inside the de Rham image
    fails = 0
    for n in (2, 3):
        A = WeightModuleP.polynomial(n)
        abox = TruncationBox((0,) * n, (5,) * n, margin=2)
        for r in range(1, n):
            M = make_wedge_module(n, r)
            result = evidence_simplicity(A, M, "F", abox)
            assert not result["pass"], (n, r)
            failing = [s for s in result["seeds"] if not s["pass"]]
            assert failing and all(s["kind"] == "submodule-row" for s in failing)
            fails += len(failing)
            # witness: close one failing image seed directly
            image = pi_image(A, r, abox)
            gens = GeneratorSet.default(n)
            seed_weight = tuple(failing[0]["weight"])
            seed = oracles.basis_vectors(image, seed_weight)[0]
            rep = closure([seed], gens, abox)
            for w, dim in rep.dims.items():
                assert dim <= image.dim_at(w)
    elapsed = time.monotonic() - started
    report(9, f"simplicity evidence: adjoint-type PASS, exterior degrees "
              f"FAIL with {fails} image witnesses", elapsed)


def test_criterion_10_image_simplicity_and_inventory():
    started = time.monotonic()
    # the degree-2 image submodule at n = 3 is simple for all three profiles
    configs = [
        (WeightModuleP.polynomial(3), TruncationBox((0, 0, 0), (5, 5, 5), margin=2)),
        (WeightModuleP.laurent(3), TruncationBox((-3, -3, -3), (3, 3, 3), margin=2)),
        (
            WeightModuleP([Factor("twist"), Factor("poly"), Factor("poly")]),
            TruncationBox((-6, 0, 0), (-1, 5, 5), margin=2),
        ),
    ]
    for P, box in configs:
        result = evidence_simplicity(P, None, "Ln", box, r=2)
        assert result["pass"], repr(P)

    expected = {
        ("A2", 0): ["P/constants"],
        ("A2F", 0): ["deltaP"],
        ("A2", 1): ["P/constants", "P/constants (shifted)"],
        ("A3", 1): ["P/constants", "image(2)"],
        ("A3", 2): ["P/constants (shifted)", "image(2)"],
    }
    inventories = {
        ("A2", 0): (WeightModuleP.polynomial(2), TruncationBox((0, 0), (4, 4))),
        ("A2F", 0): (WeightModuleP.twisted(2), TruncationBox((-4, -4), (-1, -1))),
        ("A2", 1): (WeightModuleP.polynomial(2), TruncationBox((0, 0), (4, 4))),
        ("A3", 1): (WeightModuleP.polynomial(3), TruncationBox((0, 0, 0), (3, 3, 3))),
        ("A3", 2): (WeightModuleP.polynomial(3), TruncationBox((0, 0, 0), (3, 3, 3))),
    }
    for (tag, r), (P, box) in inventories.items():
        result = subquotient_inventory(P, r, box)
        assert result["pass"], (tag, r)
        assert result["nontrivial"] == expected[(tag, r)], (tag, r, result["nontrivial"])
    elapsed = time.monotonic() - started
    assert elapsed < 900
    report(10, "image-submodule simplicity (3 profiles) and the five "
               "subquotient inventories", elapsed)


def test_criterion_11_bounded_multiplicity():
    started = time.monotonic()
    total = 0
    for n in (2, 3, 4):
        result = check_bounded_multiplicity(n)
        assert result["pass"], result["failures"]
        total += result["checked"]
    elapsed = time.monotonic() - started
    report(11, f"bounded weight multiplicities, {total} weights", elapsed)
