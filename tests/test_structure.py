"""Submodule closure, simplicity evidence, and the subquotient inventory."""

import itertools
import random
from fractions import Fraction

import oracles
import pytest

from weylmod.derham import GradedSubspace, partial_span, pi_image, pi_kernel
from weylmod.errors import ArgumentError, DomainError, StructureError
from weylmod import derham, structure, suites
from weylmod.indices import TruncationBox
from weylmod.linalg import RowBasis
from weylmod.structure import (
    ClosureEngine,
    Generator,
    GeneratorSet,
    closure,
    evidence_simplicity,
    subquotient_inventory,
)
from weylmod.tensorop import shen_iota
from weylmod.vectorfields import L_op
from weylmod.weightmod import (
    Factor,
    FVector,
    WeightModuleP,
    make_hw_module,
    make_wedge_module,
    sn_act,
)


def test_default_generator_set():
    gens = GeneratorSet.default(2)
    assert len(gens) > 0
    names = [g.name for g in gens.members]
    assert "L[1,2;(0,0)]" in names
    # default shifts stay within one step per coordinate
    for g in gens.members:
        assert all(-1 <= s <= 1 for s in g.shift)


def test_generator_reads_its_shift_off_its_field():
    # the shift of L[i,j;alpha] is alpha, the weight a - e_i of each of
    # its terms t^a d_i
    for n, cap in itertools.product((2, 3, 4), (0, 1, 2)):
        for g in GeneratorSet.default(n, cap).members:
            alpha = tuple(int(a) for a in g.name.split("(")[1].rstrip(")]").split(","))
            assert g.shift == alpha, g.name
    assert Generator("x", L_op(1, 2, (-2, 0), laurent=True)).shift == (-2, 0)
    # a zero field has no weight, and a sum of two weights has two
    zero = L_op(1, 2, (0, 0)) * 0
    mixed = L_op(1, 2, (0, 0)) + L_op(1, 2, (1, 0))
    for field in (zero, mixed):
        with pytest.raises(ArgumentError, match="one weight"):
            Generator("z", field)


def test_engine_columns_are_scaled_tensor_act_columns():
    # each cached block is the matrix of the direct action (the oracle)
    # times the denominator of the member's rows, with every entry an int
    cube = TruncationBox((0,) * 3, (3,) * 3, margin=1)
    cases = [
        (WeightModuleP.polynomial(3), cube),
        (WeightModuleP.twisted(3), TruncationBox((-4,) * 3, (-1,) * 3, margin=1)),
        (
            WeightModuleP([Factor("twist"), Factor("poly"), Factor("poly")]),
            TruncationBox((-3, 0, 0), (0, 3, 3), margin=1),
        ),
        (
            WeightModuleP.laurent(3, Fraction(-7, 5)),
            TruncationBox((-2,) * 3, (1,) * 3, margin=1),
        ),
    ]
    runs = [(P, make_wedge_module(3, r), box) for P, box in cases for r in (0, 1, 2)]
    hw = make_hw_module((2,), 2)
    square = TruncationBox((-2, -2), (2, 2), margin=1)
    runs += [
        (WeightModuleP.polynomial(2), hw, TruncationBox((0, 0), (4, 4), margin=1)),
        (WeightModuleP.laurent(2, Fraction(-7, 5)), hw, square),
    ]
    scales = set()
    for P, M, box in runs:
        gens = GeneratorSet.default(P.rank)
        engine = ClosureEngine(P, M, gens, box)
        weights = sorted(box.inner_keys())[::3]
        for w in weights:
            for gi, target in engine.moves[w][0]:
                g = gens.members[gi]
                cols = engine.matrix(gi, w)
                assert cols is engine.matrix(gi, w)
                assert len(cols) == len(engine.ambient.labels[w])
                scale = structure._member_rows(g, P, M)[1]
                scales.add(scale)
                slots = engine.ambient.slots[target]
                for (key, midx), col in zip(engine.ambient.labels[w], cols):
                    assert all(type(c) is int and c for _, c in col)
                    image = oracles.tensor_act(
                        shen_iota(g.field), FVector.basis(P, M, key, midx)
                    )
                    expected = {slots[lab]: c * scale for lab, c in image.terms.items()}
                    assert dict(col) == expected, (P, M.name, w, g.name, key, midx)
    # the Laurent blocks carry a denominator, the others do not
    assert 1 in scales and any(s % 5 == 0 for s in scales)


def test_closure_reuses_the_engine_of_equal_inputs(monkeypatch):
    # two closures over equal inputs share one engine from the memo, whose
    # matrices the second finds built; every matrix asked for is a move
    P, M = WeightModuleP.polynomial(2), make_wedge_module(2, 1)
    box = TruncationBox((0, 0), (4, 4), margin=1)
    gens = GeneratorSet.default(2)
    seeds = [FVector.basis(P, M, (2, 1), 0)]
    asked = []
    traced = ClosureEngine.matrix

    def matrix(engine, gi, w):
        asked.append((gi, w, engine.moves[w][0]))
        return traced(engine, gi, w)

    monkeypatch.setattr(ClosureEngine, "matrix", matrix)
    structure._engine.cache_clear()
    first = closure(seeds, gens, box)
    assert structure._engine.cache_info().misses == 1
    engine = structure._engine(P, M, gens, box, None)
    built = dict(engine._matrices)
    assert built and asked
    assert all(gi in dict(moves) for gi, _, moves in asked)
    hits = structure._engine.cache_info().hits
    second = closure(seeds, gens, box)
    info = structure._engine.cache_info()
    assert info.hits == hits + 1 and info.misses == 1
    assert engine._matrices.keys() == built.keys()
    assert all(engine._matrices[key] is cols for key, cols in built.items())
    assert second.dims == first.dims == oracles.closure(seeds, gens, box).dims


def test_quotient_closures_through_mod_equal_the_oracle():
    # modulo the degree-1 kernel of F(A2, wedge^1) and the degree-2 kernel
    # of F(A3, wedge^2), every basis seed's closure is the plain search's
    for P, r, box in ((_A2, 1, _CUBE2), (_A3, 2, _CUBE3)):
        M = make_wedge_module(P.rank, r)
        kernel = pi_kernel(P, r, box)
        gens = GeneratorSet.default(P.rank)
        for w in list(box.inner_keys())[::4]:
            for key, midx in kernel.labels[w]:
                seeds = [FVector.basis(P, M, key, midx)]
                got = closure(seeds, gens, box, _mod=kernel)
                assert got.dims == oracles.closure(seeds, gens, box, _mod=kernel).dims
                assert got.total_dim() <= sum(
                    len(kernel.labels[v]) - kernel.dim_at(v) for v in box.keys()
                )


def test_engine_keeps_the_action_errors():
    A = WeightModuleP.polynomial(2)
    triv = make_wedge_module(2, 0)
    box = TruncationBox((0, 0), (4, 4), margin=1)
    # a Laurent field that does not demote cannot act on the module
    # (GeneratorSet itself already refuses it, so it is put in afterwards)
    laurent = GeneratorSet([])
    laurent.members = [Generator("x", L_op(1, 2, (-2, 0), laurent=True))]
    engine = ClosureEngine(A, triv, laurent, box)
    with pytest.raises(DomainError):
        engine.matrix(0, (3, 2))
    # a generator whose shift is overwritten with a wrong one leaves its
    # weight block
    wrong = GeneratorSet([Generator("y", L_op(1, 2, (0, 0)))])
    wrong.members[0].shift = (1, 0)
    engine = ClosureEngine(A, triv, wrong, box)
    with pytest.raises(StructureError, match="left its weight block"):
        engine.matrix(0, (2, 1))


@pytest.mark.parametrize("n", [2, 3])
def test_generators_act_as_sn_act(n):
    # every member acting through its set's memoised rows matches the
    # checked public action (the oracle), on random vectors of the three
    # standard profiles over every exterior power
    rng = random.Random(20261018 + n)
    gens = GeneratorSet.default(n)
    for name, P in suites.standard_profiles(n).items():
        for k in range(n + 1):
            M = make_wedge_module(n, k)
            for _ in range(2):
                v = suites._random_fvector(rng, P, M)
                for gi, g in enumerate(gens.members):
                    assert gens.act(gi, v) == sn_act(g.field, v), (name, k, g.name)


def test_closure_of_constants_is_a_line():
    n = 2
    A = WeightModuleP.polynomial(n)
    triv = make_wedge_module(n, 0)
    box = TruncationBox((0, 0), (5, 5), margin=2)
    gens = GeneratorSet.default(n)
    report = closure([FVector.basis(A, triv, (0, 0), 0)], gens, box)
    assert report.classification == "trivial-line"
    assert report.dims[(0, 0)] == 1
    assert report.total_dim() == 1


def test_closure_from_t1_fills_inner_box():
    n = 2
    A = WeightModuleP.polynomial(n)
    triv = make_wedge_module(n, 0)
    box = TruncationBox((0, 0), (5, 5), margin=2)
    gens = GeneratorSet.default(n)
    report = closure([FVector.basis(A, triv, (1, 0), 0)], gens, box)
    assert report.classification == "full-in-inner-box"
    # the closure walks down to the constants as well
    assert report.dims[(0, 0)] == 1


def test_closure_in_twisted_module_misses_corner():
    n = 2
    AF = WeightModuleP.twisted(n)
    triv = make_wedge_module(n, 0)
    box = TruncationBox((-6, -6), (-1, -1), margin=2)
    gens = GeneratorSet.default(n)
    report = closure([FVector.basis(AF, triv, (-2, -1), 0)], gens, box)
    delta = partial_span(AF, box)
    for w in box.keys():
        assert report.dims[w] == delta.dim_at(w), w
    assert report.dims[(-1, -1)] == 0


def test_closure_rejects_empty_seed_list():
    box = TruncationBox((0, 0), (5, 5), margin=2)
    with pytest.raises(ArgumentError):
        closure([], GeneratorSet.default(2), box)
    # a seed term outside the box, or a seed over other modules, is refused
    A = WeightModuleP.polynomial(2)
    triv = make_wedge_module(2, 0)
    seed = FVector.basis(A, triv, (1, 0), 0)
    outside = seed + FVector.basis(A, triv, (9, 0), 0)
    other = FVector(WeightModuleP.laurent(2), triv, seed.terms)
    for seeds in ([outside], [seed, other]):
        with pytest.raises(ArgumentError, match="not a vector of the box window"):
            closure(seeds, GeneratorSet.default(2), box)


def test_closure_monotone_and_idempotent():
    n = 2
    A = WeightModuleP.polynomial(n)
    triv = make_wedge_module(n, 0)
    box = TruncationBox((0, 0), (4, 4), margin=1)
    gens = GeneratorSet.default(n)
    small = closure([FVector.basis(A, triv, (2, 2), 0)], gens, box)
    seeds = [FVector.basis(A, triv, (2, 2), 0), FVector.basis(A, triv, (1, 0), 0)]
    big = closure(seeds, gens, box)
    for w in box.keys():
        assert small.dims[w] <= big.dims[w]
    # idempotence: reclosing from a spanning set of the closure changes nothing
    again = closure(seeds, gens, box)
    assert again.dims == big.dims


def test_boundary_soundness_under_box_shrink():
    n = 2
    A = WeightModuleP.polynomial(n)
    triv = make_wedge_module(n, 0)
    gens = GeneratorSet.default(n)
    big_box = TruncationBox((0, 0), (6, 6), margin=2)
    small_box = TruncationBox((0, 0), (5, 5), margin=2)
    seed_key = (2, 1)
    big = closure([FVector.basis(A, triv, seed_key, 0)], gens, big_box)
    small = closure([FVector.basis(A, triv, seed_key, 0)], gens, small_box)
    for w in small_box.keys():
        assert small.dims[w] <= big.dims[w]


def test_submodule_certificates():
    # canonical subspaces are closed under every in-box generator application
    n = 2
    A = WeightModuleP.polynomial(n)
    box = TruncationBox((0, 0), (5, 5), margin=2)
    gens = GeneratorSet.default(n)
    image = pi_image(A, 1, box)
    kernel = pi_kernel(A, 1, box)
    delta = partial_span(A, box)
    for subspace in (image, kernel, delta):
        for w in box.keys():
            for vec in oracles.basis_vectors(subspace, w):
                for g in gens.members:
                    target = tuple(a + b for a, b in zip(w, g.shift))
                    if not box.contains(target):
                        continue
                    out = sn_act(g.field, vec)
                    if not out.is_zero():
                        assert subspace.contains(out), (w, g.name)


def test_closure_stays_inside_image_submodule():
    # non-simplicity witness: a seed inside the de Rham image never leaves it
    n = 2
    A = WeightModuleP.polynomial(n)
    box = TruncationBox((0, 0), (5, 5), margin=2)
    gens = GeneratorSet.default(n)
    image = pi_image(A, 1, box)
    seed = oracles.basis_vectors(image, (2, 2))[0]
    report = closure([seed], gens, box)
    for w in box.keys():
        assert report.dims[w] <= image.dim_at(w)
    assert report.classification == "proper"


def test_evidence_simplicity_full_module_fails_for_wedge1():
    n = 2
    A = WeightModuleP.polynomial(n)
    wedge1 = make_wedge_module(n, 1)
    box = TruncationBox((0, 0), (5, 5), margin=2)
    report = evidence_simplicity(A, wedge1, "F", box)
    assert not report["pass"]
    failing = [s for s in report["seeds"] if not s["pass"]]
    assert failing
    # the witnesses are exactly the de Rham image seeds
    assert all(s["kind"] == "submodule-row" for s in failing)


def test_evidence_simplicity_adjoint_module_passes():
    n = 2
    A = WeightModuleP.polynomial(n)
    M = make_hw_module((2,), n)
    box = TruncationBox((0, 0), (5, 5), margin=2)
    report = evidence_simplicity(A, M, "F", box)
    assert report["pass"], [s for s in report["seeds"] if not s["pass"]][:3]


def test_evidence_simplicity_delta_twisted():
    n = 2
    AF = WeightModuleP.twisted(n)
    box = TruncationBox((-6, -6), (-1, -1), margin=2)
    report = evidence_simplicity(AF, None, "deltaP", box)
    assert report["pass"]


def test_evidence_simplicity_quotient_of_wedge1():
    # F(A_2, wedge^1)/kernel is the simple quotient picture at n = 2
    n = 2
    A = WeightModuleP.polynomial(n)
    box = TruncationBox((0, 0), (5, 5), margin=2)
    report = evidence_simplicity(A, None, "quotient", box, r=1)
    assert report["pass"]


def test_evidence_configuration_errors():
    # every ambient names what it is missing, and an ambient that is empty
    # on the inner box is refused rather than passed
    A2 = WeightModuleP.polynomial(2)
    box = TruncationBox((0, 0), (4, 4), margin=1)
    cases = [
        (A2, "F", box, None, "ambient F needs the finite-dimensional factor"),
        (A2, "Ln", box, None, "ambient Ln needs r"),
        (A2, "quotient", box, None, "ambient quotient needs r"),
        (A2, "Fx", box, 1, "unknown ambient kind 'Fx'"),
        (WeightModuleP.twisted(2), "deltaP", TruncationBox((-2, -2), (0, 0), margin=1),
         None, "ambient space is empty on the inner box"),
    ]
    for P, ambient, box, r, message in cases:
        with pytest.raises(ArgumentError) as info:
            evidence_simplicity(P, None, ambient, box, r=r)
        assert str(info.value) == message, ambient


def test_evidence_refuses_a_module_the_ambient_does_not_fix():
    # Ln, deltaP and quotient each act on one exterior power: another M is
    # refused, not replaced, and that power itself is accepted
    A2 = WeightModuleP.polynomial(2)
    box = TruncationBox((0, 0), (5, 5), margin=2)
    for ambient, r, k in (("Ln", 1, 1), ("deltaP", None, 0), ("quotient", 1, 1)):
        for other in (make_hw_module((2,), 2), make_wedge_module(2, 1 - k)):
            with pytest.raises(ArgumentError) as info:
                evidence_simplicity(A2, other, ambient, box, r=r)
            assert str(info.value) == f"ambient {ambient} fixes M to wedge(2,{k}), not {other.name}"
        fixed = evidence_simplicity(A2, make_wedge_module(2, k), ambient, box, r=r)
        assert fixed == evidence_simplicity(A2, None, ambient, box, r=r)


def test_evidence_refuses_generators_that_cannot_move_a_coordinate_both_ways():
    # where the target weights differ along a coordinate that no member
    # raises (or lowers), the seeds at the lowest (or highest) of them fail
    # whatever the module: no evidence, so the call is refused
    A2 = WeightModuleP.polynomial(2)
    box = TruncationBox((0, 0), (5, 5), margin=2)
    M = make_hw_module((2,), 2)
    assert evidence_simplicity(A2, M, "F", box)["pass"]
    capped = GeneratorSet.default(2, 0)
    assert capped.reach == ((False, True), (False, True))
    with pytest.raises(ArgumentError, match="^no generator raises coordinate 1,"):
        evidence_simplicity(A2, M, "F", box, gens=capped)
    raising = GeneratorSet([g for g in GeneratorSet.default(2).members if min(g.shift) >= 0])
    assert raising.reach == ((True, False), (True, False))
    with pytest.raises(ArgumentError, match="^no generator lowers coordinate 1,"):
        evidence_simplicity(A2, M, "F", box, gens=raising)
    # an inner box of one weight has nothing to move along: not refused
    point = TruncationBox((0, 0), (4, 4), margin=2)
    assert evidence_simplicity(A2, M, "F", point, gens=capped)["check"]


def test_inventory_A2_r0():
    A = WeightModuleP.polynomial(2)
    box = TruncationBox((0, 0), (4, 4))
    report = subquotient_inventory(A, 0, box)
    assert report["nontrivial"] == ["P/constants"]
    assert report["pass"]
    const = [l for l in report["layers"] if l["name"] == "constants"][0]
    assert const["totalDim"] == 1


def test_inventory_twisted_r0():
    AF = WeightModuleP.twisted(2)
    box = TruncationBox((-4, -4), (-1, -1))
    report = subquotient_inventory(AF, 0, box)
    assert report["nontrivial"] == ["deltaP"]
    assert report["pass"]
    gap = [l for l in report["layers"] if l["name"] == "P/deltaP"][0]
    assert gap["totalDim"] == 1 and gap["trivial"]


def test_inventory_laurent_r0_is_simple_picture():
    P = WeightModuleP.laurent(2)
    box = TruncationBox((-3, -3), (3, 3))
    report = subquotient_inventory(P, 0, box)
    # deltaP = P: a single nontrivial layer covering everything
    assert report["nontrivial"] == ["deltaP"]
    layers = {l["name"]: l for l in report["layers"]}
    assert "P/deltaP" not in layers
    assert report["pass"]


def test_inventory_A2_r1():
    A = WeightModuleP.polynomial(2)
    box = TruncationBox((0, 0), (4, 4))
    report = subquotient_inventory(A, 1, box)
    # both nontrivial layers are the P/constants picture (n = 2, r = n-1)
    assert report["nontrivial"] == ["P/constants", "P/constants (shifted)"]
    assert report["pass"]


def test_inventory_A3_r1():
    A = WeightModuleP.polynomial(3)
    box = TruncationBox((0, 0, 0), (3, 3, 3))
    report = subquotient_inventory(A, 1, box)
    assert report["nontrivial"] == ["P/constants", "image(2)"]
    assert report["pass"]


def test_inventory_A3_r2():
    A = WeightModuleP.polynomial(3)
    box = TruncationBox((0, 0, 0), (3, 3, 3))
    report = subquotient_inventory(A, 2, box)
    assert report["nontrivial"] == ["P/constants (shifted)", "image(2)"]
    assert report["pass"]


def test_inventory_fails_on_a_corrupted_layer(monkeypatch):
    # the deltaP layer and the bottom image(r) layer are checked against
    # computations of their own (a closed form and rank-nullity from the
    # kernel one degree down), so emptying one block of the span behind
    # the layer makes exactly that match, and the inventory, fail
    def emptied(make):
        def corrupted(*args):
            space = make(*args)
            w = next(w for w in sorted(space.labels) if space.dim_at(w))
            empty = RowBasis(len(space.labels[w]))
            # every builder takes the box last
            return GradedSubspace(space.module_p, space.module_m, args[-1],
                                  {**space.blocks, w: empty})

        return corrupted

    cases = [
        ("partial_span", WeightModuleP.twisted(2), 0,
         TruncationBox((-4, -4), (-1, -1)), "deltaP"),
        ("partial_span", WeightModuleP.laurent(2, Fraction(-7, 5)), 0,
         TruncationBox((-3, -3), (3, 3)), "deltaP"),
        ("pi_image", WeightModuleP.polynomial(3), 2,
         TruncationBox((0, 0, 0), (3, 3, 3)), "image(2)"),
        ("pi_image", WeightModuleP.twisted(3), 2,
         TruncationBox((-3, -3, -3), (0, 0, 0)), "image(2)"),
        ("pi_kernel", WeightModuleP.polynomial(2), 0,
         TruncationBox((0, 0), (4, 4)), "P/constants"),
    ]
    for name, P, r, box, layer in cases:
        assert subquotient_inventory(P, r, box)["pass"]
        with monkeypatch.context() as patch:
            patch.setattr(structure, name, emptied(getattr(structure, name)))
            report = subquotient_inventory(P, r, box)
        failed = [m["layer"] for m in report["candidateMatches"] if not m["match"]]
        assert failed == [layer] and not report["pass"], (name, P)


# -- saturation pruning and seed certificates ---------------------------------

_A2 = WeightModuleP.polynomial(2)
_A3 = WeightModuleP.polynomial(3)
_CUBE2 = TruncationBox((0, 0), (5, 5), margin=2)
_CUBE3 = TruncationBox((0,) * 3, (4,) * 3, margin=2)

# (P, M, ambient, box, r): the evidence ambients of criteria 8-10 on small boxes
PRUNING_CASES = [
    (_A2, make_hw_module((2,), 2), "F", _CUBE2, None),
    (_A3, make_wedge_module(3, 1), "F", _CUBE3, None),
    (_A3, make_wedge_module(3, 2), "F", _CUBE3, None),
    (_A3, None, "Ln", _CUBE3, 2),
    (
        WeightModuleP([Factor("twist"), Factor("poly"), Factor("poly")]),
        None, "Ln", TruncationBox((-5, 0, 0), (-1, 4, 4), margin=2), 2,
    ),
    (WeightModuleP.laurent(3), None, "Ln", TruncationBox((-2,) * 3, (2,) * 3, margin=2), 2),
    (WeightModuleP.twisted(2), None, "deltaP", TruncationBox((-6, -6), (-1, -1), margin=2), None),
    (_A2, None, "quotient", _CUBE2, 1),
    (_A3, None, "quotient", TruncationBox((0,) * 3, (5,) * 3, margin=2), 2),
]


def _recorded_evidence(monkeypatch, P, M, ambient, box, r):
    """The evidence report and the (seeds, mod, bound, report) of every
    closure it ran."""
    calls = []
    pruned = structure.closure

    def recording(seeds, gens, box, **kw):
        report = pruned(seeds, gens, box, **kw)
        calls.append((seeds, kw.get("_mod"), kw.get("_bound"), report))
        return report

    with monkeypatch.context() as patch:
        patch.setattr(structure, "closure", recording)
        report = evidence_simplicity(P, M, ambient, box, r=r)
    # one closure per reported seed, each through ``structure.closure``: an
    # evidence that bypassed the name would record none, and swapping the
    # name for the oracle would compare the evidence with itself
    assert len(calls) == len(report["seeds"])
    return report, calls


PRUNING_IDS = [
    "F-hw2-poly2", "F-wedge1-poly3", "F-wedge2-poly3", "Ln-poly3", "Ln-one-twist3",
    "Ln-laurent3", "deltaP-twisted2", "quotient1-poly2", "quotient2-poly3",
]


@pytest.mark.parametrize("case", PRUNING_CASES, ids=PRUNING_IDS)
def test_pruned_closure_matches_the_unpruned_search(monkeypatch, case):
    P, M, ambient, box, r = case
    gens = GeneratorSet.default(P.rank)
    report, calls = _recorded_evidence(monkeypatch, P, M, ambient, box, r)
    # the same report dict seed by seed, FAIL seeds' closureDims included
    with monkeypatch.context() as patch:
        patch.setattr(structure, "closure", oracles.closure)
        assert evidence_simplicity(P, M, ambient, box, r=r) == report
    # full closures (no target, no certificate) have the same dims at every
    # weight, with the window bound alone and with the submodule bound
    sample = calls[:: max(1, len(calls) // 6)] + calls[-1:]
    for seeds, mod, bound, _ in sample:
        want = oracles.closure(seeds, gens, box, _mod=mod).dims
        assert closure(seeds, gens, box, _mod=mod).dims == want
        if bound is not None:
            assert closure(seeds, gens, box, _mod=mod, _bound=bound).dims == want


@pytest.mark.parametrize("case", PRUNING_CASES, ids=PRUNING_IDS)
def test_lazy_room_gives_the_reports_of_an_eager_one(monkeypatch, case):
    # a closure fills its room, and an engine its capacity and move tables,
    # on first read; tables filled at every window weight up front (a plain
    # dict that refuses any other weight) give the same reports closure by
    # closure
    P, M, ambient, box, r = case
    lazy, lazy_calls = _recorded_evidence(monkeypatch, P, M, ambient, box, r)

    class EagerTable(dict):
        def __init__(self, fill):
            super().__init__((w, fill(w)) for w in box.keys())

    monkeypatch.setattr(structure, "_Table", EagerTable)
    structure._engine.cache_clear()
    structure._move_lists.cache_clear()
    eager, eager_calls = _recorded_evidence(monkeypatch, P, M, ambient, box, r)
    # later tests start from lazily filled tables
    structure._engine.cache_clear()
    structure._move_lists.cache_clear()
    assert eager == lazy
    assert len(eager_calls) == len(lazy_calls)
    for (*_, want), (*_, got) in zip(eager_calls, lazy_calls):
        assert got.applications == want.applications
        assert got.reached_target == want.reached_target
        assert got.first_unreached() == want.first_unreached()
        assert got.dims == want.dims


def test_a_bound_over_an_equal_window_is_accepted():
    # the closure compares a bound's window with its own by identity first,
    # and by its weights only when the two mappings differ
    gens = GeneratorSet.default(2)
    wedge1 = make_wedge_module(2, 1)
    image = pi_image(_A2, 1, _CUBE2)
    seed = oracles.basis_vectors(image, (2, 1))[0]
    want = closure([seed], gens, _CUBE2, _bound=image)
    derham._window.cache_clear()
    rebuilt = GradedSubspace(_A2, wedge1, _CUBE2, image.blocks)
    engine = structure._engine(_A2, wedge1, gens, _CUBE2, None)
    assert rebuilt.labels is not engine.ambient.labels
    assert rebuilt.labels == engine.ambient.labels
    got = closure([seed], gens, _CUBE2, _bound=rebuilt)
    assert got.dims == want.dims and got.applications == want.applications
    # a bound over another window of the same P and M is refused
    other = TruncationBox((0, 0), (4, 4), margin=1)
    with pytest.raises(StructureError, match="not a subspace of the closure's window"):
        closure([seed], gens, _CUBE2, _bound=GradedSubspace(_A2, wedge1, other))


def test_saturation_skips_work_and_certificates_cut_pass_seeds(monkeypatch):
    # the F(A3, wedge^1) image seeds run to their fixed point inside the
    # image, the basis seeds stop at the first certified seed
    _, calls = _recorded_evidence(monkeypatch, _A3, make_wedge_module(3, 1), "F", _CUBE3, None)
    gens = GeneratorSet.default(3)
    seeds, mod, bound, _ = calls[0]
    assert bound is not None and mod is None
    pruned = closure(seeds, gens, _CUBE3, _bound=bound)
    plain = closure(seeds, gens, _CUBE3)
    assert pruned.dims == plain.dims
    assert pruned.applications < plain.applications
    window = GradedSubspace(_A3, make_wedge_module(3, 1), _CUBE3)
    target = {w: len(window.labels[w]) for w in _CUBE3.inner_keys()}
    basis = [s for s, _, b, _ in calls if b is None]
    first = closure(basis[0], gens, _CUBE3, target_dims=target)
    assert first.reached_target
    ((w, dense),) = window.to_dense(basis[0][0]).items()
    later = closure(basis[-1], gens, _CUBE3, target_dims=target, _settled={w: [(dense, first)]})
    alone = closure(basis[-1], gens, _CUBE3, target_dims=target)
    assert later.reached_target and alone.reached_target
    assert later.applications < alone.applications


def test_certificate_stopped_report_reads_as_reached():
    gens = GeneratorSet.default(2)
    target = {w: 1 for w in _CUBE2.inner_keys()}
    seed = FVector.basis(_A2, make_wedge_module(2, 0), (2, 1), 0)
    first = closure([seed], gens, _CUBE2, target_dims=target)
    assert first.reached_target and first.applications > 0
    # the seed is its own certificate: the closure stops before any move
    report = closure([seed], gens, _CUBE2, target_dims=target, _settled={(2, 1): [([1], first)]})
    assert report.applications == 0 and report.total_dim() == 1
    assert report.reached_target is True
    assert report.first_unreached() is None
    obj = report.to_json_obj()
    assert obj["reachedTarget"] is True and obj["firstUnreached"] is None


def test_certificates_keep_fail_seeds_failing(monkeypatch):
    # F(A2, wedge^1): the image rows fail with the closureDims the unpruned,
    # uncertified search gives, whatever the basis seeds certify
    M = make_wedge_module(2, 1)
    report = evidence_simplicity(_A2, M, "F", _CUBE2)
    with monkeypatch.context() as patch:
        patch.setattr(structure, "closure", oracles.closure)
        plain = evidence_simplicity(_A2, M, "F", _CUBE2)
    failing = [s for s in report["seeds"] if not s["pass"]]
    assert failing and not report["pass"]
    assert all(s["kind"] == "submodule-row" for s in failing)
    assert failing == [s for s in plain["seeds"] if not s["pass"]]
    assert any(s["pass"] and s["kind"] == "basis" for s in report["seeds"])


def test_quotient_certificates_compare_modulo_the_kernel(monkeypatch):
    # the two basis seeds at one weight of F(A2, wedge^1)/kernel agree up to
    # a scalar modulo the kernel, so the second closure starts out holding
    # the first, certified seed
    applications = []
    pruned = structure.closure

    def recording(*args, **kw):
        report = pruned(*args, **kw)
        applications.append(report.applications)
        return report

    monkeypatch.setattr(structure, "closure", recording)
    report = evidence_simplicity(_A2, None, "quotient", _CUBE2, r=1)
    assert report["pass"]
    weights = [tuple(s["weight"]) for s in report["seeds"]]
    repeats = [a for i, a in enumerate(applications) if weights[i] in weights[:i]]
    assert applications[0] > 0
    assert repeats and all(a == 0 for a in repeats)


def test_image_rows_settle_on_the_first_image_closure(monkeypatch):
    # F(A2, wedge^1): the four image rows close to one subspace, so each
    # later row stops once its closure holds an earlier row and reads that
    # row's fixed point, with the dims and verdict of the plain search
    gens = GeneratorSet.default(2)
    _, calls = _recorded_evidence(monkeypatch, _A2, make_wedge_module(2, 1), "F", _CUBE2, None)
    rows = [(seeds, report) for seeds, _, bound, report in calls if bound is not None]
    assert len(rows) == 4
    for seeds, report in rows:
        want = oracles.closure(seeds, gens, _CUBE2, target_dims=report.target_dims)
        assert report.reached_target is want.reached_target is False
        assert report.dims == want.dims
        assert report.first_unreached() == want.first_unreached()
    first = rows[0][1].applications
    assert all(report.applications < first for _, report in rows[1:])


def test_a_fixed_point_without_the_seed_is_not_reused(monkeypatch):
    # F(A3, wedge^1): the basis seed's closure comes to hold the image row,
    # but the row's fixed point (the image) does not hold the basis seed,
    # so it is not the basis seed's closure
    _, calls = _recorded_evidence(monkeypatch, _A3, make_wedge_module(3, 1), "F", _CUBE3, None)
    (row, _, bound, fixed), (basis, _, _, reached) = calls[:2]
    assert bound is not None and fixed.reached_target is False and reached.reached_target
    ((w, dense),) = bound.to_dense(row[0]).items()
    assert not bound.contains(basis[0])
    gens = GeneratorSet.default(3)
    report = closure(basis, gens, _CUBE3, _settled={w: [(dense, fixed)]})
    assert report._blocks[w].contains(dense)
    assert report.dims == oracles.closure(basis, gens, _CUBE3).dims
    assert report.total_dim() > fixed.total_dim()


def test_an_early_stopped_report_is_not_a_fixed_point():
    # a closure that stopped at its target holds part of its fixed point:
    # it settles no closure without that target
    gens = GeneratorSet.default(2)
    target = {w: 1 for w in _CUBE2.inner_keys()}
    seed = FVector.basis(_A2, make_wedge_module(2, 0), (2, 1), 0)
    early = closure([seed], gens, _CUBE2, target_dims=target)
    full = closure([seed], gens, _CUBE2)
    assert early.reached_target and early.total_dim() < full.total_dim()
    settled = {(2, 1): [([1], early)]}
    assert closure([seed], gens, _CUBE2, _settled=settled).dims == full.dims
    # a window block is one-dimensional, so a target of 2 is never reached
    unreachable = {w: 2 for w in _CUBE2.inner_keys()}
    report = closure([seed], gens, _CUBE2, target_dims=unreachable, _settled=settled)
    assert report.reached_target is False and report.dims == full.dims


def test_a_fixed_point_over_another_box_is_not_reused():
    # a settled report belongs to the engine of its inputs: the seed's
    # fixed point in a smaller box is not its closure in _CUBE2
    gens = GeneratorSet.default(2)
    seed = FVector.basis(_A2, make_wedge_module(2, 0), (2, 1), 0)
    small = closure([seed], gens, TruncationBox((0, 0), (3, 3), margin=1))
    full = closure([seed], gens, _CUBE2)
    assert small.total_dim() < full.total_dim()
    assert closure([seed], gens, _CUBE2, _settled={(2, 1): [([1], small)]}).dims == full.dims


def test_a_wrong_bound_raises():
    gens = GeneratorSet.default(2)
    wedge1 = make_wedge_module(2, 1)
    image = pi_image(_A2, 1, _CUBE2)
    basis_seed = FVector.basis(_A2, wedge1, (2, 1), 0)
    assert not image.contains(basis_seed)
    # a bound that does not contain the seed
    with pytest.raises(StructureError, match="left its bound"):
        closure([basis_seed], gens, _CUBE2, _bound=image)
    # a bound over another module: the derivative span lives in degree 0
    with pytest.raises(StructureError, match="not a subspace of the closure's window"):
        closure([basis_seed], gens, _CUBE2, _bound=partial_span(_A2, _CUBE2))
    # a bound that holds the seed but is not closed: the image with the
    # seed added to its weight block
    [(w, dense)] = image.to_dense(basis_seed).items()
    block = RowBasis(len(image.labels[w]))
    for row in image.blocks[w].rows + [dense]:
        block.insert(row)
    widened = GradedSubspace(_A2, wedge1, _CUBE2, {**image.blocks, w: block})
    assert widened.contains(basis_seed)
    with pytest.raises(StructureError, match="left its bound"):
        closure([basis_seed], gens, _CUBE2, _bound=widened)
    # the seed's fixed point without a bound is not reused under another
    # bound, whose tripwire still sees the closure leave it
    free = closure([basis_seed], gens, _CUBE2)
    with pytest.raises(StructureError, match="left its bound"):
        closure([basis_seed], gens, _CUBE2, _bound=widened, _settled={w: [(dense, free)]})
    # the image itself bounds its own seeds
    seed = oracles.basis_vectors(image, (2, 1))[0]
    bounded = closure([seed], gens, _CUBE2, _bound=image)
    assert bounded.dims == closure([seed], gens, _CUBE2).dims
    # and its fixed point, built under the image, is reused under the image
    # and under no bound
    ((v, row),) = image.to_dense(seed).items()
    settled = {v: [(row, bounded)]}
    for again in (closure([seed], gens, _CUBE2, _bound=image, _settled=settled),
                  closure([seed], gens, _CUBE2, _settled=settled)):
        assert again.applications == 0 and again.dims == bounded.dims


def test_a_weight_without_a_block_reads_as_dimension_zero():
    # spaces built through the constructor hold no block where they are
    # zero: modulo the zero space the closure is the unmodded one, and the
    # zero space bounds no seed
    P, M = WeightModuleP.polynomial(2), make_wedge_module(2, 0)
    box = TruncationBox((0, 0), (4, 4), margin=1)
    gens = GeneratorSet.default(2)
    seed = FVector.basis(P, M, (1, 1), 0)
    zero = GradedSubspace(P, M, box)
    plain = closure([seed], gens, box)
    assert plain.total_dim() == 25
    modded = closure([seed], gens, box, _mod=zero)
    assert modded.dims == plain.dims
    with pytest.raises(StructureError, match=r"left its bound at weight \[1, 1\]"):
        closure([seed], gens, box, _bound=zero)


def test_move_lists_stay_in_the_window():
    # the moves into the inner box come first, then the outward ones, each
    # part in generator order, and ``inward`` counts the first part
    gens = GeneratorSet.default(3)
    engine = ClosureEngine(_A3, make_wedge_module(3, 1), gens, _CUBE3)
    for w in [(0, 0, 0), (2, 2, 2), (4, 0, 4), (1, 2, 3)]:
        moves, inward_count = engine.moves[w]
        assert moves is engine.moves[w][0]
        window = [
            (gi, tuple(a + b for a, b in zip(w, g.shift)))
            for gi, g in enumerate(gens.members)
            if _CUBE3.contains(tuple(a + b for a, b in zip(w, g.shift)))
        ]
        inward = [m for m in window if _CUBE3.contains_inner(m[1])]
        outward = [m for m in window if not _CUBE3.contains_inner(m[1])]
        assert moves == inward + outward
        assert inward_count == len(inward)
    # (1, 2, 3) has moves on both sides of the split
    moves, inward_count = engine.moves[(1, 2, 3)]
    assert 0 < inward_count < len(moves)


def test_engines_over_one_box_share_their_move_lists():
    # the moves depend on the generator shifts and the box alone, so an
    # engine over another P or M reads the lists that the first one built
    gens = GeneratorSet.default(3)
    structure._move_lists.cache_clear()
    first = ClosureEngine(_A3, make_wedge_module(3, 1), gens, _CUBE3)
    w = (1, 2, 3)
    moves, inward = first.moves[w]
    for P, r in ((_A3, 2), (WeightModuleP.twisted(3), 1)):
        other = ClosureEngine(P, make_wedge_module(3, r), gens, _CUBE3)
        assert other.moves[w][0] is moves and other.moves[w][1] == inward
    assert structure._move_lists.cache_info()[:2] == (2, 1)
    # another box has lists of its own
    box = TruncationBox((0,) * 3, (3,) * 3, margin=1)
    assert ClosureEngine(_A3, make_wedge_module(3, 1), gens, box).moves[w][0] != moves


def _outer_seeds(P, M, box, weights):
    """The basis vectors of the window at the given weights, none of them
    in the inner box."""
    labels = GradedSubspace(P, M, box).labels
    assert all(labels[w] and not box.contains_inner(w) for w in weights)
    return [FVector.basis(P, M, key, midx) for w in weights for key, midx in labels[w]]


def test_closures_from_outside_the_inner_box_reach_the_fixed_point():
    # a seed outside the inner box moves mostly outward: its closure, with
    # no target, has the dims of the breadth-first search only if every
    # vector's outward moves resume after each growth they cause
    cases = []
    for n in (2, 3):
        # the box of ``check_unique_submodule(n)``, seeded at its corners
        box = TruncationBox((0,) * n, (5,) * n, margin=2)
        corners = list(itertools.product((0, 5), repeat=n))
        cases.append((WeightModuleP.polynomial(n), make_wedge_module(n, 0), box, corners))
    cases.append((_A3, make_wedge_module(3, 1), _CUBE3, [(1, 0, 0), (4, 1, 0), (3, 4, 4)]))
    for P, M, box, weights in cases:
        gens = GeneratorSet.default(P.rank)
        for seed in _outer_seeds(P, M, box, weights):
            report = closure([seed], gens, box)
            assert report.dims == oracles.closure([seed], gens, box).dims, seed


def test_pass_seeds_reach_the_target_in_fewer_applications(monkeypatch):
    # F(A3, wedge^1): each basis seed's closure fills the inner box with
    # fewer applications than the breadth-first search takes
    _, calls = _recorded_evidence(monkeypatch, _A3, make_wedge_module(3, 1), "F", _CUBE3, None)
    gens = GeneratorSet.default(3)
    window = GradedSubspace(_A3, make_wedge_module(3, 1), _CUBE3)
    target = {w: len(window.labels[w]) for w in _CUBE3.inner_keys()}
    basis = [seeds for seeds, _, bound, _ in calls if bound is None]
    assert len(basis) == 2
    for seeds in basis:
        report = closure(seeds, gens, _CUBE3, target_dims=target)
        plain = oracles.closure(seeds, gens, _CUBE3, target_dims=target)
        assert report.reached_target and plain.reached_target
        assert report.applications < plain.applications


def test_image_submodule_is_cyclic_at_n4():
    # the degree 2 and 3 images at n = 4: every image basis seed on the 16
    # inner weights reaches the whole image there
    P = WeightModuleP.polynomial(4)
    box = TruncationBox((0,) * 4, (5,) * 4, margin=2)
    for r in (2, 3):
        report = evidence_simplicity(P, None, "Ln", box, r=r)
        assert report["pass"] and len(report["seeds"]) == 48, r


@pytest.mark.parametrize("n, r", [(3, 1), (3, 2), (4, 1), (4, 3)])
def test_hw_module_of_a_fundamental_weight_reports_as_the_exterior_power(n, r):
    # hw:e_r is the exterior power itself, so the F evidence seeds the de
    # Rham image rows and fails on the module the paper proves reducible,
    # as wedge:r does; a lowering-closure copy got basis seeds only and
    # passed
    psi = tuple(int(k == r - 1) for k in range(n - 1))
    P = WeightModuleP.polynomial(n)
    box = TruncationBox((0,) * n, (4,) * n, margin=2)
    hw = evidence_simplicity(P, make_hw_module(psi, n), "F", box)
    wedge = evidence_simplicity(P, make_wedge_module(n, r), "F", box)
    assert hw == wedge
    assert not hw["pass"] and hw["params"]["M"] == f"wedge({n},{r})"
    assert any(s["kind"] == "submodule-row" and not s["pass"] for s in hw["seeds"])
