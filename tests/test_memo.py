"""The per-profile memos: bounded, keyed by every input they depend on, and
invisible in every report."""

import ast
import contextlib
import copy
import functools
import gc
import importlib
import io
import pickle
import weakref
from collections import Counter
from fractions import Fraction
from pathlib import Path

import oracles
import pytest

import weylmod  # the package import loads every library module
from test_derham import LEMMA_PROFILES
from test_structure import PRUNING_CASES
from weylmod import cli, derham, memo, structure, suites, tensorop, ugl, weightmod
from weylmod.errors import ArgumentError, StructureError
from weylmod.derham import (
    GradedSubspace,
    partial_span,
    pi,
    pi_image,
    pi_kernel,
    verify_g_equals_u,
    verify_h_annihilates,
)
from weylmod.indices import TruncationBox
from weylmod.linalg import RowBasis
from weylmod.structure import GeneratorSet, evidence_simplicity, subquotient_inventory
from weylmod.tensorop import TensorOperator
from weylmod.weightmod import Factor, FVector, SLModule, WeightModuleP, make_wedge_module

SRC = Path(weylmod.__file__).parent

# every registered memo at its size
SIZES = {
    "weylmod.indices.mi_units": 16,
    "weylmod.weyl._normal_order_table": 4096,
    "weylmod.weyl._coord_choices": 512,
    "weylmod.ugl.pbw_product": 4096,
    "weylmod.ugl._NORMAL_CACHE": ugl._NORMAL_CACHE_SIZE,
    "weylmod.tensorop._iota_live": 16,
    "weylmod.tensorop._node_template": 256,
    "weylmod.tensorop._node_terms": 64,
    "weylmod.tensorop._residual_template": 64,
    "weylmod.tensorop._interpolation_rows": 64,
    "weylmod.derham._derham_table": 16,
    "weylmod.derham._derham_rows": 32,
    "weylmod.derham._window": 8,
    "weylmod.derham.pi_image": 4,
    "weylmod.derham.pi_kernel": 4,
    "weylmod.derham.partial_span": 4,
    "weylmod.derham._lemma_sources": 64,
    "weylmod.derham._lemma_template": 64,
    "weylmod.derham._equivariance_template": 128,
    "weylmod.structure._default_generators": 8,
    "weylmod.structure._member_rows": 4096,
    "weylmod.structure._move_lists": 16,
    "weylmod.structure._engine": 1,
}


def test_every_memo_is_bounded():
    assert sorted(memo._MEMOS) == sorted(SIZES)
    for name, cached in memo._MEMOS.items():
        # the module calls the very object that is registered
        module, _, attr = name.rpartition(".")
        assert getattr(importlib.import_module(module), attr) is cached, name
        if name == "weylmod.ugl._NORMAL_CACHE":
            assert type(cached) is dict
            continue
        # a bare lru_cache at its size, with no layer around it
        assert type(cached) is functools._lru_cache_wrapper, name
        assert cached.cache_parameters()["maxsize"] == SIZES[name], name
        assert not hasattr(cached.__wrapped__, "cache_info"), name
    # one memo holds the 46 residual templates of n <= 5, and one the 46
    # node products they are read off
    for name in ("_residual_template", "_node_terms"):
        assert SIZES[f"weylmod.tensorop.{name}"] >= 46
    # one the 60 lemma templates of n <= 6, and one the 90 equivariance
    # templates
    assert SIZES["weylmod.derham._lemma_template"] >= 60
    assert SIZES["weylmod.derham._equivariance_template"] >= 90
    # and one the rows of the 192 members at n = 4 on 3 profiles x 4 wedges
    assert SIZES["weylmod.structure._member_rows"] >= 192 * 3 * 4
    # the iota pair templates are read through the live table of their rank
    assert not hasattr(tensorop._iota_template, "cache_info")


def test_lru_cache_is_used_by_the_registry_and_the_wedge_memo_only():
    users = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Name, ast.Attribute)) and "lru_cache" in (
                getattr(node, "id", None), getattr(node, "attr", None)
            ):
                users.setdefault(path.name, []).append(node.lineno)
    assert sorted(users) == ["memo.py", "weightmod.py"]
    assert len(users["weightmod.py"]) == 1
    # the one bare lru_cache decorates make_wedge_module, unbounded
    (wedge,) = [node for node in ast.walk(ast.parse((SRC / "weightmod.py").read_text()))
                if isinstance(node, ast.FunctionDef) and node.decorator_list
                and "lru_cache" in ast.unparse(node.decorator_list[0])]
    assert wedge.name == "make_wedge_module"
    assert make_wedge_module.cache_parameters()["maxsize"] is None
    assert "weylmod.weightmod.make_wedge_module" not in {name for name, *_ in memo.stats()}


def test_clearing_keeps_the_exterior_powers():
    # vectors over an exterior power compare their module by identity
    wedge = make_wedge_module(3, 1)
    memo.clear()
    assert make_wedge_module(3, 1) is wedge
    assert all(entries == 0 for _, entries, *_ in memo.stats())


def test_stats_repeat_after_clearing():
    # every verdict of verify all is read off memos; cleared between two
    # runs in one process, the second fills them exactly as the first did
    def run():
        memo.clear()
        out = io.StringIO()
        for n in (2, 3, 4):
            with contextlib.redirect_stdout(out):
                assert cli.main(["verify", "all", "--n", str(n)]) == 0
        return out.getvalue(), memo.stats()

    first, second = run(), run()
    assert first == second
    stats = first[1]
    assert [name for name, *_ in stats] == sorted(SIZES)
    assert sum(entries for _, entries, *_ in stats) > 0
    for name, entries, hits, misses in stats:
        if name == "weylmod.ugl._NORMAL_CACHE":
            assert (hits, misses) == (None, None)
        else:
            assert entries <= misses, name


def test_the_straightening_memo_is_bounded():
    # the left products of U(gl_n) live in a plain dict of fixed size, keyed
    # by (matrix unit, normal monomial): E12^20 E21^20 meets more distinct
    # left products than it holds, and the oldest are evicted
    size = ugl._NORMAL_CACHE_SIZE
    memo.clear()
    product = ugl.pbw_product((((1, 2), 20),), (((2, 1), 20),))
    assert len(product) == 1770
    assert len(ugl._NORMAL_CACHE) == size
    for g, mono in ugl._NORMAL_CACHE:
        assert len(g) == 2 and ugl.UglElement(2, {mono: 1}).terms == {mono: 1}
    memo.clear()
    assert not ugl._NORMAL_CACHE


_A2 = WeightModuleP.polynomial(2)
_A3 = WeightModuleP.polynomial(3)

INVENTORY_CASES = [
    (_A2, 0, TruncationBox((0, 0), (4, 4))),
    (WeightModuleP.twisted(2), 0, TruncationBox((-4, -4), (-1, -1))),
    (WeightModuleP.laurent(2, Fraction(-7, 5)), 0, TruncationBox((-3, -3), (3, 3))),
    (_A2, 1, TruncationBox((0, 0), (4, 4))),
    (_A3, 1, TruncationBox((0,) * 3, (3,) * 3)),
    (_A3, 2, TruncationBox((0,) * 3, (3,) * 3)),
    (WeightModuleP.twisted(3), 2, TruncationBox((-3,) * 3, (0,) * 3)),
]


def _cold_and_warm(calls):
    """The results of (fn, args) calls with every memo cleared before each
    call, and with every call made twice in a row after the whole list ran
    once (so each is served by warm memos, from itself or its neighbours)."""
    cold = []
    for fn, args in calls:
        memo.clear()
        cold.append(fn(*args))
    for fn, args in calls:
        fn(*args)
    warm = []
    for fn, args in calls:
        fn(*args)
        warm.append(fn(*args))
    return cold, warm


def test_evidence_cold_equals_warm():
    # the nine ambients share P, boxes, spaces and engines among them
    calls = [(evidence_simplicity, case) for case in PRUNING_CASES]
    cold, warm = _cold_and_warm(calls)
    assert cold == warm
    assert [report["pass"] for report in cold] == [True, False, False] + [True] * 6


def test_inventory_cold_equals_warm():
    cold, warm = _cold_and_warm([(subquotient_inventory, case) for case in INVENTORY_CASES])
    assert cold == warm and all(report["pass"] for report in cold)


def test_suite_actions_cold_equal_warm():
    # the suites act through the generator sets' memoised rows
    calls = [(suites.check_derham, (3, 20)), (suites.check_delta_p, (3,)),
             (suites.check_unique_submodule, (2,))]
    cold, warm = _cold_and_warm(calls)
    assert cold == warm and all(report["pass"] for report in cold)


def test_derham_reads_one_template_per_index_and_degree(monkeypatch):
    # the equivariance loop reads templates: shen_iota runs once per
    # (i, r) template over a symbolic exponent, and no member's action rows
    # are built
    calls = []

    def counted(x):
        calls.append(x)
        return weylmod.tensorop.shen_iota(x)

    for module in (derham, structure, weightmod):
        monkeypatch.setattr(module, "shen_iota", counted)
    memo.clear()
    n = 3
    assert suites.check_derham(n)["pass"]
    # every index at the degrees 0..n-2 that the loop reaches
    assert len(calls) == derham._equivariance_template.cache_info().currsize == n * (n - 1)
    assert structure._member_rows.cache_info().currsize == 0
    memo.clear()


def test_lemma_cold_equals_warm():
    calls = []
    for P, box in LEMMA_PROFILES.values():
        for alpha, i, r in (((2, 0, 0, 0), 1, 2), ((1, 2, 0, -1), 2, 3), ((0, 1, 1, 0), 1, 3)):
            calls += [(verify_g_equals_u, (alpha, i, P, r, box)),
                      (verify_h_annihilates, (alpha, i, P, r, box))]
    cold, warm = _cold_and_warm(calls)
    assert cold == warm and all(report["pass"] for report in cold)
    # each cold call built the template of its (lemma, n, i, r), and the
    # warm calls read the six of them
    assert derham._lemma_template.cache_info().currsize == 6


def test_warm_lemmas_build_no_operator_and_apply_no_pbw(monkeypatch):
    # with its template built, a lemma call evaluates the template: no
    # special operator, no module action of a PBW monomial
    P, box = LEMMA_PROFILES["poly"]
    args = ((2, 0, 0, 0), 1, P, 2, box)
    lemmas = (verify_g_equals_u, verify_h_annihilates)
    for lemma in lemmas:
        lemma(*args)
    counts = Counter()
    apply_pbw, init = SLModule.apply_pbw, TensorOperator.__init__
    adopt = TensorOperator._from_kernel

    def counted_pbw(self, *rest):
        counts["apply_pbw"] += 1
        return apply_pbw(self, *rest)

    def counted_init(self, *rest, **options):
        counts["TensorOperator"] += 1
        init(self, *rest, **options)

    def counted_adopt(cls, terms, **fields):
        # operators built by a kernel are adopted, not checked
        counts["TensorOperator"] += 1
        return adopt(terms, **fields)

    monkeypatch.setattr(SLModule, "apply_pbw", counted_pbw)
    monkeypatch.setattr(TensorOperator, "__init__", counted_init)
    monkeypatch.setattr(TensorOperator, "_from_kernel", classmethod(counted_adopt))
    assert all(lemma(*args)["pass"] for lemma in lemmas)
    assert counts == Counter()
    # the counters see the work of a cold build
    memo.clear()
    assert verify_g_equals_u(*args)["pass"]
    assert counts["apply_pbw"] > 0 and counts["TensorOperator"] > 0


def test_warm_pi_and_generator_actions_check_no_vector(monkeypatch):
    # with its rows memoised, pi or a member's action reads the rows and
    # adopts its image: no vector is checked again
    n = 3
    gens = GeneratorSet.default(n)
    vectors = [
        FVector.basis(P, make_wedge_module(n, r), key, 0)
        for P, key in ((WeightModuleP.polynomial(n), (1, 2, 1)),
                       (WeightModuleP.laurent(n), (-1, 0, 2)))
        for r in range(n)
    ]

    def images():
        return [pi(v) for v in vectors] + [gens.act(gi, v) for gi in (0, 5) for v in vectors]

    cold = images()
    hits = derham._derham_rows.cache_info().hits, structure._member_rows.cache_info().hits
    init = FVector.__init__
    checked = []

    def counted(self, *args, **options):
        checked.append(args)
        init(self, *args, **options)

    monkeypatch.setattr(FVector, "__init__", counted)
    assert images() == cold and checked == []
    assert derham._derham_rows.cache_info().hits == hits[0] + len(vectors)
    assert structure._member_rows.cache_info().hits == hits[1] + 2 * len(vectors)
    assert sum(not v.is_zero() for v in cold) > len(cold) // 2


def _outside_vector(space):
    """A basis vector of the space's window that the space does not contain."""
    for w in sorted(space.labels):
        for key, midx in space.labels[w]:
            vec = FVector.basis(space.module_p, space.module_m, key, midx)
            if not space.contains(vec):
                return w, vec
    raise AssertionError("the space fills its window")


def test_memoised_spaces_are_values_and_grown_spaces_are_new():
    box = TruncationBox((0, 0), (4, 4))
    twisted = WeightModuleP.twisted(2)
    tbox = TruncationBox((-4, -4), (-1, -1))
    memo.clear()
    spaces = [
        (pi_image, (_A2, 1, box)),
        (pi_kernel, (_A2, 1, box)),
        (partial_span, (twisted, tbox)),
    ]
    for make, args in spaces:
        space = make(*args)
        assert make(*args) is space
        w, vec = _outside_vector(space)
        dims = space.dims()
        with pytest.raises(TypeError):
            space.blocks[w] = RowBasis(len(space.labels[w]))
        # a grown space is a new value over the same window
        rows = space.blocks[w].rows + [space.to_dense(vec)[w]]
        block = RowBasis(len(space.labels[w]))
        for row in rows:
            block.insert(row)
        grown = GradedSubspace(space.module_p, space.module_m, args[-1],
                               {**space.blocks, w: block})
        assert grown.labels is space.labels and grown.contains(vec)
        assert grown.dim_at(w) == dims[w] + 1
        # the Fraction echelon oracle spans the same block
        oracle = oracles.RowBasis(len(space.labels[w]))
        for row in rows:
            oracle.insert(row)
        assert oracle.dim == grown.dim_at(w)
        assert all(grown.blocks[w].contains(row) for row in oracle.rows)
        # the memoised space is untouched: it equals a cold build
        assert space.dims() == dims and not space.contains(vec)
        assert space.to_json_obj() == make.__wrapped__(*args).to_json_obj()


def test_memos_are_keyed_by_p():
    # laurent(1/2) and laurent(1/3) have the same support, and so the same
    # keys and dimensions: a memo keyed without P would hand one the other's
    # space, whose vectors it does not contain
    box = TruncationBox((-1,) * 3, (1,) * 3)
    wedge1 = make_wedge_module(3, 1)
    wedge2 = make_wedge_module(3, 2)
    gens = GeneratorSet.default(3)
    memo.clear()
    seen = []
    for shift in (Fraction(1, 2), Fraction(1, 3)):
        P = WeightModuleP.laurent(3, shift)
        image = pi_image(P, 2, box)
        assert image.module_p == P
        checked = 0
        for key in box.keys():
            for midx in range(wedge1.dim):
                out = oracles.derham(FVector.basis(P, wedge1, key, midx))
                if not out.is_zero() and box.contains(out.weights()[0]):
                    assert image.contains(out)
                    checked += 1
        assert checked > 0
        seen.append((image, pi_kernel(P, 1, box), partial_span(P, box),
                     derham._window(P, wedge2, box), structure._engine(P, wedge2, gens, box),
                     derham._lemma_sources(P, 1, box, True), derham._lemma_sources(P, 2, box, False),
                     structure._member_rows(gens.members[0], P, wedge2)))
    halves, thirds = seen
    assert all(a is not b for a, b in zip(halves, thirds))
    assert not halves[0].contains(
        oracles.derham(FVector.basis(thirds[0].module_p, wedge1, (1, 0, 0), 1))
    )


# one factor per way to give a line: the Laurent shift 1/2 four ways
_FACTORS = [
    Factor("poly"),
    Factor("twist"),
    Factor("laurent"),
    Factor("laurent", Fraction(1, 2)),
    Factor("laurent", Fraction(2, 4)),
    Factor("laurent", "1/2"),
    Factor("laurent", 3 / 2),
    Factor("laurent", -1 / 2),
]


def test_profile_identity_is_factor_by_factor():
    # single lines and every mixed pair: P == Q and hash(P) == hash(Q)
    # exactly when the factors agree one by one (a kinds-only key would
    # make laurent(1/2) and laurent(3/2) collide)
    grid = [[f] for f in _FACTORS] + [[f, g] for f in _FACTORS for g in _FACTORS]
    profiles = [(factors, WeightModuleP(factors)) for factors in grid]
    for factors, P in profiles:
        for others, Q in profiles:
            same = len(factors) == len(others) and all(
                f.kind == g.kind and f.shift == g.shift for f, g in zip(factors, others)
            )
            assert (P == Q) is same, (P, Q)
            assert (hash(P) == hash(Q)) is same, (P, Q)
    # the text is built once and kept, and reads as the factors do
    for factors, P in profiles:
        text = "[" + ",".join(repr(f) for f in factors) + "]"
        assert repr(P) == text and repr(P) is repr(P)


def test_a_factor_is_its_line():
    # a factor is the tuple (kind, q, p), so equal lines compare and hash
    # equal however the shift was spelt, and a profile keys on those tuples
    half = ("laurent", 2, 1)
    spelt = [Factor("laurent")] + [
        Factor("laurent", shift) for shift in (Fraction(1, 2), Fraction(2, 4), "1/2", 1 / 2)
    ]
    for f in spelt:
        assert f == half and hash(f) == hash(half)
    assert Factor("poly") == ("poly", 1, 0) and Factor("twist") == ("twist", 1, 0)
    assert WeightModuleP(spelt[:2]).factors == (half, half)
    # what a factor reads, as before it was a tuple
    poly, twist = Factor("poly"), Factor("twist")
    assert (poly.kind, poly.shift, repr(poly)) == ("poly", None, "poly")
    assert (twist.kind, twist.shift, repr(twist)) == ("twist", None, "twist")
    assert [poly.supports(k) for k in (-1, 0)] == [False, True]
    assert [twist.supports(k) for k in (-1, 0)] == [True, False]
    assert poly.exponent(3) == 3 and twist.exponent(-2) == -2
    assert type(poly.exponent(3)) is int
    for shift, text in ((Fraction(1, 2), "laurent(1/2)"), (Fraction(-7, 5), "laurent(-7/5)")):
        lam = Factor("laurent", shift)
        assert lam.kind == "laurent" and repr(lam) == text
        assert type(lam.shift) is Fraction and lam.shift == shift
        assert all(lam.supports(k) for k in (-5, -1, 0, 5))
        assert lam.exponent(3) == 3 + shift and type(lam.exponent(3)) is Fraction
    with pytest.raises(AttributeError):
        poly.kind = "twist"


def test_profiles_and_boxes_copy_and_pickle():
    # a copy, a deep copy and a pickle round trip go through the public
    # constructors, so each gives an equal object with an equal hash, and a
    # memo keyed by the original serves it
    values = [
        *_FACTORS,
        Factor("poly"),
        Factor("twist"),
        WeightModuleP.polynomial(2),
        WeightModuleP([Factor("twist"), Factor("laurent", Fraction(-7, 5))]),
        TruncationBox((0,), (1,)),
        TruncationBox((-3, 0), (5, 4), margin=1),
    ]
    for value in values:
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value) and twin == value, value
            assert hash(twin) == hash(value) and repr(twin) == repr(value), value
    P, M, box = WeightModuleP.polynomial(2), make_wedge_module(2, 1), TruncationBox((0, 0), (3, 3))
    derham._window.cache_clear()
    window = derham._window(P, M, box)
    for twin_p, twin_box in ((copy.copy(P), copy.deepcopy(box)), pickle.loads(pickle.dumps((P, box)))):
        assert derham._window(twin_p, M, twin_box) is window
    assert derham._window.cache_info().misses == 1


def test_outside_factors_are_refused():
    with pytest.raises(ArgumentError, match="unknown factor kind 'line'"):
        Factor("line")
    for kind in ("poly", "twist"):
        with pytest.raises(ArgumentError, match=f"{kind} factor takes no shift"):
            Factor(kind, Fraction(1, 2))
    for shift in (2, Fraction(4, 2), "-3"):
        with pytest.raises(StructureError, match="laurent shift must not be an integer"):
            Factor("laurent", shift)
    # a profile takes factors only: a bare factor, a plain line and a kind
    # name are not factors, though the first two iterate and compare alike
    for factors in (Factor("poly"), [("poly", 1, 0)], ["poly"], [Factor("poly"), "twist"]):
        with pytest.raises(ArgumentError, match="is not a Factor"):
            WeightModuleP(factors)


def test_an_evicted_engine_is_freed_by_reference_counting():
    # no table of an engine refers back to it (its capacity and the shared
    # move table fill from the window, mod, the shifts and the box), so an
    # engine that leaves the one-entry memo is freed with the cycle collector
    # off, whether or not it takes a quotient
    P, box = WeightModuleP.polynomial(2), TruncationBox((0, 0), (4, 4), margin=1)
    gens = GeneratorSet.default(2)
    wedge1 = make_wedge_module(2, 1)
    enabled = gc.isenabled()
    gc.disable()
    try:
        for ambient, mod in (("F", None), ("quotient", pi_kernel(P, 1, box))):
            structure._engine.cache_clear()
            evidence_simplicity(P, wedge1, ambient, box, r=1)
            engine = structure._engine(P, wedge1, gens, box, mod)
            assert structure._engine.cache_info().hits > 0
            assert engine.capacity and engine.moves and engine._matrices
            ref = weakref.ref(engine)
            del engine
            # evicted by the engine of another module
            structure._engine(P, make_wedge_module(2, 0), gens, box, None)
            assert ref() is None, ambient
    finally:
        if enabled:
            gc.enable()


def test_box_identity_is_its_bounds_and_margin():
    bounds = [((0, 0), (4, 4)), ((0, 0), (4, 5)), ((-1, 0), (4, 4))]
    boxes = [((lo, hi, m), TruncationBox(list(lo), list(hi), m))
             for lo, hi in bounds for m in (0, 1)]
    for key, box in boxes:
        for other, again in boxes:
            assert (box == again) is (key == other)
            assert (hash(box) == hash(again)) is (key == other)
        assert TruncationBox(*key) == box and hash(TruncationBox(*key)) == hash(box)


def test_equal_profiles_and_boxes_share_one_entry():
    # separately built but equal profiles and boxes hit the entry the first
    # built; a profile that differs in one shift never does
    def profile(shift):
        return WeightModuleP([Factor("laurent", shift), Factor("poly"), Factor("twist")])

    def box():
        return TruncationBox([-1, 0, -3], [1, 2, -1])

    wedge2 = make_wedge_module(3, 2)
    gens = GeneratorSet.default(3)
    builds = [
        (pi_image, lambda P, B: pi_image(P, 2, B)),
        (derham._lemma_sources, lambda P, B: derham._lemma_sources(P, 1, B, True)),
        (structure._engine, lambda P, B: structure._engine(P, wedge2, gens, B, None)),
    ]
    memo.clear()
    for cached, build in builds:
        before = cached.cache_info()
        first = build(profile(Fraction(1, 2)), box())
        for shift in (Fraction(2, 4), "1/2", 1 / 2):
            assert build(profile(shift), box()) is first
        info = cached.cache_info()
        assert (info.misses - before.misses, info.hits - before.hits) == (1, 3)
        for shift in (Fraction(3, 2), Fraction(-1, 2)):
            assert build(profile(shift), box()) is not first
        assert cached.cache_info().misses == info.misses + 2


def test_memos_are_keyed_by_margin():
    # the outer box alone fixes what these memos build, but a box is its
    # bounds and its margin: two boxes that differ in the margin only do not
    # share an entry
    narrow = TruncationBox((0,) * 3, (4,) * 3, margin=1)
    wide = TruncationBox((0,) * 3, (4,) * 3, margin=2)
    assert narrow != wide
    wedge1 = make_wedge_module(3, 1)
    gens = GeneratorSet.default(3)
    builds = [
        lambda box: pi_image(_A3, 2, box),
        lambda box: pi_kernel(_A3, 1, box),
        lambda box: partial_span(_A3, box),
        lambda box: derham._window(_A3, wedge1, box),
        lambda box: structure._engine(_A3, wedge1, gens, box),
        lambda box: derham._lemma_sources(_A3, 1, box, True),
        lambda box: derham._lemma_sources(_A3, 2, box, False),
    ]
    memo.clear()
    for build in builds:
        first = build(narrow)
        assert build(narrow) is first
        assert build(wide) is not first
    reports = [evidence_simplicity(_A3, wedge1, "F", box) for box in (narrow, wide)]
    assert [r["params"]["margin"] for r in reports] == [1, 2]
    assert len(reports[0]["seeds"]) > len(reports[1]["seeds"])


def test_hw_module_of_a_fundamental_weight_shares_the_engine():
    # hw:e_r is the exterior power itself, so its evidence reuses the
    # engine that wedge:r built, once for the evidence and once per closure
    box = TruncationBox((0,) * 3, (4,) * 3, margin=2)
    memo.clear()
    evidence_simplicity(_A3, make_wedge_module(3, 1), "F", box)
    before = structure._engine.cache_info()
    report = evidence_simplicity(_A3, weylmod.make_hw_module((1, 0), 3), "F", box)
    after = structure._engine.cache_info()
    assert after.misses == before.misses
    assert after.hits == before.hits + 1 + len(report["seeds"])
