"""Tests of the benchmark itself:  python3 -m pytest perfbench -q

The closed forms must equal brute counts on small boxes, a tampered
expectation must be caught, tracing must change no result and must put
every wrapped function back.
"""

from __future__ import annotations

import itertools
import json
from array import array
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import weylmod  # noqa: E402
from weylmod import (  # noqa: E402
    Factor,
    TruncationBox,
    WeightModuleP,
    make_hw_module,
    make_wedge_module,
    partial_span,
    pi_image,
    pi_kernel,
    subquotient_inventory,
    verify_g_equals_u,
    verify_h_annihilates,
)
from weylmod.derham import ambient_labels  # noqa: E402

import child  # noqa: E402
import expect  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from speed import MIN_SAMPLES, SpeedMeter  # noqa: E402
from tracer import COUNTS, SPANS, Tracer, exact_counters  # noqa: E402

PROFILES = {
    "poly": WeightModuleP.polynomial(3),
    "twist": WeightModuleP.twisted(3),
    "laurent": WeightModuleP.laurent(3, Fraction(2, 3)),
    "mixed": WeightModuleP([Factor("twist"), Factor("poly"), Factor("laurent")]),
}
SMALL_BOX = TruncationBox((-2, -1, -2), (1, 2, 1))


def _supported(P, key):
    return all(expect.supported(f.kind, k) for f, k in zip(P.factors, key))


# -- closed forms against brute counts ------------------------------------------


@pytest.mark.parametrize("name", sorted(PROFILES))
@pytest.mark.parametrize("r", [2])
def test_lemma_counts_match_brute_and_library(name, r):
    P = PROFILES[name]
    n = P.rank
    keys = [k for k in expect.box_weights(SMALL_BOX) if _supported(P, k)]
    brute_g = len(keys) * len(list(itertools.combinations(range(n), r)))
    brute_h = 0
    for key in keys:
        for T in itertools.combinations(range(n), r - 1):
            live = [
                l for l in range(n)
                if l not in T and not expect.derivative_kills(P.factors[l].kind, key[l])
            ]
            brute_h += bool(live)
    assert expect.g_equals_u_checked(P, r, SMALL_BOX) == brute_g
    assert expect.h_annihilates_checked(P, r, SMALL_BOX) == brute_h
    alpha = (2, 0, -1)
    assert verify_g_equals_u(alpha, 1, P, r, SMALL_BOX)["checked"] == brute_g
    assert verify_h_annihilates(alpha, 1, P, r, SMALL_BOX)["checked"] == brute_h


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_koszul_blocks_match_de_rham_spaces(name):
    P = PROFILES[name]
    ks = expect.kinds(P)
    for r in range(0, P.rank):
        ambient = {w: len(ambient_labels(P, make_wedge_module(P.rank, r), w))
                   for w in SMALL_BOX.keys()}
        kernel = pi_kernel(P, r, SMALL_BOX).dims()
        image = pi_image(P, r, SMALL_BOX).dims() if r >= 1 else {}
        for w in SMALL_BOX.keys():
            amb, im, ker = expect.koszul_block(ks, w, r)
            assert amb == ambient[w], (r, w)
            assert ker == kernel[w], (r, w)
            if r >= 1:
                assert im == image[w], (r, w)


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_derivative_span_and_ambient_totals(name):
    P = PROFILES[name]
    box = TruncationBox(SMALL_BOX.lower, SMALL_BOX.upper, margin=1)
    span = partial_span(P, SMALL_BOX).dims()
    assert expect.delta_p_total(P, box) == sum(span[w] for w in box.inner_keys())
    for r in range(P.rank + 1):
        M = make_wedge_module(P.rank, r)
        brute = sum(len(ambient_labels(P, M, w)) for w in box.inner_keys())
        assert expect.module_ambient_total(P, expect.wedge_weights(P.rank, r), box) == brute
    P2 = WeightModuleP([P.factors[0], P.factors[2]])
    adjoint = make_hw_module((2,), 2)
    box2 = TruncationBox((-3, -2), (2, 3), margin=1)
    brute = sum(len(ambient_labels(P2, adjoint, w)) for w in box2.inner_keys())
    assert sorted(expect.sym2_weights(2)) == sorted(adjoint.weights)
    assert expect.module_ambient_total(P2, expect.sym2_weights(2), box2) == brute


def test_inventory_layers_match_library():
    configs = [
        (WeightModuleP.polynomial(2), 0, TruncationBox((0, 0), (3, 3))),
        (WeightModuleP.twisted(2), 0, TruncationBox((-3, -3), (-1, -1))),
        (WeightModuleP.polynomial(2), 1, TruncationBox((0, 0), (3, 3))),
        (WeightModuleP.polynomial(3), 1, TruncationBox((0, 0, 0), (2, 2, 2))),
        (WeightModuleP.polynomial(3), 2, TruncationBox((0, 0, 0), (2, 2, 2))),
        (PROFILES["mixed"], 1, SMALL_BOX),
        (PROFILES["twist"], 2, TruncationBox((-3, -3, -3), (0, 0, 0))),
    ]
    for P, r, box in configs:
        report = subquotient_inventory(P, r, box)
        got = [(layer["name"], layer["totalDim"]) for layer in report["layers"]]
        assert got == expect.inventory_layers(P, r, box), (repr(P), r)


# -- the checks can fail ---------------------------------------------------------


def _first(cases, kind):
    return next(c for c in cases if c.label["kind"] == kind)


def test_tampered_expectations_are_caught():
    lemma = _first(workloads.make_cases("lemma-grid", 7, 1), "h-annihilates")
    report = lemma.fn(*lemma.args)
    assert lemma.check(report)[0] is None
    assert workloads._lemma_checker(report["checked"] + 1)(report)[0] is not None
    failing = dict(report, **{"pass": False, "failures": [{"key": [0] * 4}]})
    assert workloads._lemma_checker(report["checked"])(failing)[0] is not None
    empty = dict(report, checked=0)
    assert workloads._lemma_checker(0)(empty)[0] == "checked nothing"

    cubic = _first(workloads.make_cases("operator-algebra", 7, 1), "cubic")
    result = cubic.fn(*cubic.args)
    assert cubic.check(result)[0] is None
    alpha, i, j = cubic.args
    wrong = workloads._interp_checker(lambda: workloads._cubic_leading(alpha, j, i))
    assert wrong(result)[0] is not None

    P = WeightModuleP.polynomial(2)
    box = TruncationBox((0, 0), (4, 4), margin=2)
    report = weylmod.evidence_simplicity(P, make_wedge_module(2, 1), "F", box)
    seeds = expect.module_ambient_total(P, expect.wedge_weights(2, 1), box)
    image = expect.image_dim_total(P, 1, box)
    ok = workloads._evidence_checker(False, seeds, image_seeds=image)
    assert ok(report)[0] is None
    for bad in (
        workloads._evidence_checker(True, seeds),
        workloads._evidence_checker(False, seeds + 1),
        workloads._evidence_checker(False, seeds, image_seeds=image + 1),
    ):
        assert bad(report)[0] is not None


def test_failed_case_is_counted():
    cases = workloads.make_cases("lemma-grid", 3, 1)[:3]
    broken = cases[1]
    cases[1] = workloads.Case(broken.label, broken.fn, broken.args,
                              workloads._lemma_checker(-1))
    cases.append(workloads.Case({"kind": "raises"}, lambda: 1 / 0, (), None))
    out = child.run_cases(cases)
    assert [p["case"] for p in out["problems"]] == [broken.label, {"kind": "raises"}]
    assert out["checked"][-1] == 0
    assert len(out["latencies"]) == 4


# -- tracing -----------------------------------------------------------------------


def _namespace_snapshot():
    out = {}
    for name, module in sys.modules.items():
        if name == "weylmod" or name.startswith("weylmod."):
            for key, value in vars(module).items():
                out[(name, key)] = value
                if isinstance(value, type):
                    for attr, member in vars(value).items():
                        out[(name, key, attr)] = member
    return out


def test_tracer_wraps_where_looked_up_and_restores():
    before = _namespace_snapshot()
    original = weylmod.weightmod.tensor_act
    tracer = Tracer()
    with tracer:
        for module in (weylmod.weightmod, weylmod.derham, weylmod.structure, weylmod):
            assert module.tensor_act is not original
            assert module.tensor_act.__wrapped__ is original
        assert weylmod.linalg.RowBasis.insert.__wrapped__ is not None
    after = _namespace_snapshot()
    assert before.keys() == after.keys()
    changed = [k for k in before if before[k] is not after[k]]
    assert changed == []


def test_tracing_changes_no_result_and_counters_repeat():
    picks = {
        "operator-algebra": ["iota-hom", "quartic"],
        "lemma-grid": ["g-equals-u", "h-annihilates"],
        "closure-evidence": ["simplicity", "inventory"],
    }
    for workload, kinds in picks.items():
        cases = workloads.make_cases(workload, 5, 1)
        small = [_first(cases, k) for k in kinds]
        if workload == "closure-evidence":
            small[0] = min(
                (c for c in cases if c.label["kind"] == "simplicity"),
                key=lambda c: c.label["box"][1][0] - c.label["box"][0][0],
            )
        plain = child.run_cases(small)
        runs = []
        for _ in range(2):
            tracer = Tracer()
            with tracer:
                traced = child.run_cases(small, tracer)
            runs.append((traced, tracer.layer_metrics()))
        assert not plain["problems"]
        assert {plain["digest"], runs[0][0]["digest"], runs[1][0]["digest"]} == {plain["digest"]}
        assert exact_counters(runs[0][1]) == exact_counters(runs[1][1])
        layers = runs[0][1]
        for layer, _, _ in SPANS:
            assert f"{layer}.calls" in layers and f"{layer}.self_s" in layers
        for name, _, _ in COUNTS:
            assert name in layers


def test_span_file_round_trip(tmp_path):
    case = _first(workloads.make_cases("lemma-grid", 2, 1), "g-equals-u")
    tracer = Tracer()
    with tracer:
        child.run_cases([case], tracer)
    path = tmp_path / "spans.bin"
    tracer.write_spans(path)
    from tracer import read_spans

    header, cols = read_spans(path)
    assert header["count"] == tracer.span_count == len(cols["start"])
    names = [header["names"][i] for i in cols["name"]]
    assert names.count("case") == child.REPEATS and "derham.lemma" in names
    roots = [i for i, name in enumerate(names) if name == "case"]
    assert all(cols["parent"][i] == -1 for i in roots)
    assert list(cols["id"]) != sorted(cols["id"])  # rows are in closing order
    assert all(cols["end"][i] >= cols["start"][i] for i in range(header["count"]))


# -- run.py pieces ------------------------------------------------------------------


def test_latency_summary_tail_has_ten_cases_beyond():
    summary = run.latency_summary([k / 1000 for k in range(100)])
    assert summary["tail_percentile"] == 90.0
    assert summary["tail_ms"] == pytest.approx(89.0)
    assert summary["cases_beyond_tail"] == 10
    assert summary["p50_ms"] == pytest.approx(49.5)


def test_speed_meter_uses_nearby_samples():
    meter = SpeedMeter()
    meter.start()
    meter.stop()
    meter.times = array("d", [0.0, 10.0, 20.0, 30.0])
    meter.durations = array("d", [1e-3, 2e-3, 4e-3, 8e-3])
    meter._prefix = [0.0, 1e-3, 3e-3, 7e-3, 15e-3]
    # one sample in the window, widened to the MIN_SAMPLES nearest
    assert MIN_SAMPLES == 3
    assert meter.local_reference(19.9, 20.1) == pytest.approx(14e-3 / 3)
    assert meter.local_reference(99.0, 99.0) == pytest.approx(14e-3 / 3)
    assert meter.local_reference(-0.5, 30.5) == pytest.approx(15e-3 / 4)


def test_names_agree_with_benchmark_json():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert tuple(workloads.WORKLOADS) == run.WORKLOADS
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    fake = {"latencies": [0.001] * 20, "peak_rss_kb": 2048, "problems": []}
    e2e = run.end_to_end(fake, [0.1, 0.2, 0.3])
    assert list(e2e) == [m["name"] for m in bench["end_to_end"]]
    assert [u for _, u in e2e.values()] == [m["unit"] for m in bench["end_to_end"]]
    layers = set(Tracer().layer_metrics()) | {"trace.overhead_s"}
    assert layers == {m["name"] for m in bench["per_layer"]}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lemma-grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert not (tmp_path / "perfbench" / "out").exists()
