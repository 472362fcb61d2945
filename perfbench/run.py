"""weylmod benchmark: one run of one workload, printed as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a checkout; the library is imported from ``src``.
Every run is a fresh interpreter (``child.py``), so the memo caches start
empty as they do for one ``weylmod`` command.  Times are scaled to a
reference host speed (``speed.py``).

--trace 0 prints the end-to-end metrics: run_s, case_p50_ms, case_tail_ms,
setup_s (median of several fresh starts), peak_rss_mb and ok_rate.
--trace 1 runs the workload untraced once and traced twice, checks that the
three runs give the same case digest and that the exact counters repeat,
and prints the per-layer metrics with the tracing overhead.

The last line of standard output is the result object; a run record with
the environment goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("operator-algebra", "lemma-grid", "closure-evidence")
SETUP_PROBES = 3
DEADLINE_S = 170
TAIL_BEYOND = 10


class BenchError(Exception):
    pass


def spawn(mode, args, deadline, spans=None):
    """Run child.py to completion; returns its JSON with setup_s filled in."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env["WEYLMOD_BENCH_SRC"] = str(SRC)
    cmd = [
        sys.executable, str(HERE / "child.py"), "--mode", mode,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds),
    ]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    t0 = time.monotonic()
    timeout = deadline - t0
    if timeout <= 0:
        raise BenchError(f"no time left for the {mode} child")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} child exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    # from spawning to the first case, less the meter's samples, at reference speed
    out["setup_s"] = (out["setup_end"] - t0 - out["setup_meter_s"]) * out["setup_scale"]
    return out


def latency_summary(latencies):
    """Median and the highest percentile with TAIL_BEYOND cases beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n > TAIL_BEYOND:
        tail = ordered[n - TAIL_BEYOND - 1]
        percentile = 100.0 * (n - TAIL_BEYOND) / n
    else:
        tail = ordered[-1]
        percentile = 100.0
    return {
        "cases": n,
        "p50_ms": statistics.median(ordered) * 1e3,
        "tail_ms": tail * 1e3,
        "tail_percentile": percentile,
        "cases_beyond_tail": min(TAIL_BEYOND, n - 1),
    }


def read_cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def read_commit():
    """HEAD of the checkout when it is a git work tree of its own, else None."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "weylmod").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(args):
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": read_cpu_model(),
        "commit": read_commit(),
        "source_sha256": source_digest(),
        "seed": args.seed,
        "seconds": args.seconds,
    }


def end_to_end(run, setups):
    """The end-to-end metrics of one untraced run, as {name: (value, unit)}."""
    lat = latency_summary(run["latencies"])
    attempted = lat["cases"]
    return {
        "run_s": (sum(run["latencies"]), "s"),
        "case_p50_ms": (lat["p50_ms"], "ms"),
        "case_tail_ms": (lat["tail_ms"], "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (run["peak_rss_kb"] / 1024.0, "MB"),
        "ok_rate": ((attempted - len(run["problems"])) / attempted, "ratio"),
    }


def untraced(args, deadline, record):
    setups = [spawn("setup", args, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    run = spawn("run", args, deadline)
    setups.append(run["setup_s"])
    attempted = len(run["latencies"])
    failed = len(run["problems"])
    record.update(
        setup_samples_s=setups,
        latency=latency_summary(run["latencies"]),
        raw_run_s=sum(run["raw_latencies"]),
        reference_mean_s=run["reference_mean_s"],
        digest=run["digest"],
        problems=run["problems"][:20],
        checked_total=sum(run["checked"]),
        error_rate=failed / attempted,
    )
    return attempted, failed, [], end_to_end(run, setups)


def traced(args, deadline, record):
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{args.workload}.bin"
    plain = spawn("run", args, deadline)
    first = spawn("trace", args, deadline, spans=spans)
    second = spawn("trace", args, deadline)
    from tracer import exact_counters, metric_unit

    mismatches = []
    digests = {plain["digest"], first["digest"], second["digest"]}
    if len(digests) != 1:
        mismatches.append("case digests differ between the untraced and traced runs")
    a = exact_counters(first["layers"])
    b = exact_counters(second["layers"])
    drift = sorted(k for k in a if a[k] != b.get(k))
    if drift:
        mismatches.append(f"exact counters differ between two traced runs: {drift}")
    plain_s = sum(plain["latencies"])
    traced_s = sum(first["latencies"])
    overhead = traced_s - plain_s
    record.update(
        digest=plain["digest"],
        digests_agree=len(digests) == 1,
        counters_repeat=not drift,
        untraced_run_s=plain_s,
        traced_run_s=traced_s,
        tracing_overhead_s=overhead,
        tracing_overhead_share=overhead / plain_s,
        spans_recorded=first["spans"],
        spans_file=str(spans.relative_to(ROOT)),
        problems=(plain["problems"] + first["problems"] + second["problems"])[:20],
        layers=first["layers"],
    )
    metrics = {name: (value, metric_unit(name)) for name, value in first["layers"].items()}
    metrics["trace.overhead_s"] = (overhead, "s")
    attempted = len(plain["latencies"])
    failed = max(len(r["problems"]) for r in (plain, first, second))
    return attempted, failed, mismatches, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "weylmod" / "__init__.py").is_file():
        print(f"error: no weylmod sources under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    compileall.compile_dir(str(SRC / "weylmod"), quiet=1)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args),
    }
    try:
        if args.trace:
            attempted, failed, mismatches, metrics = traced(args, deadline, record)
        else:
            attempted, failed, mismatches, metrics = untraced(args, deadline, record)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    correct = failed == 0 and not mismatches
    record.update(correct=correct, attempted=attempted, failed=failed, mismatches=mismatches)
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    for mismatch in mismatches:
        print(f"mismatch: {mismatch}")
    for p in record["problems"]:
        print(f"failed case: {json.dumps(p, sort_keys=True)}")
    if "latency" in record:
        lat = record["latency"]
        print(
            f"{args.workload} seed {args.seed}: {lat['cases']} cases, "
            f"tail = p{lat['tail_percentile']:.2f} ({lat['cases_beyond_tail']} cases beyond), "
            f"digest {record['digest'][:16]}"
        )
    else:
        print(
            f"{args.workload} seed {args.seed} traced: overhead "
            f"{record['tracing_overhead_s']:.3f} s "
            f"({100 * record['tracing_overhead_share']:.1f}%), "
            f"{record['spans_recorded']} spans in {record['spans_file']}"
        )
    print(f"run record: {path.relative_to(ROOT)}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
