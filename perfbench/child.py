"""One fresh interpreter running one workload; prints one JSON object.

    python3 perfbench/child.py --mode setup|run|trace --workload W --seed S
        --seconds T [--spans PATH]

``setup`` stops after input generation, the point where the first case
would start.  ``run`` times every case.  ``trace`` does the same with the
tracer installed.  The caller puts the repository's ``src`` on PYTHONPATH
and passes the ``src`` directory as WEYLMOD_BENCH_SRC, which the imported
package must come from.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from time import perf_counter

from speed import SpeedMeter

REPEATS = 2


def _check_source():
    import weylmod

    src = Path(os.environ["WEYLMOD_BENCH_SRC"]).resolve()
    got = Path(weylmod.__file__).resolve()
    if src not in got.parents:
        sys.exit(f"weylmod was imported from {got}, not from {src}")


def _timed(case, cid, tracer, meter):
    """(result or exception, latency less the meter's time, start, end)."""
    spent = meter.spent
    t0 = perf_counter()
    try:
        if tracer is None:
            result = case.fn(*case.args)
        else:
            result = tracer.run_case(cid, case.fn, *case.args)
    except Exception as exc:  # a failing case is recorded, not fatal
        result = exc
    t1 = perf_counter()
    return result, t1 - t0 - (meter.spent - spent), t0, t1


def run_cases(cases, tracer=None):
    """Run each case REPEATS times back to back, keep the fastest time, and
    check the first result.

    The host's speed switches many times a second, so the faster of two
    back-to-back runs drops most of that noise from short cases.  The check
    runs outside the timing and, when tracing, with the tracer paused.
    Latencies exclude the speed meter's samples and are scaled to
    reference speed; the raw ones are returned too.
    """
    raw = []
    windows = []
    problems = []
    checked = []
    digest = hashlib.sha256()
    meter = SpeedMeter(on_sample=tracer.exclude if tracer is not None else None)
    with meter:
        for cid, case in enumerate(cases):
            runs = [_timed(case, cid, tracer, meter) for _ in range(REPEATS)]
            _, latency, t0, t1 = min(runs, key=lambda run: run[1])
            raw.append(latency)
            windows.append((t0, t1))
            result = runs[0][0]
            if isinstance(result, Exception):
                problem = f"{type(result).__name__}: {result}"
                count, record = 0, "error"
            else:
                if tracer is None:
                    problem, count, record = case.check(result)
                else:
                    with tracer.paused():
                        problem, count, record = case.check(result)
                if problem is None and any(run[0] != result for run in runs[1:]):
                    problem = "result differs between repeats"
            checked.append(count)
            if problem is not None:
                problems.append({"case": case.label, "problem": problem})
            digest.update(json.dumps([case.label, record], sort_keys=True).encode())
            digest.update(b"\n")
    scaled = [lat * meter.scale(t0, t1) for lat, (t0, t1) in zip(raw, windows)]
    return {
        "latencies": scaled,
        "raw_latencies": raw,
        "reference_mean_s": statistics.fmean(meter.durations),
        "reference_samples": len(meter.durations),
        "problems": problems,
        "checked": checked,
        "digest": digest.hexdigest(),
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    # setup: import weylmod and generate the inputs, with the speed measured
    meter = SpeedMeter()
    start = perf_counter()
    with meter:
        _check_source()
        from workloads import make_cases

        cases = make_cases(args.workload, args.seed, args.seconds)
        end = perf_counter()
        setup_end = time.monotonic()
    out = {
        "setup_end": setup_end,
        "setup_meter_s": meter.spent,
        "setup_scale": meter.scale(start, end),
    }
    if args.mode != "setup":
        tracer = None
        if args.mode == "trace":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        try:
            out.update(run_cases(cases, tracer))
        finally:
            if tracer is not None:
                tracer.uninstall()
        out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            out["layers"] = tracer.layer_metrics()
            out["spans"] = tracer.span_count
            if args.spans:
                tracer.write_spans(args.spans)
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
