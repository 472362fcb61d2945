"""Spans and counters recorded from outside the program.

``Tracer.install()`` wraps public functions and methods of the ``weylmod``
modules where they are looked up: a module-level function is replaced in
every loaded ``weylmod`` module that imported it (``tensor_act`` lives in
``weightmod``, ``derham``, ``structure`` and the package namespace), and a
method is replaced on its class.  ``uninstall()`` puts every original back.
No source file is edited.

Spans are kept in memory as columns (id, name, start, end, parent, case)
and written out with ``write_spans`` after the run.  A span's self time is its
duration minus the time of its child spans, accumulated as the span closes.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# (layer, owner, attribute).  Owners are "module" or "module:Class".
SPANS = [
    ("weyl.mul", "weylmod.weyl:WeylElement", "__mul__"),
    ("vectorfields.bracket", "weylmod.vectorfields", "bracket"),
    ("ugl.mul", "weylmod.ugl:UglElement", "__mul__"),
    ("tensorop.mul", "weylmod.tensorop:TensorOperator", "__mul__"),
    ("tensorop.special_operator", "weylmod.tensorop", "special_operator"),
    ("tensorop.interpolate", "weylmod.tensorop", "interpolate_coefficients"),
    ("derham.lemma", "weylmod.derham", "verify_g_equals_u"),
    ("derham.lemma", "weylmod.derham", "verify_h_annihilates"),
    ("derham.spaces", "weylmod.derham", "pi_image"),
    ("derham.spaces", "weylmod.derham", "pi_kernel"),
    ("derham.spaces", "weylmod.derham", "partial_span"),
    ("weightmod.tensor_act", "weylmod.weightmod", "tensor_act"),
    ("linalg.insert", "weylmod.linalg:RowBasis", "insert"),
    ("linalg.reduce", "weylmod.linalg:RowBasis", "reduce"),
    ("linalg.rref", "weylmod.linalg", "rref"),
    ("structure.closure", "weylmod.structure", "closure"),
    ("structure.matrix", "weylmod.structure:ClosureEngine", "matrix"),
]

# Call counts only; their time stays in the enclosing span.
COUNTS = [
    ("weyl.elements_built", "weylmod.weyl:WeylElement", "__init__"),
    ("ugl.elements_built", "weylmod.ugl:UglElement", "__init__"),
    ("tensorop.elements_built", "weylmod.tensorop:TensorOperator", "__init__"),
    ("tensorop.shen_iota.calls", "weylmod.tensorop", "shen_iota"),
    ("weightmod.apply_pbw.calls", "weylmod.weightmod:SLModule", "apply_pbw"),
    ("weightmod.fvectors_built", "weylmod.weightmod:FVector", "__init__"),
    ("derham.pi.calls", "weylmod.derham", "pi"),
]

CASE = "case"


def _resolve(owner):
    module_name, _, class_name = owner.partition(":")
    module = sys.modules[module_name]
    return getattr(module, class_name) if class_name else module


def _loaded_weylmod_modules():
    return [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and (name == "weylmod" or name.startswith("weylmod."))
    ]


class Tracer:
    """One traced run: the span columns, per-layer totals and counters."""

    def __init__(self):
        self.names = []
        self._ids = {}
        # span columns, one row per span, appended when the span closes
        self.columns = {
            "id": array("i"),
            "name": array("H"),
            "start": array("d"),
            "end": array("d"),
            "parent": array("i"),
            "case": array("i"),
        }
        self.stack = []  # open spans as [span id, time of closed children]
        self.next_id = 0
        self.calls = []  # per name id
        self.self_s = []
        self.total_s = []
        self.counters = Counter()
        self.case_id = -1
        self.active = True
        self._patches = []
        self._engine_peak = 0
        self._case_span = self._span_wrapper(CASE, lambda fn, *args: fn(*args), None)

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
        return self._ids[name]

    def exclude(self, seconds):
        """Keep time spent outside the program (the speed meter's samples)
        out of the self time of the innermost open span."""
        if self.stack:
            self.stack[-1][1] += seconds

    def run_case(self, case_id, fn, *args):
        """Call fn(*args) as the root span of one case."""
        self.case_id = case_id
        try:
            return self._case_span(fn, *args)
        finally:
            self.case_id = -1

    def _span_wrapper(self, name, fn, after):
        nid = self._name_id(name)
        tracer = self
        stack = self.stack
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        cols = self.columns
        col_id, col_name, col_start = cols["id"], cols["name"], cols["start"]
        col_end, col_parent, col_case = cols["end"], cols["parent"], cols["case"]
        clock = perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = tracer.next_id
            tracer.next_id = sid + 1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                calls[nid] += 1
                total_s[nid] += dur
                self_s[nid] += dur - frame[1]
                if stack:
                    parent = stack[-1]
                    parent[1] += dur
                    col_parent.append(parent[0])
                else:
                    col_parent.append(-1)
                col_id.append(sid)
                col_name.append(nid)
                col_start.append(t0)
                col_end.append(t1)
                col_case.append(tracer.case_id)
            if after is not None:
                after(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name, fn):
        tracer = self
        counters = self.counters

        def wrapper(*args, **kwargs):
            if tracer.active:
                counters[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr, make):
        target = _resolve(owner)
        original = getattr(target, attr)
        if isinstance(target, type):
            self._patches.append((target, attr, target.__dict__[attr]))
            setattr(target, attr, make(original))
            return
        replacement = make(original)
        for module in _loaded_weylmod_modules():
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, value))
                    setattr(module, key, replacement)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        import weylmod  # noqa: F401  (loads the library modules)

        for layer, owner, attr in SPANS:
            after = _AFTER.get((layer, attr))
            self._patch(owner, attr, lambda fn, l=layer, a=after: self._span_wrapper(l, fn, a))
        for name, owner, attr in COUNTS:
            self._patch(owner, attr, lambda fn, n=name: self._count_wrapper(n, fn))
        self._patch_matrix_builds()

    def _patch_matrix_builds(self):
        """Count cache misses of ClosureEngine.matrix, which needs the cache
        size before the call, and the largest cache one engine holds."""
        from weylmod.structure import ClosureEngine

        traced = ClosureEngine.__dict__["matrix"]
        tracer = self

        def matrix(engine, gi, w):
            before = len(engine._matrices)
            out = traced(engine, gi, w)
            after = len(engine._matrices)
            if after > before and tracer.active:
                tracer.counters["structure.matrix.builds"] += 1
                tracer._engine_peak = max(tracer._engine_peak, after)
            return out

        matrix.__wrapped__ = traced
        self._patches.append((ClosureEngine, "matrix", traced))
        ClosureEngine.matrix = matrix

    @contextmanager
    def paused(self):
        """Let wrapped calls through unrecorded (the benchmark's own checks)."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -------------------------------------------------------------

    def _span_totals(self, layer):
        """(calls, self seconds, total seconds) of one span name."""
        i = self._ids.get(layer)
        if i is None:
            return 0, 0.0, 0.0
        return self.calls[i], self.self_s[i], self.total_s[i]

    def layer_metrics(self):
        """Every per-layer metric, counters exact and times in seconds."""
        import weylmod.ugl

        counters = self.counters
        out = {}
        for layer in dict.fromkeys(name for name, _, _ in SPANS):
            calls, self_s, _ = self._span_totals(layer)
            out[f"{layer}.calls"] = calls
            out[f"{layer}.self_s"] = self_s
        for name, _, _ in COUNTS:
            out[name] = counters[name]
        out["tensorop.mul.out_terms"] = counters["tensorop.mul.out_terms"]
        evaluations = counters["derham.lemma.evaluations"]
        lemma_s = self._span_totals("derham.lemma")[2]
        out["derham.lemma.evaluations"] = evaluations
        out["derham.lemma.evals_per_s"] = evaluations / lemma_s if lemma_s else 0.0
        inserts = self._span_totals("linalg.insert")[0]
        out["linalg.insert.grew_ratio"] = (
            counters["linalg.insert.grew"] / inserts if inserts else 0.0
        )
        out["structure.closure.applications"] = counters["structure.closure.applications"]
        targeted = counters["structure.closure.targeted"]
        out["structure.closure.reached_ratio"] = (
            counters["structure.closure.reached"] / targeted if targeted else 0.0
        )
        out["structure.matrix.builds"] = counters["structure.matrix.builds"]
        out["structure.matrix_cache_entries"] = self._engine_peak
        out["ugl.normal_cache_entries"] = len(weylmod.ugl._NORMAL_CACHE)
        return out

    @property
    def span_count(self):
        return len(self.columns["id"])

    def write_spans(self, path):
        """One JSON header line, then each column as a raw machine array.

        Rows are in closing order; ``id`` numbers spans in opening order and
        ``parent`` refers to it (-1 for a root).  ``case`` is the case index.
        """
        header = {
            "names": self.names,
            "count": self.span_count,
            "columns": [[label, col.typecode] for label, col in self.columns.items()],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for col in self.columns.values():
                col.tofile(fh)


def read_spans(path):
    """Inverse of ``Tracer.write_spans``: (header, {column: array})."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        cols = {}
        for label, typecode in header["columns"]:
            col = array(typecode)
            col.fromfile(fh, header["count"])
            cols[label] = col
    return header, cols


def is_time_metric(name) -> bool:
    return name.endswith("_s")


def metric_unit(name) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def exact_counters(metrics):
    """The metrics that must repeat exactly across runs of one seed."""
    return {k: v for k, v in metrics.items() if not is_time_metric(k)}


# -- per-call hooks ------------------------------------------------------------


def _after_tensor_mul(tracer, args, result):
    tracer.counters["tensorop.mul.out_terms"] += len(result.terms)


def _after_lemma(tracer, args, result):
    tracer.counters["derham.lemma.evaluations"] += result["checked"]


def _after_insert(tracer, args, result):
    if result:
        tracer.counters["linalg.insert.grew"] += 1


def _after_closure(tracer, args, report):
    tracer.counters["structure.closure.applications"] += report.applications
    if report.target_dims is not None:
        tracer.counters["structure.closure.targeted"] += 1
        if report.reached_target:
            tracer.counters["structure.closure.reached"] += 1


_AFTER = {
    ("tensorop.mul", "__mul__"): _after_tensor_mul,
    ("derham.lemma", "verify_g_equals_u"): _after_lemma,
    ("derham.lemma", "verify_h_annihilates"): _after_lemma,
    ("linalg.insert", "insert"): _after_insert,
    ("structure.closure", "closure"): _after_closure,
}
