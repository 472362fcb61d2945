"""Command-line interface: verification suites, de Rham and structure
computations, operator application, and expression parsing.

Exit codes: 0 when every check passes, 1 when any check fails, 2 for
configuration or usage errors.  Reports are byte-deterministic for a fixed
configuration; wall times are only included with --timings.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

from .errors import ArgumentError, DomainError, StructureError
from .derham import partial_span, pi, pi_image, pi_kernel
from .exprparse import ParseError, VectorLiteral, _lift, parse_expr
from .indices import TruncationBox
from .structure import (
    GeneratorSet,
    closure,
    evidence_simplicity,
    subquotient_inventory,
)
from .suites import SUITES
from .tensorop import TensorOperator
from .ugl import UglElement
from .vectorfields import VectorField
from .weightmod import (
    make_hw_module,
    make_wedge_module,
    parse_module_descriptor,
    sn_act,
    tensor_act,
)
from .weyl import WeylElement

SCHEMA = "weylmod-report/1"


def parse_window(text: str):
    """Parse "lo..hi" into an integer pair."""
    lo, _, hi = text.partition("..")
    try:
        return int(lo), int(hi)
    except ValueError as exc:
        raise ArgumentError(f"bad window {text!r}, expected lo..hi") from exc


def parse_box(text: str, n: int, margin: int = 0) -> TruncationBox:
    """Parse "-3..5" (every coordinate) or "-3..5,0..4,..." into a box."""
    pieces = [p for p in text.split(",") if p.strip()]
    if len(pieces) == 1:
        lo, hi = parse_window(pieces[0])
        return TruncationBox((lo,) * n, (hi,) * n, margin=margin)
    if len(pieces) != n:
        raise ArgumentError(f"box {text!r} has {len(pieces)} windows, rank is {n}")
    bounds = [parse_window(p) for p in pieces]
    return TruncationBox(
        tuple(lo for lo, _ in bounds), tuple(hi for _, hi in bounds), margin=margin
    )


def parse_finite_module(spec: str, n: int):
    """Parse "wedge:r" or "hw:a1,a2,..." into a finite-dimensional module."""
    kind, _, rest = spec.partition(":")
    if kind not in ("wedge", "hw"):
        raise ArgumentError(f"unknown module spec {spec!r}, use wedge:r or hw:a1,..")
    try:
        numbers = tuple(int(p) for p in rest.split(","))
    except ValueError as exc:
        raise ArgumentError(f"bad module spec {spec!r}, expected integers") from exc
    if kind == "wedge":
        if len(numbers) != 1:
            raise ArgumentError(f"bad module spec {spec!r}, use wedge:r")
        return make_wedge_module(n, numbers[0])
    return make_hw_module(numbers, n)


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational such as "1/2" (an argparse type)."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad rational {text!r}") from exc


def positive_int(text: str) -> int:
    """A worker count of at least 1 (an argparse type)."""
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer {text!r}") from exc
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _run_one(task):
    """One suite's check record and its wall time in ms.  A suite that
    crashes yields a failing record naming the error, with the traceback on
    stderr; configuration errors still propagate."""
    name, kwargs = task
    started = time.monotonic()
    try:
        rec = SUITES[name](**kwargs)
    except (ArgumentError, StructureError):
        raise
    except Exception as exc:
        traceback.print_exc()
        rec = {"check": name, "error": f"{type(exc).__name__}: {exc}", "pass": False}
    return rec, int((time.monotonic() - started) * 1000)


def _report(checks):
    """The report envelope of a list of check records."""
    passed = sum(1 for c in checks if c.get("pass"))
    return {
        "schema": SCHEMA,
        "checks": checks,
        "summary": {
            "total": len(checks),
            "passed": passed,
            "failed": len(checks) - passed,
        },
        "pass": passed == len(checks),
    }


def run_suite(tasks, jobs: int = 1, timings: bool = False):
    """Execute (suite-name, kwargs) tasks and assemble the report.

    A failing or crashing check never cancels its siblings; results keep
    task order and the report is deterministic unless timings are
    requested, which give every check its ``wallTimeMs``.  The pool never
    has more workers than tasks, since it may start all of them at its
    first submit.
    """
    workers = min(jobs, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_one, tasks))
    else:
        results = [_run_one(task) for task in tasks]
    if timings:
        for rec, ms in results:
            rec["wallTimeMs"] = ms
    return _report([rec for rec, _ in results])


def emit(report, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True)
    lines = ["check\tpass\tdetail"]
    for c in report["checks"]:
        detail = [f"{key}={c[key]}" for key in ("checked", "cases", "polynomialWitnesses")
                  if key in c]
        if c.get("failures"):
            detail.append(f"failures={len(c['failures'])}")
        status = "ok" if c.get("pass") else "FAIL"
        lines.append("\t".join([c.get("check", "?"), status, ",".join(detail)]))
    s, status = report["summary"], "ok" if report["pass"] else "FAIL"
    lines.append(f"summary\t{status}\tpassed={s['passed']}/{s['total']}")
    return "\n".join(lines)


def _print_json(obj) -> int:
    """Print a command's JSON output under the report schema."""
    print(emit({"schema": SCHEMA, **obj}, "json"))
    return 0


def _finish(report, fmt: str) -> int:
    print(emit(report, fmt))
    return 0 if report["pass"] else 1


# -- verify ------------------------------------------------------------------


# the flags that each suite reads: the parameters of its signature, each
# under the dest of its flag; all reads its own four and passes each on to
# the suites that read it
_SUITE_FLAGS = {name: frozenset(inspect.signature(suite).parameters)
                for name, suite in SUITES.items()}
_SUITE_FLAGS["all"] = frozenset(("deg", "seed", "margin", "shift"))

# the suites of verify all in report order, each at all's own sizes and
# from the least rank at which it checks something
_ALL = (
    ("iota-hom", {"deg": 3}, 2), ("eq-cubic", {"alpha_window": (-1, 2)}, 2),
    ("eq-quartic", {"alpha_window": (-1, 2)}, 3), ("derham", {"count": 25}, 2),
    ("unique-submodule", {}, 2), ("delta-p", {}, 2), ("bounded", {}, 2),
    ("g-u", {"delta_window": 1, "key_radius": 2}, 3),
    ("h-ln", {"delta_window": 1, "key_radius": 2}, 3),
)


def verify(suite, n=2, jobs=1, timings=False, format="json", **flags):
    """Run one suite, or every suite at all's sizes, on the given flags
    that it reads, so each default is the suite's own."""
    if n < 2:
        raise ArgumentError("rank must be at least 2")
    if "alpha_window" in flags:
        flags["alpha_window"] = parse_window(flags["alpha_window"])
    runs = [(name, sizes) for name, sizes, rank in _ALL if n >= rank] if suite == "all" \
        else [(suite, {})]
    tasks = [
        (name, {"n": n, **sizes, **{f: v for f, v in flags.items() if f in _SUITE_FLAGS[name]}})
        for name, sizes in runs
    ]
    report = run_suite(tasks, jobs=jobs, timings=timings)
    empty = [c["check"] for c in report["checks"] if "error" not in c and not c["checked"]]
    if empty:
        raise ArgumentError(f"the configuration leaves nothing to check in {', '.join(empty)}")
    return _finish(report, format)


# -- derham ------------------------------------------------------------------


def _read_vector(flag: str, text: str, n: int) -> VectorLiteral:
    """The module vector that a flag's text names; scalars, Weyl
    polynomials and wedge labels read as vectors too."""
    value = parse_expr(text, n)
    try:
        return _lift(value, VectorLiteral, n)
    except StructureError as exc:
        raise ArgumentError(f"{flag} {text!r} is not a module vector: {exc}") from exc


def derham_pi(P, input):
    P = parse_module_descriptor(P)
    value = _read_vector("--input", input, P.rank)
    return _print_json({"input": str(value), "image": str(pi(value.bind(P)))})


def derham_gen_ln(P, r=1, box="-3..3"):
    P = parse_module_descriptor(P)
    return _print_json({"space": pi_image(P, r, parse_box(box, P.rank)).to_json_obj()})


def derham_gen_ln_tilde(P, r=1, box="-3..3"):
    P = parse_module_descriptor(P)
    return _print_json({"space": pi_kernel(P, r, parse_box(box, P.rank)).to_json_obj()})


def derham_delta_p(P, box="-3..3"):
    P = parse_module_descriptor(P)
    return _print_json({"space": partial_span(P, parse_box(box, P.rank)).to_json_obj()})


# -- structure ---------------------------------------------------------------


def structure_closure(P, seed, box="0..5", margin=2, gen_cap=1, format="json"):
    P = parse_module_descriptor(P)
    n = P.rank
    box = parse_box(box, n, margin)
    if format != "json":
        raise ArgumentError("closure prints a JSON report only; drop --format")
    gens = GeneratorSet.default(n, cap=gen_cap)
    seeds, module_m = [], None
    for text in seed:
        seeds.append(_read_vector("--seed", text, n).bind(P, module_m))
        module_m = seeds[-1].module_m
    return _print_json({"closure": closure(seeds, gens, box).to_json_obj()})


def structure_simplicity(P, M=None, ambient="F", r=None, box="0..5", margin=2,
                         gen_cap=1, format="json"):
    P = parse_module_descriptor(P)
    n = P.rank
    box = parse_box(box, n, margin)
    gens = GeneratorSet.default(n, cap=gen_cap)
    module_m = parse_finite_module(M, n) if M else None
    report = evidence_simplicity(P, module_m, ambient, box, r=r, gens=gens)
    return _finish(_report([report]), format)


def structure_inventory(P, r, box="0..5", format="json"):
    P = parse_module_descriptor(P)
    report = subquotient_inventory(P, r, parse_box(box, P.rank))
    return _finish(_report([report]), format)


# -- act and parse -----------------------------------------------------------


def _operands(P, op, vector):
    """The rank, the operator expression and the vector of an act."""
    P = parse_module_descriptor(P)
    n = P.rank
    return n, parse_expr(op, n), _read_vector("--vector", vector, n).bind(P)


def act(P, op, vector, allow_laurent=False):
    n, op_value, vec = _operands(P, op, vector)
    op = _lift(op_value, TensorOperator, n)
    if not isinstance(op, TensorOperator):
        raise ArgumentError("--op must be an operator expression")
    out = tensor_act(op, vec, allow_laurent=allow_laurent)
    return _print_json({"result": str(out)})


def act_via_iota(P, op, vector):
    _, field, vec = _operands(P, op, vector)
    if not isinstance(field, WeylElement):
        raise ArgumentError("--via-iota needs a vector-field expression")
    return _print_json({"result": str(sn_act(VectorField(field), vec))})


def parse(expr, n=None):
    value = parse_expr(expr, n)
    if isinstance(value, (int, Fraction)):
        kind, text, obj = "scalar", str(value), str(value)
    elif isinstance(value, WeylElement):
        degrees = value.d_degrees()
        kind = "vector-field" if degrees and all(d == 1 for d in degrees) else "weyl"
        text, obj = str(value), value.to_json_obj()
    elif isinstance(value, UglElement):
        kind, text, obj = "ugl", str(value), value.to_json_obj()
    elif isinstance(value, TensorOperator):
        kind, text, obj = "tensor-operator", str(value), value.to_json_obj()
    elif isinstance(value, VectorLiteral):
        kind, text, obj = "module-vector", str(value), str(value)
    else:
        raise ArgumentError(f"unexpected value {type(value).__name__}")
    return _print_json({"kind": kind, "canonical": text, "value": obj})


# -- argument wiring ---------------------------------------------------------


# the function that runs each command by its action: the first argument of
# derham and structure, --via-iota for act; verify runs one function for
# every suite
_ACTIONS = {
    "derham": {"pi": derham_pi, "gen-ln": derham_gen_ln,
               "gen-ln-tilde": derham_gen_ln_tilde, "delta-p": derham_delta_p},
    "structure": {"closure": structure_closure, "simplicity": structure_simplicity,
                  "inventory": structure_inventory},
    "act": {None: act, "--via-iota": act_via_iota},
    "parse": {None: parse},
}


def build_parser() -> argparse.ArgumentParser:
    """Each flag's type, choices and help.  A flag that is not given stays
    out of the namespace (sub-parsers do not inherit the parent's
    ``argument_default``), so its default and whether it is required are
    stated by the signature of the function that reads it."""
    given_only = {"argument_default": argparse.SUPPRESS}
    # --format applies to the commands that emit check reports
    formatted = argparse.ArgumentParser(add_help=False, **given_only)
    formatted.add_argument("--format", choices=("json", "tsv"))
    parser = argparse.ArgumentParser(
        prog="weylmod",
        description="Exact verification suite for divergence-free vector "
        "field modules over Weyl algebras",
        **given_only,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run a named verification suite",
                       parents=[formatted], **given_only)
    v.add_argument("--jobs", type=positive_int)
    v.add_argument("--timings", action="store_true",
                   help="include wall times (breaks byte determinism)")
    v.add_argument("suite", choices=sorted(SUITES) + ["all"])
    for flag in ("--n", "--deg", "--i", "--j", "--delta-window", "--key-radius", "--count",
                 "--margin"):
        v.add_argument(flag, type=int)
    v.add_argument("--alpha-window", help="e.g. --alpha-window=-2..3")
    v.add_argument("--seed", type=int, help="the seed of sampled checks")
    v.add_argument("--lambda", dest="shift", type=parse_rational,
                   help="shift for Laurent factors in the standard profiles")

    dr = sub.add_parser("derham", help="de Rham maps and graded subspaces", **given_only)
    dr.add_argument("action", choices=_ACTIONS["derham"])
    dr.add_argument("--P", help='module descriptor, e.g. "[poly,poly]"')
    dr.add_argument("--r", type=int)
    dr.add_argument("--input", help="vector expression for pi")
    dr.add_argument("--box", help="e.g. --box=-3..5")

    st = sub.add_parser("structure", help="closures, simplicity evidence, inventory",
                        parents=[formatted], **given_only)
    st.add_argument("action", choices=_ACTIONS["structure"])
    st.add_argument("--P", "--module", dest="P")
    st.add_argument("--M", help="wedge:r or hw:a1,a2,...")
    for flag in ("--r", "--margin", "--gen-cap"):
        st.add_argument(flag, type=int)
    st.add_argument("--ambient", choices=("F", "Ln", "deltaP", "quotient"))
    st.add_argument("--seed", action="append", help="seed vector expression")
    st.add_argument("--box")

    ac = sub.add_parser("act", help="apply an operator to a module vector", **given_only)
    ac.add_argument("--op")
    ac.add_argument("--vector")
    ac.add_argument("--P")
    ac.add_argument("--via-iota", dest="action", action="store_const", const="--via-iota",
                    help="treat --op as a vector field and act through iota")
    ac.add_argument("--allow-laurent", action="store_true")

    pa = sub.add_parser("parse", help="parse and canonicalize an expression", **given_only)
    pa.add_argument("expr")
    pa.add_argument("--n", type=int)
    return parser


def _flag(dest: str) -> str:
    return "--lambda" if dest == "shift" else "--" + dest.replace("_", "-")


def _call(label: str, fn, given: dict, reads=frozenset()):
    """Run fn on the given flags: a flag that neither its signature nor
    ``reads`` names, or a parameter without a default that is not given,
    is a configuration error."""
    params = inspect.signature(fn).parameters
    for dest in sorted(given, key=_flag):
        if dest not in params and dest not in reads:
            raise ArgumentError(f"{label} does not read {_flag(dest)}")
    for dest, param in params.items():
        if param.default is param.empty and param.kind is not param.VAR_KEYWORD \
                and dest not in given:
            raise ArgumentError(f"{label} needs {_flag(dest)}")
    return fn(**given)


def main(argv=None) -> int:
    given = vars(build_parser().parse_args(argv))
    command = given.pop("command")
    # an exact value may have more digits than the interpreter's int-string
    # limit allows (a limit that Python before 3.10.7 does not have)
    limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        if command == "verify":
            suite = given["suite"]
            return _call(f"verify {suite}", verify, given, _SUITE_FLAGS[suite])
        action = given.pop("action", None)
        label = f"{command} {action}" if action else command
        return _call(label, _ACTIONS[command][action], given)
    except (ArgumentError, DomainError, StructureError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
