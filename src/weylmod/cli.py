"""Command-line interface: verification suites, de Rham and structure
computations, operator application, and expression parsing.

Exit codes: 0 when every check passes, 1 when any check fails, 2 for
configuration or usage errors.  Reports are byte-deterministic for a fixed
configuration; wall times are only included with --timings.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

from .errors import ArgumentError, DomainError, StructureError
from .derham import partial_span, pi, pi_image, pi_kernel
from .exprparse import (
    ParseError,
    VectorLiteral,
    _coerce_literal,
    format_vector,
    parse_expr,
)
from .indices import TruncationBox
from .structure import (
    GeneratorSet,
    closure,
    evidence_simplicity,
    subquotient_inventory,
)
from .suites import SUITES
from .tensorop import TensorOperator, from_weyl
from .ugl import UglElement
from .vectorfields import VectorField
from .weightmod import (
    WeightModuleP,
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
    for c in report.get("checks", [report]):
        detail = []
        for key in ("checked", "cases", "polynomialWitnesses"):
            if key in c:
                detail.append(f"{key}={c[key]}")
        if c.get("failures"):
            detail.append(f"failures={len(c['failures'])}")
        lines.append(
            "\t".join(
                [c.get("check", "?"), "ok" if c.get("pass") else "FAIL", ",".join(detail)]
            )
        )
    if "summary" in report:
        s = report["summary"]
        lines.append(f"summary\t{'ok' if report['pass'] else 'FAIL'}\t"
                     f"passed={s['passed']}/{s['total']}")
    return "\n".join(lines)


def _print_json(obj) -> int:
    """Print a command's JSON output under the report schema."""
    print(emit({"schema": SCHEMA, **obj}, "json"))
    return 0


def _finish(report, args) -> int:
    print(emit(report, args.format))
    if "pass" in report:
        return 0 if report["pass"] else 1
    return 0


def _finish_one(check, args) -> int:
    """Emit a single check as a one-check report."""
    return _finish(_report([check]), args)


# -- verify ------------------------------------------------------------------


# the keyword a suite reads a flag into, where it is not the flag's own name
_KEYWORDS = {"delta_window": "delta_hi", "lam": "shift"}


def _given(args, *dests):
    """The keyword arguments of those flags among ``dests`` that were given."""
    return {_KEYWORDS.get(d, d): getattr(args, d) for d in dests if getattr(args, d) is not None}


def _suite_options(args):
    """The keyword arguments the named suite reads from the command line,
    besides the rank: the flags given only, so each default is the suite's
    own."""
    options = _given(args, "deg", "seed", "count", "delta_window", "key_radius", "margin", "lam")
    if args.alpha_window is not None:
        options["lo"], options["hi"] = parse_window(args.alpha_window)
    i, j = args.i, args.j
    if args.suite == "eq-cubic" and (i is None) != (j is None):
        raise ArgumentError("eq-cubic needs both --i and --j")
    if i is not None:
        options.update({"pairs": [(i, j)]} if args.suite == "eq-cubic" else {"i_list": [i]})
    return options


# the flags that some suite does not read, each parsed with default None,
# and the suites that read it: any other suite would ignore it, so it is
# refused there
_FLAG_READERS = {
    "deg": ("iota-hom", "all"),
    "alpha_window": ("eq-cubic", "eq-quartic"),
    "i": ("eq-cubic", "eq-quartic"),
    "j": ("eq-cubic",),
    "seed": ("derham", "all"),
    "count": ("derham",),
    "delta_window": ("g-u", "h-ln"),
    "key_radius": ("g-u", "h-ln"),
    "margin": ("unique-submodule", "delta-p", "all"),
    "lam": ("g-u", "h-ln", "derham", "delta-p", "bounded", "all"),
}


def cmd_verify(args) -> int:
    n = args.n
    if n < 2:
        raise ArgumentError("rank must be at least 2")
    for dest, readers in _FLAG_READERS.items():
        if getattr(args, dest) is not None and args.suite not in readers:
            flag = "--lambda" if dest == "lam" else "--" + dest.replace("_", "-")
            raise ArgumentError(f"verify {args.suite} does not read {flag}")
    if args.suite == "all":
        # the sizes are all's own; --seed, --lambda and --margin pass on
        # when given
        shift = _given(args, "lam")
        tasks = [
            ("iota-hom", {"n": n, "deg": 3 if args.deg is None else args.deg}),
            ("eq-cubic", {"n": n, "lo": -1, "hi": 2}),
            ("derham", {"n": n, "count": 25, **_given(args, "seed", "lam")}),
            ("unique-submodule", {"n": n, **_given(args, "margin")}),
            ("delta-p", {"n": n, **_given(args, "margin", "lam")}),
            ("bounded", {"n": n, **shift}),
        ]
        if n >= 3:
            lemma = {"n": n, "delta_hi": 1, "key_radius": 2, **shift}
            tasks.insert(2, ("eq-quartic", {"n": n, "lo": -1, "hi": 2}))
            tasks.append(("g-u", lemma))
            tasks.append(("h-ln", lemma))
    else:
        tasks = [(args.suite, {"n": n, **_suite_options(args)})]
    report = run_suite(tasks, jobs=args.jobs, timings=args.timings)
    empty = [
        c["check"] for c in report["checks"] if "error" not in c and not c["checked"]
    ]
    if empty:
        raise ArgumentError(
            f"the configuration leaves nothing to check in {', '.join(empty)}"
        )
    return _finish(report, args)


# -- derham ------------------------------------------------------------------


def _module_from_args(args) -> WeightModuleP:
    if not args.P:
        raise ArgumentError("this command needs --P, e.g. --P [poly,poly]")
    return parse_module_descriptor(args.P)


def _read_vector(flag: str, text: str, n: int) -> VectorLiteral:
    """The module vector that a flag's text names; scalars, Weyl
    polynomials and wedge labels read as vectors too."""
    value = parse_expr(text, n)
    try:
        return _coerce_literal(value, n)
    except StructureError as exc:
        raise ArgumentError(f"{flag} {text!r} is not a module vector: {exc}") from exc


def cmd_derham(args) -> int:
    P = _module_from_args(args)
    n = P.rank
    if args.action == "pi":
        if not args.input:
            raise ArgumentError("pi needs --input")
        value = _read_vector("--input", args.input, n)
        image = pi(value.bind(P))
        return _print_json({"input": str(value), "image": format_vector(image)})
    box = parse_box(args.box or "-3..3", n)
    if args.action == "gen-ln":
        space = pi_image(P, args.r, box)
    elif args.action == "gen-ln-tilde":
        space = pi_kernel(P, args.r, box)
    elif args.action == "delta-p":
        space = partial_span(P, box)
    else:
        raise ArgumentError(f"unknown derham action {args.action!r}")
    return _print_json({"space": space.to_json_obj()})


# -- structure ---------------------------------------------------------------


def cmd_structure(args) -> int:
    P = _module_from_args(args)
    n = P.rank
    box = parse_box(args.box or "0..5", n, args.margin)
    if args.action == "closure":
        if not args.seed:
            raise ArgumentError("closure needs --seed")
        if args.format != "json":
            raise ArgumentError("closure prints a JSON report only; drop --format")
        gens = GeneratorSet.default(n, cap=args.gen_cap)
        seeds = []
        module_m = None
        for text in args.seed:
            vec = _read_vector("--seed", text, n).bind(P, module_m)
            module_m = vec.module_m
            seeds.append(vec)
        return _print_json({"closure": closure(seeds, gens, box).to_json_obj()})
    if args.action == "simplicity":
        gens = GeneratorSet.default(n, cap=args.gen_cap)
        module_m = parse_finite_module(args.M, n) if args.M else None
        report = evidence_simplicity(
            P, module_m, args.ambient, box, r=args.r, gens=gens
        )
        return _finish_one(report, args)
    if args.action == "inventory":
        if args.r is None:
            raise ArgumentError("inventory needs --r")
        return _finish_one(subquotient_inventory(P, args.r, box), args)
    raise ArgumentError(f"unknown structure action {args.action!r}")


# -- act and parse -----------------------------------------------------------


def cmd_act(args) -> int:
    P = _module_from_args(args)
    n = P.rank
    op_value = parse_expr(args.op, n)
    vec = _read_vector("--vector", args.vector, n).bind(P)
    if args.via_iota:
        if not isinstance(op_value, WeylElement):
            raise ArgumentError("--via-iota needs a vector-field expression")
        return _print_json({"result": format_vector(sn_act(VectorField(op_value), vec))})
    if isinstance(op_value, WeylElement):
        op = from_weyl(op_value)
    elif isinstance(op_value, TensorOperator):
        op = op_value
    elif isinstance(op_value, (int, Fraction)):
        op = TensorOperator.one(n) * op_value
    else:
        raise ArgumentError("--op must be an operator expression")
    out = tensor_act(op, vec, allow_laurent=args.allow_laurent)
    return _print_json({"result": format_vector(out)})


def cmd_parse(args) -> int:
    value = parse_expr(args.expr, args.n)
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


def build_parser() -> argparse.ArgumentParser:
    # --format applies to the commands that emit check reports
    formatted = argparse.ArgumentParser(add_help=False)
    formatted.add_argument("--format", choices=("json", "tsv"), default="json")
    parser = argparse.ArgumentParser(
        prog="weylmod",
        description="Exact verification suite for divergence-free vector "
        "field modules over Weyl algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run a named verification suite",
                       parents=[formatted])
    v.add_argument("--jobs", type=positive_int, default=1)
    v.add_argument("--timings", action="store_true",
                   help="include wall times (breaks byte determinism)")
    v.add_argument("suite", choices=sorted(SUITES) + ["all"])
    v.add_argument("--n", type=int, default=2)
    v.add_argument("--deg", type=int, default=None)
    v.add_argument("--alpha-window", default=None, help="e.g. --alpha-window=-2..3")
    v.add_argument("--i", type=int, default=None)
    v.add_argument("--j", type=int, default=None)
    v.add_argument("--delta-window", type=int, default=None)
    v.add_argument("--key-radius", type=int, default=None)
    v.add_argument("--count", type=int, default=None)
    v.add_argument("--margin", type=int, default=None)
    v.add_argument("--seed", type=int, default=None,
                   help="override SHENWEYL_SEED for sampled checks")
    v.add_argument("--lambda", dest="lam", type=parse_rational, default=None,
                   help="shift for Laurent factors in the standard profiles")
    v.set_defaults(fn=cmd_verify)

    dr = sub.add_parser("derham", help="de Rham maps and graded subspaces")
    dr.add_argument("action", choices=("pi", "gen-ln", "gen-ln-tilde", "delta-p"))
    dr.add_argument("--P", required=True, help='module descriptor, e.g. "[poly,poly]"')
    dr.add_argument("--r", type=int, default=1)
    dr.add_argument("--input", default=None, help="vector expression for pi")
    dr.add_argument("--box", default=None, help="e.g. --box=-3..5")
    dr.set_defaults(fn=cmd_derham)

    st = sub.add_parser("structure", help="closures, simplicity evidence, inventory",
                        parents=[formatted])
    st.add_argument("action", choices=("closure", "simplicity", "inventory"))
    st.add_argument("--P", "--module", dest="P", required=True)
    st.add_argument("--M", default=None, help="wedge:r or hw:a1,a2,...")
    st.add_argument("--r", type=int, default=None)
    st.add_argument("--ambient", choices=("F", "Ln", "deltaP", "quotient"), default="F")
    st.add_argument("--seed", action="append", help="seed vector expression")
    st.add_argument("--box", default=None)
    st.add_argument("--margin", type=int, default=2)
    st.add_argument("--gen-cap", type=int, default=1)
    st.set_defaults(fn=cmd_structure)

    ac = sub.add_parser("act", help="apply an operator to a module vector")
    ac.add_argument("--op", required=True)
    ac.add_argument("--vector", required=True)
    ac.add_argument("--P", required=True)
    ac.add_argument("--via-iota", action="store_true",
                    help="treat --op as a vector field and act through iota")
    ac.add_argument("--allow-laurent", action="store_true")
    ac.set_defaults(fn=cmd_act)

    pa = sub.add_parser("parse", help="parse and canonicalize an expression")
    pa.add_argument("expr")
    pa.add_argument("--n", type=int, default=None)
    pa.set_defaults(fn=cmd_parse)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # an exact value may have more digits than the interpreter's int-string
    # limit allows (a limit that Python before 3.10.7 does not have)
    limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.fn(args)
    except (ArgumentError, DomainError, StructureError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
