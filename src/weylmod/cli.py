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
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

from .errors import ArgumentError, DomainError, StructureError
from .derham import partial_span, pi, pi_image, pi_kernel
from .exprparse import (
    ParseError,
    VectorLiteral,
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
from .tensorop import TensorOperator, from_weyl, shen_iota
from .ugl import UglElement
from .vectorfields import VectorField, is_divergence_free
from .weightmod import (
    WeightModuleP,
    make_hw_module,
    make_wedge_module,
    parse_module_descriptor,
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


def _run_one(task):
    name, kwargs = task
    return SUITES[name](**kwargs)


def run_suite(tasks, jobs: int = 1, timings: bool = False):
    """Execute (suite-name, kwargs) tasks and assemble the report.

    A failing check never cancels its siblings; results keep task order and
    the report is deterministic unless timings are requested.
    """
    checks = []
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            started = time.monotonic()
            results = list(pool.map(_run_one, tasks))
            elapsed = time.monotonic() - started
        for rec in results:
            checks.append(rec)
        if timings and checks:
            checks[-1]["wallTimeTotalMs"] = int(elapsed * 1000)
    else:
        for task in tasks:
            started = time.monotonic()
            rec = _run_one(task)
            if timings:
                rec["wallTimeMs"] = int((time.monotonic() - started) * 1000)
            checks.append(rec)
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


def _finish(report, args) -> int:
    print(emit(report, args.format))
    if "pass" in report:
        return 0 if report["pass"] else 1
    return 0


# -- verify ------------------------------------------------------------------


def cmd_verify(args) -> int:
    n = args.n
    if n < 2:
        raise ArgumentError("rank must be at least 2")
    tasks = []
    if args.suite == "all":
        tasks = [
            ("iota-hom", {"n": n, "deg": 3 if args.deg is None else args.deg}),
            ("eq-cubic", {"n": n, "lo": -1, "hi": 2}),
            ("derham", {"n": n, "count": 25, "seed": args.seed}),
            ("unique-submodule", {"n": n}),
            ("delta-p", {"n": n}),
            ("bounded", {"n": n}),
        ]
        if n >= 3:
            tasks.insert(2, ("eq-quartic", {"n": n, "lo": -1, "hi": 2}))
            tasks.append(("g-u", {"n": n, "delta_hi": 1, "key_radius": 2}))
            tasks.append(("h-ln", {"n": n, "delta_hi": 1, "key_radius": 2}))
    elif args.suite == "iota-hom":
        tasks = [("iota-hom", {"n": n, "deg": 4 if args.deg is None else args.deg})]
    elif args.suite in ("eq-cubic", "eq-quartic"):
        lo, hi = parse_window(args.alpha_window or "-2..3")
        kwargs = {"n": n, "lo": lo, "hi": hi}
        if args.suite == "eq-cubic" and args.i and args.j:
            kwargs["pairs"] = [(args.i, args.j)]
        if args.suite == "eq-quartic" and args.i:
            kwargs["i_list"] = [args.i]
        tasks = [(args.suite, kwargs)]
    elif args.suite in ("g-u", "h-ln"):
        tasks = [
            (
                args.suite,
                {
                    "n": n,
                    "delta_hi": args.delta_window,
                    "key_radius": args.key_radius,
                    "shift": args.lam,
                },
            )
        ]
    elif args.suite == "derham":
        tasks = [("derham", {"n": n, "count": args.count, "seed": args.seed,
                             "shift": args.lam})]
    elif args.suite == "unique-submodule":
        tasks = [("unique-submodule", {"n": n, "margin": args.margin})]
    elif args.suite == "delta-p":
        tasks = [("delta-p", {"n": n, "margin": args.margin, "shift": args.lam})]
    elif args.suite == "bounded":
        tasks = [("bounded", {"n": n, "shift": args.lam})]
    else:
        raise ArgumentError(f"unknown suite {args.suite!r}")
    report = run_suite(tasks, jobs=args.jobs, timings=args.timings)
    empty = [c["check"] for c in report["checks"] if not c["checked"]]
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


def cmd_derham(args) -> int:
    P = _module_from_args(args)
    n = P.rank
    if args.action == "pi":
        if not args.input:
            raise ArgumentError("pi needs --input")
        value = parse_expr(args.input, n)
        if isinstance(value, WeylElement):
            value = _weyl_as_literal(value, n)
        if not isinstance(value, VectorLiteral):
            raise ArgumentError("--input must be a module vector")
        vec = value.bind(P)
        image = pi(vec, args.k)
        print(json.dumps({"schema": SCHEMA, "input": str(value),
                          "image": format_vector(image)}, indent=2, sort_keys=True))
        return 0
    box = parse_box(args.box or "-3..3", n, args.margin)
    if args.action == "gen-ln":
        space = pi_image(P, args.r, box)
    elif args.action == "gen-ln-tilde":
        space = pi_kernel(P, args.r, box)
    elif args.action == "delta-p":
        space = partial_span(P, box)
    else:
        raise ArgumentError(f"unknown derham action {args.action!r}")
    obj = {"schema": SCHEMA, "space": space.to_json_obj()}
    print(json.dumps(obj, indent=2, sort_keys=True))
    return 0


# -- structure ---------------------------------------------------------------


def cmd_structure(args) -> int:
    P = _module_from_args(args)
    n = P.rank
    box = parse_box(args.box or "0..5", n, args.margin)
    if args.action == "closure":
        if not args.seed:
            raise ArgumentError("closure needs --seed")
        gens = GeneratorSet.default(n, cap=args.gen_cap)
        seeds = []
        module_m = None
        for text in args.seed:
            value = parse_expr(text, n)
            if isinstance(value, (int, Fraction)):
                value = WeylElement.one(n) * value
            if isinstance(value, WeylElement):
                value = _weyl_as_literal(value, n)
            if not isinstance(value, VectorLiteral):
                raise ArgumentError(f"seed {text!r} is not a module vector")
            vec = value.bind(P, module_m)
            module_m = vec.module_m
            seeds.append(vec)
        report = closure(seeds, gens, box)
        obj = {"schema": SCHEMA, "closure": report.to_json_obj()}
        print(json.dumps(obj, indent=2, sort_keys=True))
        return 0
    if args.action == "simplicity":
        gens = GeneratorSet.default(n, cap=args.gen_cap)
        module_m = parse_finite_module(args.M, n) if args.M else None
        report = evidence_simplicity(
            P, module_m, args.ambient, box, r=args.r, gens=gens
        )
        wrapped = {
            "schema": SCHEMA,
            "checks": [report],
            "summary": {
                "total": 1,
                "passed": int(report["pass"]),
                "failed": int(not report["pass"]),
            },
            "pass": report["pass"],
        }
        return _finish(wrapped, args)
    if args.action == "inventory":
        report = subquotient_inventory(P, args.r, box)
        wrapped = {
            "schema": SCHEMA,
            "checks": [report],
            "summary": {
                "total": 1,
                "passed": int(report["pass"]),
                "failed": int(not report["pass"]),
            },
            "pass": report["pass"],
        }
        return _finish(wrapped, args)
    raise ArgumentError(f"unknown structure action {args.action!r}")


def _weyl_as_literal(a: WeylElement, n: int) -> VectorLiteral:
    terms = {}
    for (t_exp, d_exp), c in a.terms.items():
        if any(d_exp):
            raise ArgumentError("module vectors cannot contain derivatives")
        terms[(t_exp, ())] = c
    return VectorLiteral(n, terms)


# -- act and parse -----------------------------------------------------------


def cmd_act(args) -> int:
    P = _module_from_args(args)
    n = P.rank
    op_value = parse_expr(args.op, n)
    vec_value = parse_expr(args.vector, n)
    if isinstance(vec_value, WeylElement):
        vec_value = _weyl_as_literal(vec_value, n)
    if not isinstance(vec_value, VectorLiteral):
        raise ArgumentError("--vector must be a module vector")
    vec = vec_value.bind(P)
    if args.via_iota:
        if not isinstance(op_value, WeylElement):
            raise ArgumentError("--via-iota needs a vector-field expression")
        field = VectorField(op_value)
        if not is_divergence_free(field):
            raise ArgumentError("--via-iota needs a divergence-free field")
        op = shen_iota(field)
    elif isinstance(op_value, WeylElement):
        op = from_weyl(op_value)
    elif isinstance(op_value, TensorOperator):
        op = op_value
    elif isinstance(op_value, (int, Fraction)):
        op = TensorOperator.one(n) * op_value
    else:
        raise ArgumentError("--op must be an operator expression")
    out = tensor_act(op, vec, allow_laurent=args.allow_laurent)
    print(
        json.dumps(
            {"schema": SCHEMA, "result": format_vector(out)},
            indent=2,
            sort_keys=True,
        )
    )
    return 0


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
    print(
        json.dumps(
            {"schema": SCHEMA, "kind": kind, "canonical": text, "value": obj},
            indent=2,
            sort_keys=True,
        )
    )
    return 0


# -- argument wiring ---------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "tsv"), default="json")
    common.add_argument("--jobs", type=int, default=1)
    common.add_argument("--timings", action="store_true",
                        help="include wall times (breaks byte determinism)")
    parser = argparse.ArgumentParser(
        prog="weylmod",
        description="Exact verification suite for divergence-free vector "
        "field modules over Weyl algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run a named verification suite",
                       parents=[common])
    v.add_argument("suite", choices=sorted(SUITES) + ["all"])
    v.add_argument("--n", type=int, default=2)
    v.add_argument("--deg", type=int, default=None)
    v.add_argument("--alpha-window", default=None, help="e.g. --alpha-window=-2..3")
    v.add_argument("--i", type=int, default=None)
    v.add_argument("--j", type=int, default=None)
    v.add_argument("--delta-window", type=int, default=2)
    v.add_argument("--key-radius", type=int, default=3)
    v.add_argument("--count", type=int, default=100)
    v.add_argument("--margin", type=int, default=2)
    v.add_argument("--seed", type=int, default=None,
                   help="override SHENWEYL_SEED for sampled checks")
    v.add_argument("--lambda", dest="lam", type=parse_rational, default="1/2",
                   help="shift for Laurent factors in the standard profiles")
    v.set_defaults(fn=cmd_verify)

    dr = sub.add_parser("derham", help="de Rham maps and graded subspaces",
                        parents=[common])
    dr.add_argument("action", choices=("pi", "gen-ln", "gen-ln-tilde", "delta-p"))
    dr.add_argument("--P", required=True, help='module descriptor, e.g. "[poly,poly]"')
    dr.add_argument("--r", type=int, default=1)
    dr.add_argument("--k", type=int, default=None)
    dr.add_argument("--input", default=None, help="vector expression for pi")
    dr.add_argument("--box", default=None, help="e.g. --box=-3..5")
    dr.add_argument("--margin", type=int, default=0)
    dr.set_defaults(fn=cmd_derham)

    st = sub.add_parser("structure", help="closures, simplicity evidence, inventory",
                        parents=[common])
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

    ac = sub.add_parser("act", help="apply an operator to a module vector",
                        parents=[common])
    ac.add_argument("--op", required=True)
    ac.add_argument("--vector", required=True)
    ac.add_argument("--P", required=True)
    ac.add_argument("--via-iota", action="store_true",
                    help="treat --op as a vector field and act through iota")
    ac.add_argument("--allow-laurent", action="store_true")
    ac.set_defaults(fn=cmd_act)

    pa = sub.add_parser("parse", help="parse and canonicalize an expression",
                        parents=[common])
    pa.add_argument("expr")
    pa.add_argument("--n", type=int, default=None)
    pa.set_defaults(fn=cmd_parse)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ArgumentError, DomainError, StructureError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
