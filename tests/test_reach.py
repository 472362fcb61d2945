"""Every function of the library is entered by a command, or is named in
``UNREACHED`` with the reason it stays in ``src``."""

import ast
import contextlib
import io
import json
import sys
from pathlib import Path

from weylmod import cli, memo

SRC = Path(__file__).resolve().parent.parent / "src" / "weylmod"
CLI_DATA = Path(__file__).parent / "data" / "cli"

# the commands traced: every CLI golden, then the smallest verify all
COMMANDS = [case["argv"] for case in json.loads((CLI_DATA / "commands.json").read_text())]
COMMANDS.append(["verify", "all", "--n", "2"])

TEMPLATES = ("the template-with-rows path, which perfbench's operator-algebra "
             "workload calls (ROADMAP items 1 and 2)")
PICKLE = "the copy and pickle protocol of a value, which the tests check; no command copies"
PROTOCOL = "value protocol: the tests compare, negate and print values; no command does"

# the library functions that no traced command enters, by dotted name
# (module, then qualified name), each with its reason
UNREACHED = {
    # ROADMAP item 2 deletes or moves these once perfbench no longer calls
    # them
    "linalg.rref": "perfbench's tracer wraps it by name; the tests' Fraction echelon oracle",
    "tensorop._at": TEMPLATES,
    "tensorop._checked_nodes": TEMPLATES,
    "tensorop._evaluated": TEMPLATES,
    "tensorop._interpolation_rows": TEMPLATES,
    "tensorop._no_terms": TEMPLATES,
    "tensorop._node_product": TEMPLATES,
    "tensorop._node_template": TEMPLATES,
    "tensorop._primitive": TEMPLATES,
    "tensorop._template_kernel": TEMPLATES,
    "tensorop.cubic_identity_residual": TEMPLATES,
    "tensorop.cubic_m_product": TEMPLATES,
    "tensorop.cubic_target": "the target that the tests' per-alpha identity oracle reads",
    "tensorop.interpolate_coefficients": TEMPLATES,
    "tensorop.interpolation_matrix": "run at import for the identity weights, then by "
                                     "the template-with-rows path",
    "tensorop.iota_hom_residual.<locals>.residual": "evaluates a live iota pair; the live "
                                                    "table is empty at every rank 2..6",
    "tensorop.quartic_identity_residual": TEMPLATES,
    "tensorop.quartic_m_product": TEMPLATES,
    "tensorop.special_operator": TEMPLATES,
    # refusal and FAIL branches that only the tests reach
    "terms.Frozen.__setattr__": "refuses a rebinding; no command rebinds a value",
    # copies and pickles, and the memo registry outside a command
    "derham.GradedSubspace.__reduce__": PICKLE,
    "indices.TruncationBox.__reduce__": PICKLE,
    "terms.Poly.__reduce__": PICKLE,
    "terms.TermMap.__reduce__": PICKLE,
    "weightmod.Factor.__reduce__": PICKLE,
    "weightmod.Factor.shift": "read by Factor.__reduce__ and the tests",
    "weightmod.SLModule.__copy__": PICKLE,
    "weightmod.SLModule.__deepcopy__": PICKLE,
    "weightmod.SLModule.__reduce__": PICKLE,
    "weightmod.WeightModuleP.__reduce__": PICKLE,
    "cli.positive_int": "the type of verify --jobs, which CI runs at n = 3 and 4",
    "memo.bounded": "run at import, where each memo is declared",
    "memo.register": "run at import, where each memo is declared",
    "memo.clear": "empties the memos for CI and the tests",
    "memo.stats": "counts the memos for CI and the tests",
    # unit constructors and the value protocol
    "ugl.UglElement.zero": "a unit constructor",
    "weyl.WeylTerms.zero": "a unit constructor",
    "terms.TermMap.__eq__": PROTOCOL,
    "terms.TermMap.__neg__": PROTOCOL,
    "terms.Poly.__rsub__": PROTOCOL,
    "terms.Poly.__repr__": PROTOCOL,
    "terms.TermMap._text": "the monomial text that each element class states for repr",
    "weightmod.SLModule.__repr__": PROTOCOL,
    "indices.TruncationBox.__repr__": PROTOCOL,
    # the direct box test that the numbered move table is checked against
    "indices.TruncationBox.contains": "the tests' direct move enumeration "
                                      "(oracles.moves); the move table places "
                                      "shifts by coordinate ranges",
}


def library_functions() -> dict:
    """{(file, first line): (dotted name, lines)} of every ``def`` of the
    library, nested ones included.  The first line is that of the first
    decorator, as in the function's code object; lines run from the
    ``def`` to the end of the body."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(str(path), first)] = (
                    f"{path.stem}.{name}", child.end_lineno - child.lineno + 1
                )
                walk(child, path, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")
            else:
                walk(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text()), path, "")
    return found


def entered(commands) -> set:
    """(file, first line) of every code object that a profiler ``call``
    event enters while ``cli.main`` runs each command, output discarded.
    The memos are emptied first, since a memo hit enters nothing."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    memo.clear()
    previous = sys.getprofile()
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        sys.setprofile(profile)
        try:
            for argv in commands:
                cli.main(list(argv))
        finally:
            sys.setprofile(previous)
    return seen


def unreached(commands=COMMANDS) -> list:
    """(dotted name, lines) of every library function that no command
    enters, in name order."""
    seen = entered(commands)
    return sorted(fn for key, fn in library_functions().items() if key not in seen)


def test_the_trace_sees_only_what_runs():
    names = {name for name, _ in unreached([["parse", "3", "--n", "1"]])}
    assert "cli.parse" not in names and "exprparse.parse_expr" not in names
    assert {"cli.act", "structure.closure", "derham.pi"} <= names


def test_every_function_is_entered_by_a_command_or_named():
    names = {name for name, _ in unreached()}
    assert all(UNREACHED.values())
    assert {
        "unreached and not named": sorted(names - set(UNREACHED)),
        "named and reached": sorted(set(UNREACHED) - names),
    } == {"unreached and not named": [], "named and reached": []}
