"""Command-line behavior: determinism, exit codes, output formats."""

import argparse
import inspect
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from weylmod import cli, suites
from weylmod.cli import main, parse_box, parse_window
from weylmod.errors import ArgumentError
from weylmod.structure import evidence_simplicity
from weylmod.suites import (
    SUITES,
    check_eq_cubic,
    check_eq_quartic,
    check_g_u,
    check_h_ln,
    check_iota_hom,
)
from weylmod.weightmod import make_wedge_module, parse_module_descriptor


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_window_and_box():
    assert parse_window("-2..3") == (-2, 3)
    box = parse_box("-3..5", 2)
    assert box.lower == (-3, -3) and box.upper == (5, 5)
    box = parse_box("-3..5,0..4", 2, margin=1)
    assert box.lower == (-3, 0) and box.upper == (5, 4) and box.margin == 1
    with pytest.raises(ArgumentError):
        parse_window("nope")
    with pytest.raises(ArgumentError):
        parse_box("0..1,0..2,0..3", 2)


def test_parse_command_round_trip(capsys):
    code, out, _ = run_cli(capsys, "parse", "d[1]*t[1]", "--n", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] == "weyl"
    assert obj["canonical"] == "1 + t[1]*d[1]"
    code, out, _ = run_cli(capsys, "parse", "t[1]^2*d[1] - 2*t[1]*t[2]*d[2]")
    assert json.loads(out)["kind"] == "vector-field"
    code, out, _ = run_cli(capsys, "parse", "L[1,2;(-1,-1)]")
    assert json.loads(out)["canonical"] == "0"


def test_verify_exit_codes(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "eq-cubic", "--n", "2", "--alpha-window=-1..1"
    )
    assert code == 0
    report = json.loads(out)
    assert report["pass"] and report["summary"]["failed"] == 0


def test_config_error_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "structure", "closure", "--P", "[poly,poly]", "--box", "0..1",
        "--margin", "3", "--seed", "t[1]",
    )
    assert code == 2
    assert "error:" in err
    for argv in (
        ["verify", "iota-hom", "--n", "2", "--deg", "-1"],
        ["verify", "eq-cubic", "--n", "2", "--alpha-window=2..1"],
        ["verify", "g-u", "--n", "2"],
        ["verify", "derham", "--n", "2", "--lambda", "abc"],
        ["structure", "simplicity", "--P", "[poly,poly]", "--M", "hw:a"],
        ["structure", "simplicity", "--P", "[laurent(x)]", "--M", "wedge:1"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert "error:" in err and "Traceback" not in err, argv
    # --deg 0 is a real configuration, not a stand-in for the default
    code, out, _ = run_cli(capsys, "verify", "iota-hom", "--n", "2", "--deg", "0")
    assert code == 0
    assert json.loads(out)["checks"][0]["params"]["deg"] == 0


def test_empty_configurations_fail():
    # a check that looked at nothing does not pass: no monomial field below
    # degree 0, an empty alpha window, and no quartic index, no lemma degree
    # r in 2..n-1 at n = 2
    for report in (
        check_iota_hom(2, -1),
        check_eq_cubic(2, alpha_window=(2, 1)),
        check_eq_quartic(2),
        check_g_u(2),
        check_h_ln(2),
    ):
        assert report["checked"] == 0, report["check"]
        assert report["pass"] is False, report["check"]


def test_negative_gen_cap_exits_2(capsys):
    # every cap >= 0 keeps L[i,j] at alpha = 0; a cap below 0 leaves no
    # generator, a configuration error rather than a FAIL verdict
    for argv in (
        ["structure", "simplicity", "--P", "[poly,poly]", "--M", "hw:2",
         "--box", "0..5", "--gen-cap", "-1"],
        ["structure", "closure", "--P", "[poly,poly]", "--seed", "t[1]",
         "--box", "0..5", "--gen-cap", "-1"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and not out, argv
        assert "cap -1" in err and "Traceback" not in err, argv
    code, _, _ = run_cli(capsys, "structure", "closure", "--P", "[poly,poly]",
                         "--seed", "t[1]", "--box", "0..5", "--gen-cap", "0")
    assert code == 0


def test_evidence_that_cannot_decide_exits_2(capsys):
    # a cap-0 set raises no coordinate, and Ln fixes M to wedge^r: both are
    # configuration errors rather than FAIL verdicts or evidence for
    # another module
    for argv, message in (
        (["--P", "[poly,poly]", "--M", "hw:2", "--box", "0..5", "--gen-cap", "0"],
         "no generator raises coordinate 1"),
        (["--P", "[poly,poly,poly]", "--ambient", "Ln", "--r", "1", "--M", "hw:2,0",
          "--box", "0..4"], "ambient Ln fixes M to wedge(3,1)"),
    ):
        code, out, err = run_cli(capsys, "structure", "simplicity", *argv)
        assert code == 2 and not out, argv
        assert message in err and "Traceback" not in err, argv


def test_ambients_that_read_no_degree_refuse_one(capsys):
    # F and deltaP read no r: it is refused, by the library and on the
    # command line, not echoed into a report
    P, box = parse_module_descriptor("[poly,poly]"), parse_box("0..3", 2, margin=1)
    for ambient, module_m, flags in (("F", make_wedge_module(2, 1), ["--M", "wedge:1"]),
                                     ("deltaP", None, [])):
        with pytest.raises(ArgumentError, match=f"ambient {ambient} reads no r"):
            evidence_simplicity(P, module_m, ambient, box, r=1)
        code, out, err = run_cli(
            capsys, "structure", "simplicity", "--P", "[poly,poly]", *flags,
            "--ambient", ambient, "--r", "1", "--box", "0..3", "--margin", "1",
        )
        assert code == 2 and not out, ambient
        assert f"ambient {ambient} reads no r" in err and "Traceback" not in err, ambient


def test_inventory_without_a_degree_exits_2(capsys):
    # the subquotient chain is that of one exterior power: no --r is a
    # configuration error, not a TypeError from the range check
    code, out, err = run_cli(capsys, "structure", "inventory", "--P", "[poly,poly]",
                             "--box", "0..4")
    assert code == 2 and not out
    assert "inventory needs --r" in err and "Traceback" not in err


def test_quartic_index_out_of_range_names_the_index(capsys):
    # at n = 3 the only quartic index is 1; the message names the index
    # given, not the one two above it
    code, out, err = run_cli(capsys, "verify", "eq-quartic", "--n", "3", "--i", "2")
    assert code == 2 and not out
    assert "index 2 out of range 1..1" in err
    with pytest.raises(ArgumentError, match=r"index 3 out of range 1\.\.2"):
        check_eq_quartic(4, i=3)


@pytest.mark.parametrize(
    "argv, message",
    [
        # index 0 is an index given, not an absent one
        (("eq-quartic", "--n", "4", "--i", "0"), "index 0 out of range 1..2"),
        (("eq-cubic", "--n", "3", "--i", "0", "--j", "1"), "index 0 out of range 1..3"),
        # one index of a pair does not select a pair
        (("eq-cubic", "--n", "3", "--i", "1"), "eq-cubic needs both --i and --j"),
        (("eq-cubic", "--n", "3", "--j", "2"), "eq-cubic needs both --i and --j"),
    ],
)
def test_identity_index_flags_are_read_as_given(capsys, argv, message):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2 and not out
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("eq-quartic", "--n", "4", "--j", "3"), "--j"),
        (("iota-hom", "--n", "2", "--i", "1"), "--i"),
        (("all", "--n", "2", "--alpha-window=0..1"), "--alpha-window"),
        (("derham", "--n", "2", "--deg", "2"), "--deg"),
        # flags with a default are refused the same way
        (("iota-hom", "--n", "2", "--count", "5"), "--count"),
        (("eq-cubic", "--n", "2", "--key-radius", "9"), "--key-radius"),
        (("derham", "--n", "2", "--delta-window", "1"), "--delta-window"),
        (("bounded", "--n", "2", "--margin", "1"), "--margin"),
        (("unique-submodule", "--n", "2", "--lambda", "1/3"), "--lambda"),
    ],
)
def test_verify_refuses_a_flag_the_suite_does_not_read(capsys, argv, flag):
    # a flag that the suite would ignore is refused, so a report never
    # looks as if it honoured it
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2 and not out
    assert f"verify {argv[0]} does not read {flag}" in err and "Traceback" not in err


def test_a_suite_reads_its_flags_under_their_dests():
    # every flag of verify but its own is a parameter of some suite, and
    # every suite parameter but n is such a flag, so no table maps one to
    # the other
    (sub,) = [a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    dests = {a.dest for a in sub.choices["verify"]._actions
             if a.option_strings and a.dest != "help"}
    params = set().union(*(inspect.signature(s).parameters for s in SUITES.values()))
    assert dests - {"n", "jobs", "timings", "format"} == params - {"n"}


def _actions():
    """(command, action words, function, {dest: parser action}) of every
    command but verify, whose suites name their flags' dests in their
    signatures (``test_a_suite_reads_its_flags_under_their_dests``)."""
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for command, actions in cli._ACTIONS.items():
        flags = {
            a.dest: a for a in sub.choices[command]._actions
            if a.option_strings and a.dest not in ("help", "action")
        }
        for action, fn in actions.items():
            yield command, (action,) if action else (), fn, flags


# a valid value of every flag that the tests below pass
_VALUES = {
    "P": "[poly,poly]", "M": "wedge:1", "r": "1", "ambient": "F", "seed": "t[1]",
    "gen_cap": "1", "box": "0..3", "margin": "0", "input": "t[1]", "format": "json",
    "op": "L[1,2;(1,0)]", "vector": "t[1]*t[2]", "n": "2",
}


def _argv(flag_action, dest):
    return flag_action.option_strings[:1] + ([] if flag_action.nargs == 0 else [_VALUES[dest]])


def _needed(fn, flags, but=None):
    params = inspect.signature(fn).parameters.values()
    return [
        word for p in params
        if p.default is p.empty and p.name in flags and p.name != but
        for word in _argv(flags[p.name], p.name)
    ]


_UNREAD = [
    pytest.param(command, words, fn, flags, dest, id=" ".join((command, *words, dest)))
    for command, words, fn, flags in _actions()
    for dest in flags if dest not in inspect.signature(fn).parameters
]
_REQUIRED = [
    pytest.param(command, words, fn, flags, p.name, id=" ".join((command, *words, p.name)))
    for command, words, fn, flags in _actions()
    for p in inspect.signature(fn).parameters.values()
    if p.default is p.empty and p.name in flags
]


def test_the_unread_flags_are_the_ones_each_action_ignored():
    # on the parser, each of these flags was accepted by an action that
    # never read it, and the command printed the same bytes without it
    assert sorted(p.id for p in _UNREAD) == sorted([
        "derham pi r", "derham pi box", "derham gen-ln input",
        "derham gen-ln-tilde input", "derham delta-p r", "derham delta-p input",
        "structure closure M", "structure closure r", "structure closure ambient",
        "structure simplicity seed", "structure inventory M",
        "structure inventory ambient", "structure inventory seed",
        "structure inventory gen_cap", "structure inventory margin",
        "act --via-iota allow_laurent",
    ])


@pytest.mark.parametrize("command, words, fn, flags, dest", _UNREAD)
def test_an_action_refuses_a_flag_its_function_does_not_name(
    capsys, command, words, fn, flags, dest
):
    argv = [command, *words, *_needed(fn, flags), *_argv(flags[dest], dest)]
    code, out, err = run_cli(capsys, *argv)
    flag = flags[dest].option_strings[0]
    assert code == 2 and not out, argv
    assert err == f"error: {' '.join((command, *words))} does not read {flag}\n", argv


@pytest.mark.parametrize("command, words, fn, flags, dest", _REQUIRED)
def test_an_action_needs_each_parameter_without_a_default(
    capsys, command, words, fn, flags, dest
):
    argv = [command, *words, *_needed(fn, flags, but=dest)]
    code, out, err = run_cli(capsys, *argv)
    flag = flags[dest].option_strings[0]
    assert code == 2 and not out, argv
    assert err == f"error: {' '.join((command, *words))} needs {flag}\n", argv


def test_inventory_refuses_a_margin(capsys):
    # the inventory reads only the outer box, so a margin would change
    # nothing: the flag is refused, and a small box is valid without it
    argv = ["structure", "inventory", "--P", "[poly,poly]", "--r", "1", "--box", "0..3"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out)["pass"] and not err
    for margin in ("0", "2"):
        code, out, err = run_cli(capsys, *argv, "--margin", margin)
        assert code == 2 and not out
        assert err == "error: structure inventory does not read --margin\n"


@pytest.mark.parametrize("suite", sorted(SUITES))
@pytest.mark.parametrize("n", [2, 3])
def test_verify_defaults_are_the_suites_own(capsys, suite, n):
    # a flag not given is not passed on, so verify without flags reports
    # what the suite reports at its keyword defaults
    code, out, err = run_cli(capsys, "verify", suite, "--n", str(n))
    expected = cli.run_suite([(suite, {"n": n})])
    if not expected["checks"][0]["checked"]:
        # eq-quartic, g-u and h-ln need n >= 3
        assert code == 2 and not out and "leaves nothing to check" in err
        return
    assert code == 0 and out == cli.emit(expected, "json") + "\n"


def test_simplicity_under_an_empty_generator_set_exits_2(capsys):
    # at rank 1 there is no L[i,j], and a set that cannot act gives no
    # evidence either way; a closure under it is no verdict and still runs
    base = ["--P", "[poly]", "--box", "0..5"]
    code, out, err = run_cli(capsys, "structure", "simplicity", *base, "--M", "wedge:0")
    assert code == 2 and not out
    assert "generator set is empty" in err and "Traceback" not in err
    code, _, _ = run_cli(capsys, "structure", "closure", *base, "--seed", "t[1]")
    assert code == 0


def test_parse_errors_name_their_position_once(capsys):
    for text, message in (
        ("t[3]", "index 3 out of range 1..2"),
        ("E[1,3]", "index 3 out of range 1..2"),
        ("e[5]", "index 5 out of range 1..2"),
        ("L[1,2;(0,0,0)]", "alpha has rank 3, expected 2"),
        # the index is named ahead of L_op's "indices must differ"
        ("L[3,3;(0,0)]", "index 3 out of range 1..2"),
        ("1/0", "zero denominator"),
    ):
        code, out, err = run_cli(capsys, "parse", text, "--n", "2")
        assert code == 2 and not out, text
        assert err == f"error: {message} (at position 0)\n", text
    # a malformed L reads the same without --n, and every flag that reads an
    # expression refuses a zero denominator at the literal
    with_rank = run_cli(capsys, "parse", "L[1,2]", "--n", "2")
    assert with_rank[0] == 2 and "(at position 0)" in with_rank[2]
    assert run_cli(capsys, "parse", "L[1,2]") == with_rank
    code, out, err = run_cli(
        capsys, "derham", "pi", "--P", "[poly,poly]", "--input", "t[1] + 3/0"
    )
    assert code == 2 and not out
    assert err == "error: zero denominator (at position 7)\n"


def test_zero_to_a_negative_power_is_a_parse_error(capsys):
    # these raised ZeroDivisionError, a traceback and exit 1
    p = ["--P", "[poly,poly]"]
    for argv, pos in (
        (["parse", "0^-1", "--n", "1"], 1),
        (["parse", "(1-1)^-2", "--n", "1"], 5),
        (["derham", "pi", *p, "--input", "t[1] + 0^-1"], 8),
        (["act", "--op", "t[1]", "--vector", "0^-1", *p], 1),
        (["structure", "closure", *p, "--seed", "(1-1)^-2", "--box", "0..5"], 5),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and not out, argv
        assert err == f"error: zero has no negative power (at position {pos})\n", argv
    assert run_cli(capsys, "parse", "0^2", "--n", "1")[0] == 0


def _digits(value: int) -> str:
    """str(value), with the interpreter's int-string limit, where it has
    one, lifted for the call."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return str(value)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


def test_exact_values_past_the_int_string_limit_print_in_full(capsys):
    # these exited 1 with a ValueError traceback: the value, or the literal
    # in tokenize, has more digits than the int-string limit allows; the
    # command lifts the limit and restores it, also when it fails
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    sevens = (10**5000 - 1) // 9 * 7
    for text, value in (("2^20000", 2**20000), (_digits(sevens), sevens)):
        code, out, err = run_cli(capsys, "parse", text, "--n", "1")
        assert code == 0 and not err
        report = json.loads(out)
        assert report["value"] == report["canonical"] == _digits(value)
    assert len(_digits(2**20000)) == 6021
    assert run_cli(capsys, "parse", "1/0", "--n", "1")[0] == 2
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit


def test_negative_derham_count_exits_2(capsys):
    # it exited 0, reporting "count": -1 with no composite sample drawn
    code, out, err = run_cli(capsys, "verify", "derham", "--n", "2", "--count", "-1")
    assert code == 2 and not out
    assert err == "error: count must be at least 0, got -1\n"
    code, out, _ = run_cli(capsys, "verify", "derham", "--n", "2", "--count", "0")
    assert code == 0 and json.loads(out)["checks"][0]["params"]["count"] == 0


@pytest.mark.parametrize(
    "text, form",
    [
        ("L[1,2;]", "L[i,j;(a1,...,an)]"),
        ("L[1,2]", "L[i,j;(a1,...,an)]"),
        ("L[1;(0,0)]", "L[i,j;(a1,...,an)]"),
        ("E[1]", "E[i,j]"),
    ],
)
def test_malformed_generators_name_their_form(capsys, text, form):
    # these used to print Python's own int() or unpacking message
    name = text[0]
    for rank in (["--n", "2"], []):
        code, out, err = run_cli(capsys, "parse", text, *rank)
        assert code == 2 and not out, text
        assert err == f"error: malformed {name}[...], expected {form} (at position 0)\n"


def test_malformed_module_descriptor_exits_2(capsys):
    # the unclosed factor used to be dropped: the command ran on [poly]
    for P in ("[poly, laurent(1/2]", "[poly,,poly]"):
        code, out, err = run_cli(capsys, "derham", "delta-p", "--P", P, "--box", "0..1")
        assert code == 2 and not out, P
        assert err.startswith("error: ") and "Traceback" not in err, P


def test_derham_takes_no_margin(capsys):
    # the de Rham spaces never read the inner box, so the flag is gone
    base = ["derham", "gen-ln", "--P", "[poly,poly]", "--r", "1", "--box", "0..6"]
    code, out, err = run_cli(capsys, *base, "--margin", "1")
    assert code == 2 and not out
    assert "unrecognized arguments: --margin 1" in err and "Traceback" not in err
    code, out, _ = run_cli(capsys, *base)
    assert code == 0 and json.loads(out)["space"]


def test_vector_value_errors_exit_2(capsys):
    for text, message in (
        ("E[1,2] + e[1]", "cannot treat UglElement as a module vector"),
        ("(t[1] (x) e[1])^e[2]", "only bare wedge labels join with ^"),
    ):
        code, out, err = run_cli(capsys, "parse", text, "--n", "2")
        assert code == 2 and not out, text
        assert err == f"error: {message}\n", text


def test_verify_all_reads_lambda_and_margin(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "verify", "all", "--n", "2", "--margin", "1")
    assert code == 0
    margins = {c["check"]: c["params"].get("margin") for c in json.loads(out)["checks"]}
    assert margins["unique-submodule"] == margins["delta-p"] == 1
    # margin 3 leaves the side-5 box of unique-submodule no inner key
    code, out, err = run_cli(capsys, "verify", "all", "--n", "2", "--margin", "3")
    assert code == 2 and not out and "empty inner box" in err
    # every suite that reads a shift receives the flag's
    received = {}

    def stand_in(name):
        def suite(**kwargs):
            received[name] = kwargs
            return {"check": name, "checked": 1, "pass": True}
        return suite

    for name in list(cli.SUITES):
        monkeypatch.setitem(cli.SUITES, name, stand_in(name))
    code, _, _ = run_cli(capsys, "verify", "all", "--n", "3", "--lambda", "1/3")
    assert code == 0
    shifted = {name for name, kwargs in received.items() if "shift" in kwargs}
    assert shifted == {"derham", "delta-p", "bounded", "g-u", "h-ln"}
    assert all(received[name]["shift"] == Fraction(1, 3) for name in shifted)


def test_lemma_suite_with_an_empty_case_exits_2(capsys):
    # at key radius 0 the poly key 0 has no de Rham image, so the poly h
    # cases check nothing while the Laurent ones still check something; the
    # twist line supports no key of the cube [0, 0]^n, so the one-twist g
    # cases check nothing either
    for suite, profile in (("h-ln", "poly"), ("g-u", "one-twist")):
        code, out, err = run_cli(
            capsys, "verify", suite, "--n", "3", "--delta-window", "0",
            "--key-radius", "0",
        )
        assert code == 2 and not out, suite
        assert err.startswith("error: the configuration leaves nothing to check"), suite
        assert err.endswith(f" on the {profile} profile (keyRadius 0)\n"), suite


@pytest.mark.parametrize("suite", ["g-u", "h-ln"])
def test_lemma_suite_refuses_a_negative_key_radius(capsys, suite):
    code, out, err = run_cli(capsys, "verify", suite, "--n", "3", "--key-radius", "-1")
    assert code == 2 and not out
    assert err == "error: --key-radius must be at least 0, got -1\n"


def test_reports_are_byte_deterministic(capsys):
    args = ["verify", "derham", "--n", "2", "--count", "15"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_seed_changes_sampling_not_verdict(capsys):
    args = ["verify", "derham", "--n", "2", "--count", "5"]
    code1, out1, _ = run_cli(capsys, *args, "--seed", "123")
    code2, out2, _ = run_cli(capsys, *args, "--seed", "456")
    assert code1 == code2 == 0
    assert json.loads(out1)["checks"][0]["params"]["seed"] == 123
    assert json.loads(out2)["checks"][0]["params"]["seed"] == 456


def test_the_environment_sets_no_seed(capsys, monkeypatch):
    # the seed is read from argv only: a malformed SHENWEYL_SEED is not read,
    # so the report is the one of the unset run, not a crashed check
    args = ["verify", "derham", "--n", "2", "--count", "5"]
    monkeypatch.delenv("SHENWEYL_SEED", raising=False)
    want = run_cli(capsys, *args)
    monkeypatch.setenv("SHENWEYL_SEED", "abc")
    assert run_cli(capsys, *args) == want
    assert want[0] == 0
    assert json.loads(want[1])["checks"][0]["params"]["seed"] == suites.DEFAULT_SEED


def test_tsv_format(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "bounded", "--n", "2", "--format", "tsv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("check\t")
    assert any(line.startswith("bounded-multiplicity\tok") for line in lines)


def test_parallel_jobs_match_serial(capsys):
    serial = run_cli(capsys, "verify", "all", "--n", "2", "--jobs", "1")
    parallel = run_cli(capsys, "verify", "all", "--n", "2", "--jobs", "2")
    assert serial[0] == parallel[0] == 0
    assert serial[1] == parallel[1]


def test_timings_time_every_check_under_jobs(capsys):
    # --timings adds an int wallTimeMs to every check, with or without a
    # pool, and nothing else
    serial = json.loads(run_cli(capsys, "verify", "all", "--n", "2", "--jobs", "1")[1])
    code, out, _ = run_cli(capsys, "verify", "all", "--n", "2", "--jobs", "2",
                           "--timings")
    assert code == 0
    timed = json.loads(out)
    for check in timed["checks"]:
        assert type(check.pop("wallTimeMs")) is int, check["check"]
    assert timed == serial


def test_flags_only_where_they_act(capsys):
    # --jobs and --timings belong to verify, --format to verify and
    # structure; any other command rejects them
    rejected = [
        ("structure", "simplicity", "--P", "[poly,poly]", "--ambient", "F",
         "--M", "wedge:1", "--jobs", "2"),
        ("structure", "inventory", "--P", "[poly,poly]", "--r", "0", "--timings"),
        ("derham", "pi", "--P", "[poly,poly]", "--input", "t[1]", "--format", "tsv"),
        ("act", "--op", "t[1]", "--vector", "t[1]", "--P", "[poly,poly]",
         "--format", "json"),
        ("parse", "t[1]", "--jobs", "1"),
    ]
    for argv in rejected:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and not out, argv
        assert "unrecognized arguments" in err, argv
    code, out, _ = run_cli(
        capsys, "structure", "inventory", "--P", "[poly,poly]", "--r", "0",
        "--box", "0..4", "--format", "tsv",
    )
    assert code == 0 and out.startswith("check\tpass\tdetail\n")
    assert "subquotient-inventory\tok" in out


def test_jobs_below_one_exits_2(capsys):
    for jobs in ("0", "-3"):
        code, out, err = run_cli(capsys, "verify", "bounded", "--n", "2", "--jobs", jobs)
        assert code == 2 and not out
        assert "--jobs" in err and "at least 1" in err


def test_pool_has_no_more_workers_than_tasks(monkeypatch):
    # a stand-in pool that records its size and runs the tasks in process,
    # so no worker is ever started
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    tasks = [("bounded", {"n": 2}), ("bounded", {"n": 3})]
    report = cli.run_suite(tasks, jobs=5000)
    assert sizes == [2]
    assert report["summary"] == {"total": 2, "passed": 2, "failed": 0}
    cli.run_suite(tasks[:1], jobs=5000)
    assert sizes == [2]  # one task runs in process, without a pool


def _boom(**kwargs):
    raise RuntimeError("stand-in suite crashed")


def _bad_config(**kwargs):
    raise ArgumentError("stand-in configuration error")


def test_crashing_suite_is_a_failed_check(capsys, monkeypatch):
    monkeypatch.setitem(cli.SUITES, "bounded", _boom)
    code, out, err = run_cli(capsys, "verify", "bounded", "--n", "2")
    assert code == 1
    assert "Traceback" in err and "RuntimeError: stand-in suite crashed" in err
    report = json.loads(out)
    assert report["checks"] == [{
        "check": "bounded",
        "error": "RuntimeError: stand-in suite crashed",
        "pass": False,
    }]
    assert report["summary"] == {"total": 1, "passed": 0, "failed": 1}
    code, out, _ = run_cli(capsys, "verify", "bounded", "--n", "2", "--format", "tsv")
    assert code == 1 and "bounded\tFAIL" in out


def test_crashing_suite_spares_its_siblings_under_jobs(monkeypatch):
    # the pool's forked workers see the stand-in in the suite table
    monkeypatch.setitem(cli.SUITES, "boom", _boom)
    tasks = [("bounded", {"n": 2}), ("boom", {}), ("bounded", {"n": 2})]
    serial = cli.run_suite(tasks, jobs=1)
    parallel = cli.run_suite(tasks, jobs=2)
    assert serial == parallel
    assert [c["pass"] for c in parallel["checks"]] == [True, False, True]
    assert parallel["checks"][1]["error"] == "RuntimeError: stand-in suite crashed"
    assert not parallel["pass"]


@pytest.mark.parametrize("jobs", [1, 2])
def test_configuration_error_in_a_suite_still_exits_2(monkeypatch, jobs):
    monkeypatch.setitem(cli.SUITES, "bad", _bad_config)
    with pytest.raises(ArgumentError):
        cli.run_suite([("bounded", {"n": 2}), ("bad", {})], jobs=jobs)


def test_structure_closure_takes_json_only(capsys):
    argv = ["structure", "closure", "--P", "[poly,poly]", "--seed", "t[1]",
            "--box", "0..4"]
    code, default, _ = run_cli(capsys, *argv)
    assert code == 0 and json.loads(default)["closure"]["dims"]
    code, explicit, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0 and explicit == default
    code, out, err = run_cli(capsys, *argv, "--format", "tsv")
    assert code == 2 and not out
    assert "error:" in err and "--format" in err


def test_derham_commands(capsys):
    code, out, _ = run_cli(
        capsys, "derham", "pi", "--P", "[poly,poly]", "--input", "t[1]*t[2]"
    )
    assert code == 0
    assert json.loads(out)["image"] == "t[2] (x) e[1] + t[1] (x) e[2]"
    code, out, _ = run_cli(
        capsys, "derham", "gen-ln-tilde", "--P", "[poly,poly]", "--r", "0",
        "--box", "0..3",
    )
    assert code == 0
    blocks = json.loads(out)["space"]["blocks"]
    dims = {tuple(b["weight"]): b["dim"] for b in blocks}
    assert dims[(0, 0)] == 1 and sum(dims.values()) == 1


def test_act_command(capsys):
    code, out, _ = run_cli(
        capsys, "act", "--op", "L[1,2;(0,0)]", "--vector", "t[1]",
        "--P", "[poly,poly]", "--via-iota",
    )
    assert code == 0
    assert json.loads(out)["result"] == "t[1]"


def test_act_via_iota_refusals_exit_2(capsys):
    # --via-iota acts through sn_act, so its refusals carry sn_act's messages
    base = ["act", "--vector", "t[1]", "--P", "[poly,poly]", "--via-iota"]
    for op, message in (
        ("t[1]*d[1]", "field is not divergence free"),
        ("t[1]^-1*d[1]", "laurent-mode field acting on a module"),
        ("E[1,2]", "--via-iota needs a vector-field expression"),
    ):
        code, out, err = run_cli(capsys, *base, "--op", op)
        assert code == 2 and not out, op
        assert f"error: {message}" in err and "Traceback" not in err, op


def test_vector_flags_read_one_grammar(capsys):
    # --input, --vector and --seed read the same module vectors, scalars
    # included, and name the flag when the text is not one
    code, out, _ = run_cli(capsys, "derham", "pi", "--P", "[poly,poly]", "--input", "3")
    assert code == 0 and json.loads(out)["image"] == "0"
    code, out, _ = run_cli(
        capsys, "act", "--op", "t[1]", "--vector", "3", "--P", "[poly,poly]"
    )
    assert code == 0 and json.loads(out)["result"] == "3*t[1]"
    code, out, _ = run_cli(
        capsys, "structure", "closure", "--P", "[poly,poly]", "--seed", "3",
        "--box", "0..5",
    )
    assert code == 0 and json.loads(out)["closure"]["dims"]
    for flag, argv in (
        ("--input", ["derham", "pi", "--P", "[poly,poly]", "--input", "E[1,2]"]),
        ("--vector", ["act", "--op", "t[1]", "--vector", "E[1,2]", "--P", "[poly,poly]"]),
        ("--seed", ["structure", "closure", "--P", "[poly,poly]", "--seed", "E[1,2]"]),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and not out, flag
        assert f"{flag} 'E[1,2]' is not a module vector: " in err, flag
        assert "Traceback" not in err, flag


def test_act_reads_a_scalar_or_weyl_summand_as_a_tensor_1(capsys):
    # the operand is promoted as the parser promotes a summand: both orders
    # print the bytes of the (x) 1 spelling; a bare U(gl) element or vector
    # is still no operator
    base = ["act", "--vector", "t[1]", "--P", "[poly,poly]", "--op"]
    spelled = run_cli(capsys, *base, "t[1]*d[2] (x) E[2,1] + 2*d[1] (x) 1")
    assert spelled[0] == 0 and json.loads(spelled[1])["result"]
    for op in ("t[1]*d[2] (x) E[2,1] + 2*d[1]", "2*d[1] + t[1]*d[2] (x) E[2,1]"):
        assert run_cli(capsys, *base, op) == spelled, op
    for op in ("E[1,2]", "e[1]"):
        code, out, err = run_cli(capsys, *base, op)
        assert code == 2 and not out, op
        assert err == "error: --op must be an operator expression\n", op


def test_act_vector_with_derivative_exits_2(capsys):
    code, out, err = run_cli(
        capsys, "act", "--op", "t[1]", "--vector", "t[1]*d[2]", "--P", "[poly,poly]",
    )
    assert code == 2 and not out
    assert "module vectors cannot contain derivatives" in err
    assert "Traceback" not in err


def test_structure_simplicity_cli(capsys):
    code, out, _ = run_cli(
        capsys, "structure", "simplicity", "--P", "[poly,poly]", "--ambient",
        "F", "--M", "wedge:1", "--box", "0..5", "--margin", "2",
    )
    assert code == 1  # not simple: the de Rham image seeds are witnesses
    report = json.loads(out)
    assert not report["pass"]


def test_hw_fundamental_weight_exits_1_like_wedge(capsys):
    # hw:1,0 at n = 3 is the exterior power wedge^1, which the paper proves
    # reducible: the evidence fails and the command exits 1
    base = ["structure", "simplicity", "--P", "[poly,poly,poly]", "--box", "0..4",
            "--margin", "2"]
    code, out, _ = run_cli(capsys, *base, "--M", "hw:1,0")
    assert code == 1
    assert (code, out) == run_cli(capsys, *base, "--M", "wedge:1")[:2]


def test_structure_inventory_cli(capsys):
    code, out, _ = run_cli(
        capsys, "structure", "inventory", "--P", "[poly,poly]", "--r", "0",
        "--box", "0..4",
    )
    assert code == 0
    report = json.loads(out)
    assert report["checks"][0]["nontrivial"] == ["P/constants"]


CLI_DATA = Path(__file__).parent / "data" / "cli"


def test_cli_output_bytes(capsys):
    # de Rham, structure and act outputs over poly, twisted, Laurent and
    # mixed modules, generated before the action table was shared, and
    # parse outputs of every value kind, generated before the element
    # classes shared one text and JSON writer, and inventories and evidence
    # in every ambient, generated before the layer table and the one
    # ambient rule of the structure checks, and one report per single-suite
    # verify command, generated before the suites shared one check record,
    # and the closure, plain act, delta-p, parenthesized and refused parse
    # outputs, generated before the reach test of tests/test_reach.py
    cases = json.loads((CLI_DATA / "commands.json").read_text())
    assert len(cases) == 61
    for case in cases:
        code, out, _ = run_cli(capsys, *case["argv"])
        assert code == case["exit"], case["name"]
        assert out == (CLI_DATA / f"{case['name']}.out").read_text(), case["name"]
