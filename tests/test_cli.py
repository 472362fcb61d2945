"""Command-line behavior: determinism, exit codes, output formats."""

import json

import pytest

from weylmod.cli import main, parse_box, parse_window
from weylmod.errors import ArgumentError


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


def test_reports_are_byte_deterministic(capsys):
    args = ["verify", "derham", "--n", "2", "--count", "15"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_seed_changes_sampling_not_verdict(capsys, monkeypatch):
    monkeypatch.setenv("SHENWEYL_SEED", "123")
    code1, out1, _ = run_cli(capsys, "verify", "derham", "--n", "2", "--count", "5")
    monkeypatch.setenv("SHENWEYL_SEED", "456")
    code2, out2, _ = run_cli(capsys, "verify", "derham", "--n", "2", "--count", "5")
    assert code1 == code2 == 0
    assert json.loads(out1)["checks"][0]["params"]["seed"] == 123
    assert json.loads(out2)["checks"][0]["params"]["seed"] == 456


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


def test_structure_simplicity_cli(capsys):
    code, out, _ = run_cli(
        capsys, "structure", "simplicity", "--P", "[poly,poly]", "--ambient",
        "F", "--M", "wedge:1", "--box", "0..5", "--margin", "2",
    )
    assert code == 1  # not simple: the de Rham image seeds are witnesses
    report = json.loads(out)
    assert not report["pass"]


def test_structure_inventory_cli(capsys):
    code, out, _ = run_cli(
        capsys, "structure", "inventory", "--P", "[poly,poly]", "--r", "0",
        "--box", "0..4",
    )
    assert code == 0
    report = json.loads(out)
    assert report["checks"][0]["nontrivial"] == ["P/constants"]
