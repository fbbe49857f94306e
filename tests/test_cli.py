"""CLI behavior: exit codes, JSON/CSV output, determinism."""

from __future__ import annotations

import dataclasses
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction as F
from math import ceil, floor
from pathlib import Path
from types import SimpleNamespace

import pytest

import quadorder
from quadorder import (
    FAILS,
    UNIFORM,
    ParamError,
    Verdict,
    cli,
    decide,
    functional_pair,
    make_functional,
    ordering,
    params_from_json,
    params_to_json,
)
from quadorder.cli import (
    FAMILIES,
    CLIError,
    MAX_GRID_POINTS,
    Family,
    NonMonotoneRegion,
    Param,
    ScanSpec,
    _case_label,
    _make_scan_spec,
    eval_rational_expr,
    main,
    run_threshold,
)
from helpers import FullStdout, reference_threshold, simplest_between
from test_golden import CORPUS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_one_line_error(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


UNIFORM_JSON = '{"atoms": [], "uniform": "1"}'


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_check_classic_holds(capsys):
    code, out, _ = run(capsys, "check", "midpoint", "uniform")
    assert code == 0
    assert json.loads(out) == {"outcome": "holds", "witness": None}


def test_check_right_hh_holds(capsys):
    code, out, _ = run(capsys, "check", "uniform", "trapezoid")
    assert code == 0
    assert json.loads(out)["outcome"] == "holds"


def test_check_trapezoid_vs_midpoint_fails(capsys):
    code, out, _ = run(capsys, "check", "trapezoid", "midpoint")
    assert code == 1
    assert json.loads(out)["witness"] == {"kind": "hinge", "s": "1/2", "gap": "1/4"}


def test_check_diagnose_includes_crossings_and_paths(capsys):
    lhs = '{"atoms": [{"t": "1/10", "w": "1/2"}, {"t": "9/10", "w": "1/2"}], "uniform": "0"}'
    code, out, _ = run(capsys, "check", lhs, "uniform", "--diagnose")
    assert code == 1
    blob = json.loads(out)
    assert blob["witness"] == {"kind": "hinge", "s": "1/2", "gap": "3/40"}
    assert blob["crossings"] == {
        "n": 3,
        "points": ["1/10", "1/2", "9/10"],
        "areas": ["1/200", "2/25", "2/25", "1/200"],
        "initial_sign": -1,
    }
    assert blob["paths"] == {"cumulative": "fails", "lemma": "fails"}


def test_check_flag_style_inputs(capsys):
    code, out, _ = run(capsys, "check", "--lhs", "midpoint", "--rhs", "uniform")
    assert code == 0


def test_check_reads_functional_files(tmp_path, capsys):
    path = tmp_path / "rule.json"
    path.write_text('{"atoms": [{"t": "1/2", "w": 1}], "uniform": 0}')
    code, out, _ = run(capsys, "check", str(path), "uniform")
    assert code == 0


def test_check_paper_convention(capsys):
    lhs = '{"pairs": [{"alpha": "3/4", "a": "1/4"}, {"alpha": "1/2", "a": "1/2"}, {"alpha": "1/4", "a": "1/4"}], "uniform": "0"}'
    code, out, _ = run(capsys, "check", lhs, "uniform", "--paper-convention")
    assert code == 0
    atoms = '{"atoms": [{"t": "1/2", "w": "1"}], "uniform": "0"}'
    code, _, err = run(capsys, "check", atoms, "uniform", "--paper-convention")
    assert code == 2
    assert "pairs" in err


def test_check_interval_rescaling_is_invariant(capsys):
    # The trapezoid rule written on [0, 2] must decide exactly like the
    # canonical one on [0, 1].
    scaled = '{"atoms": [{"t": "0", "w": "1/2"}, {"t": "2", "w": "1/2"}], "uniform": "0"}'
    code, out, _ = run(
        capsys, "check", "--lhs", "uniform", "--rhs", scaled, "--interval", "0", "2"
    )
    code_canon, out_canon, _ = run(capsys, "check", "uniform", "trapezoid")
    assert (code, out) == (code_canon, out_canon) == (0, out_canon)
    # and the midpoint of [-1, 1] is the canonical midpoint
    mid_scaled = '{"atoms": [{"t": "0", "w": "1"}], "uniform": "0"}'
    code, out, _ = run(
        capsys, "check", "--lhs", mid_scaled, "--rhs", "uniform", "--interval", "-1", "1"
    )
    assert code == 0
    assert json.loads(out)["outcome"] == "holds"


def test_check_bad_inputs_exit_2(capsys):
    code, _, err = run(capsys, "check", '{"atoms": [], "uniform": "1/2"}', "uniform")
    assert code == 2 and "mass" in err
    code, _, err = run(capsys, "check", "{not json", "uniform")
    assert code == 2
    code, _, err = run(capsys, "check", "no-such-preset.json", "uniform")
    assert code == 2
    code, _, err = run(capsys, "check", "midpoint", "uniform", "--interval", "1", "0")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["check", '{"atoms": [1]}', "uniform"],
        ["check", '{"atoms": "x"}', "uniform"],
        ["check", '{"pairs": [[1,2]]}', "uniform"],
        ["check", "--interval", "0", "2", '{"atoms": [{"w": "1"}]}', "uniform"],
        ["check", "midpoint"],
        ["scan", "--family", "bp1", "--sweep", "x=0:1/2:1/4", "--fix", "x"],
        ["scan", "--family", "nosuch", "--sweep", "x=0:1:1"],
        ["threshold", "--family", "nosuch", "--sweep", "x=0:1:1"],
        [
            "scan", "--family", "custom",
            "--lhs", '{"atoms":[{"t":"p","w":"1"}]}',
            "--rhs", '{"atoms":[{"t":"1/2"}]}',
            "--sweep", "p=0:1:1/2",
        ],
        [
            "threshold", "--family", "symmetric3",
            "--sweep", "a=1/20:9/20:1/20", "--fix", "alpha=4/5",
            "--max-denominator", "0",
        ],
        # nesting deeper than the interpreter's recursion limit
        ["scan", "--family", "bp1", "--sweep", "x=" + "(" * 3000 + "0" + ")" * 2999 + ":1/2:1/4"],
        [
            "scan", "--family", "custom", "--sweep", "p=0:1:1/2",
            "--lhs", '{"atoms": [{"t": "p", "w": "' + "-" * 3000 + '1/2"}]}',
            "--rhs", '{"atoms": [], "uniform": "1"}',
        ],
        [
            "scan", "--family", "custom", "--sweep", "p=0:1:1/2",
            "--lhs", '{"atoms": ' + "[" * 900 + "]" * 900 + "}",
            "--rhs", '{"atoms": [], "uniform": "1"}',
        ],
        # a scalar slot nested nearly as deep as JSON parses
        ["check", '{"atoms": [{"t": ' + "[" * 980 + "]" * 980 + ', "w": "1"}]}', "uniform"],
        [
            "check", "--interval", "0", "2",
            '{"atoms": [{"t": ' + "[" * 980 + "]" * 980 + ', "w": "1"}]}', "uniform",
        ],
        [
            "scan", "--family", "custom", "--sweep", "p=0:1:1/2",
            "--lhs", '{"atoms": [{"t": "p", "w": ' + "[" * 980 + "]" * 980 + "}]}",
            "--rhs", '{"atoms": [], "uniform": "1"}',
        ],
        # parses as JSON, but too deep to print
        [
            "scan", "--family", "custom", "--sweep", "p=0:1:1/2",
            "--lhs", '{"uniform": ' + "[" * 989 + "]" * 989 + "}",
            "--rhs", '{"atoms": [], "uniform": "1"}',
        ],
        [
            "scan", "--family", "custom", "--sweep", "p=0:1:1/2",
            "--lhs", '{"atoms": ' + "[" * 100000 + "]" * 100000 + "}",
            "--rhs", '{"atoms": [], "uniform": "1"}',
        ],
        # 5 * 10**8 + 1 grid points
        ["scan", "--family", "bp1", "--sweep", "x=0:1/2:1/1000000000"],
        ["threshold", "--family", "bp1", "--sweep", "x=0:1/2:1/1000000000"],
        # an irrational boundary costs decides in proportion to the digits of the limit
        [
            "threshold", "--family", "twoVsThree", "--sweep", "alpha=11/20:19/20:1/20",
            "--max-denominator", str(10**31),
        ],
        [
            "threshold", "--family", "twoVsThree", "--sweep", "alpha=11/20:19/20:1/20",
            "--max-denominator", str(10**3000),
        ],
        # floats in a template are refused, as check refuses them
        [
            "scan", "--family", "custom", "--sweep", "p=0:1:1/2",
            "--lhs", '{"atoms": [{"t": 0.1, "w": 1}]}',
            "--rhs", '{"atoms": [{"t": "1/10", "w": 1}]}',
        ],
        [
            "scan", "--family", "custom", "--sweep", "p=0:1:1/2",
            "--lhs", '{"atoms": [{"t": "p", "w": 1.0}]}',
            "--rhs", '{"atoms": [{"t": "p", "w": "1"}]}',
        ],
        [
            "scan", "--family", "custom", "--sweep", "p=0:1:1/2",
            "--lhs", '{"atoms": [], "uniform": 1.0}',
            "--rhs", '{"atoms": [], "uniform": "1"}',
        ],
        # exponent notation would build 10**300000 before answering
        ["check", '{"atoms": [{"t": "1e-300000", "w": "1"}]}', "uniform"],
        ["check", '{"atoms": [{"t": "1/2", "w": "1e300000"}]}', "uniform"],
        # a JSON integer beyond the interpreter's digit limit
        ["check", '{"atoms": [{"t": 1' + "0" * 5000 + ', "w": "1"}]}', "uniform"],
    ],
)
def test_malformed_input_is_a_one_line_error(capsys, argv):
    assert_one_line_error(capsys, *argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "FILE", "uniform"],
        ["check", "--interval", "0", "2", "uniform", "FILE"],
        [
            "scan", "--family", "custom", "--sweep", "p=0:1:1/2",
            "--lhs", "FILE", "--rhs", UNIFORM_JSON,
        ],
    ],
)
@pytest.mark.parametrize("content", [b"\xff{", None], ids=["not-utf-8", "a-directory"])
def test_unreadable_input_file_is_a_one_line_error(tmp_path, capsys, argv, content):
    path = tmp_path / "bad.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    assert_one_line_error(capsys, *[str(path) if arg == "FILE" else arg for arg in argv])


# One invocation of each command that writes output
WRITING_ARGV = [
    ["check", "midpoint", "uniform"],
    ["check", "trapezoid", "midpoint"],  # fails: exit 1 before the write
    [
        "threshold", "--family", "symmetric3",
        "--sweep", "a=1/20:9/20:1/20", "--fix", "alpha=4/5",
    ],
    ["scan", "--family", "bp1", "--sweep", "x=0:1/2:1/4"],
    ["agree", "two-vs-three", "--samples", "5"],
]


@pytest.mark.parametrize("argv", WRITING_ARGV)
@pytest.mark.parametrize("target", ["missing-directory", "a-directory"])
def test_unwritable_out_is_a_one_line_error(tmp_path, capsys, argv, target):
    out_path = tmp_path / "missing" / "out.txt" if target == "missing-directory" else tmp_path
    assert_one_line_error(capsys, *argv, "--out", str(out_path))


@pytest.mark.parametrize("argv", WRITING_ARGV)
@pytest.mark.parametrize("failing", ["write", "flush"])
def test_unwritable_stdout_is_a_one_line_error(capsys, monkeypatch, argv, failing):
    # Exit 1 means "fails"; a write error must not surface as a traceback.
    monkeypatch.setattr(sys, "stdout", FullStdout(failing))
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: cannot write stdout: [Errno 28] No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a /dev/full device")
@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize(
    "argv",
    [
        ["check", "midpoint", "uniform"],  # fails at the flush
        ["scan", "--family", "bp1", "--sweep", "x=0:1/2:1/2000"],  # fails mid-write
        ["--help"],  # argparse itself would drop the failed write and exit 0
        ["check", "--help"],
    ],
)
def test_stdout_on_a_full_device_exits_2_with_one_line(argv, unbuffered):
    # A buffered stdout (the default off a tty) keeps the bytes it could not
    # write and flushes them again at exit: that flush must not fail too.
    src = Path(quadorder.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        done = subprocess.run(
            [sys.executable, "-m", "quadorder.cli", *argv],
            stdout=full, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    assert done.returncode == 2
    assert done.stderr == b"error: cannot write stdout: [Errno 28] No space left on device\n"


def test_keys_outside_the_shape_are_ignored_by_check_and_templates(capsys):
    # An extra key, at the top or in an entry, is read by neither check nor
    # a custom template, however it nests.
    template = '{"atoms": [{"t": "P", "w": "1", "note": "x"}], "note": {"x": [[["y"]]]}}'
    code, out, _ = run(
        capsys, "scan", "--family", "custom", "--sweep", "P=0:1:1/2",
        "--lhs", template, "--rhs", UNIFORM_JSON,
    )
    assert code == 0
    rows = [row.split(",")[:2] for row in out.splitlines()[1:]]
    assert rows == [["0", "false"], ["1/2", "true"], ["1", "false"]]
    for p, holds in rows:
        code, _, _ = run(capsys, "check", template.replace('"P"', f'"{p}"'), UNIFORM_JSON)
        assert code == (0 if holds == "true" else 1)


def test_oversized_grid_is_refused_before_it_is_built(capsys, monkeypatch):
    def no_grid_points(*args):
        raise AssertionError("a grid point was visited")

    monkeypatch.setattr(ScanSpec, "params_at", no_grid_points)
    code, out, err = run(capsys, "scan", "--family", "bp1", "--sweep", "x=0:1/2:1/1000000000")
    assert code == 2 and out == ""
    assert err == (
        f"error: sweep grid has 500000001 points, more than the limit of {MAX_GRID_POINTS}\n"
    )
    spec = ScanSpec(None, "x", F(0), F(1), F(1, MAX_GRID_POINTS - 1), {})
    assert len(spec.grid) == MAX_GRID_POINTS


def test_internal_disagreement_exits_3(capsys, monkeypatch):
    # Exit 1 means "fails"; a bug must never be reported that way.
    monkeypatch.setattr(ordering, "_lemma_verdict", lambda profile: Verdict(FAILS))
    code, out, err = run(capsys, "check", "midpoint", "uniform", "--diagnose")
    assert code == 3 and out == ""
    assert err.startswith("internal error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_check_out_file(tmp_path, capsys):
    out_path = tmp_path / "verdict.json"
    code, out, _ = run(capsys, "check", "midpoint", "uniform", "--out", str(out_path))
    assert code == 0 and out == ""
    assert json.loads(out_path.read_text())["outcome"] == "holds"


# ---------------------------------------------------------------------------
# threshold
# ---------------------------------------------------------------------------


def test_threshold_symmetric3(capsys):
    code, out, _ = run(
        capsys,
        "threshold",
        "--family", "symmetric3",
        "--sweep", "a=1/20:9/20:1/20",
        "--fix", "alpha=4/5",
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["threshold"] == "2/5"
    assert blob["attained"] is True
    assert blob["direction"] == "holds_below"
    assert blob["basis"] == "refined"


def test_threshold_range_cap(capsys):
    code, out, _ = run(
        capsys,
        "threshold",
        "--family", "symmetric3",
        "--sweep", "a=1/20:9/20:1/20",
        "--fix", "alpha=11/20",
    )
    blob = json.loads(out)
    assert blob["threshold"] == "1/2"
    assert blob["attained"] is False
    assert blob["basis"] == "range-cap"


def test_threshold_off_grid_boundary_found_exactly(capsys):
    code, out, _ = run(
        capsys,
        "threshold",
        "--family", "twoVsThree",
        "--sweep", "alpha=11/20:19/20:1/20",
        "--fix", "b1=1/3", "--fix", "b2=1/3", "--fix", "b3=1/3",
    )
    blob = json.loads(out)
    assert blob["threshold"] == "5/6"  # never a grid point
    assert blob["attained"] is True


def test_threshold_holds_above_direction(capsys):
    code, out, _ = run(
        capsys,
        "threshold",
        "--family", "endpoint4",
        "--sweep", "a=1/40:19/40:1/40",
        "--fix", "alpha=4/5",
    )
    blob = json.loads(out)
    assert blob["direction"] == "holds_above"
    assert blob["threshold"] == "1/10"
    assert blob["attained"] is True


def test_threshold_boundary_at_grid_edge(capsys):
    # alpha = 61/80 puts the boundary 2 - 2*alpha = 19/40 exactly on the last
    # grid point, so every grid point holds; the bound probe must still find
    # the true boundary instead of reporting the range cap.
    code, out, _ = run(
        capsys,
        "threshold",
        "--family", "symmetric3",
        "--sweep", "a=1/40:19/40:1/40",
        "--fix", "alpha=61/80",
    )
    blob = json.loads(out)
    assert blob["threshold"] == "19/40"
    assert blob["attained"] is True
    assert blob["basis"] == "refined"


def test_threshold_nothing_holds_is_an_error(capsys):
    code, _, err = run(
        capsys,
        "threshold",
        "--family", "endpoint4",
        "--sweep", "a=1/100:3/100:1/100",  # all below (1-alpha)/2 = 1/10
        "--fix", "alpha=4/5",
    )
    assert code == 2
    assert "no grid point holds" in err


def test_threshold_all_holding_without_a_fail_direction_is_an_error(capsys):
    # twoVsThree's b1 declares no fail direction, so an all-holds grid
    # cannot be extended toward a boundary
    code, out, err = run(
        capsys,
        "threshold",
        "--family", "twoVsThree",
        "--sweep", "b1=1/6:1/6:1",
        "--fix", "b2=2/3",
        "--fix", "b3=1/6",
        "--fix", "alpha=3/5",
    )
    assert code == 2 and out == ""
    assert "declares no fail direction for 'b1'" in err


def test_threshold_two_switches_is_an_error():
    # Two atoms at p and 1-p against uniform hold only for 1/4 <= p <= 3/4.
    family = Family(
        name="two-switches",
        lhs={"atoms": [{"t": "p", "w": "1/2"}, {"t": "1-p", "w": "1/2"}]},
        rhs={"atoms": [], "uniform": "1"},
        params={"p": Param(F(0), F(0), F(1), closed=True)},
    )
    with pytest.raises(NonMonotoneRegion) as raised:
        run_threshold(_make_scan_spec(family, "p=0:1:1/10", []))
    flags = "['F', 'F', 'F', 'H', 'H', 'H', 'H', 'H', 'F', 'F', 'F']"
    assert str(raised.value) == f"holds/fails switches more than once along p: {flags}"


def test_threshold_rejects_out_of_range_grid(capsys):
    code, _, err = run(
        capsys,
        "threshold",
        "--family", "symmetric3",
        "--sweep", "a=1/4:3/4:1/4",  # 1/2 and 3/4 outside (0, 1/2)
        "--fix", "alpha=4/5",
    )
    assert code == 2
    assert "outside the valid range" in err


@pytest.mark.parametrize("command", ["scan", "threshold"])
def test_sweep_names_its_first_bad_value(capsys, command):
    # the grid leaves x's range [0, 1/2] mid-way: 5/8 is named, not 3/4 or 1
    code, out, err = run(capsys, command, "--family", "bp1", "--sweep", "x=1/8:1:1/8")
    assert code == 2 and out == ""
    assert err == "error: x = 5/8 outside the valid range [0, 1/2] for family bp1\n"
    # a bad --fix wins over a sweep that is bad from its first value on
    code, out, err = run(
        capsys, command, "--family", "symmetric3", "--sweep", "a=3/4:1:1/8", "--fix", "alpha=2"
    )
    assert code == 2 and out == ""
    assert err == "error: alpha = 2 outside the valid range (1/2, 1) for family symmetric3\n"
    # an open lower bound refuses the bound itself
    code, out, err = run(capsys, command, "--family", "symmetric3", "--sweep", "a=0:1/4:1/8")
    assert code == 2 and out == ""
    assert err == "error: a = 0 outside the valid range (0, 1/2) for family symmetric3\n"
    # a --fix of the swept parameter is refused, not dropped
    code, out, err = run(capsys, command, "--family", "bp1", "--sweep", "x=0:1/2:1/4", "--fix", "x=7")
    assert code == 2 and out == ""
    assert err == "error: --fix cannot set x: it is the swept parameter\n"


def test_sweep_grid_is_built_once_and_read_only():
    spec = _make_scan_spec(FAMILIES["bp1"], "x=0:1/2:1/8", [])
    grid = spec.grid
    assert grid == (F(0), F(1, 8), F(1, 4), F(3, 8), F(1, 2))
    assert spec.grid is grid and isinstance(grid, tuple)


def test_threshold_range_cap_attained_at_a_closed_bound():
    # No named family closes the range bound on its fail side.
    endpoint4 = FAMILIES["endpoint4"]
    alpha = dataclasses.replace(endpoint4.params["alpha"], closed=True)
    family = dataclasses.replace(endpoint4, params={**endpoint4.params, "alpha": alpha})
    result = run_threshold(_make_scan_spec(family, "alpha=3/5:19/20:1/20", ["a=1/4"]))
    assert result["threshold"] == "1/2"
    assert result["attained"] is True
    assert result["basis"] == "range-cap"
    assert result["direction"] == "holds_above"


def test_threshold_decide_count(monkeypatch):
    calls = []
    decide = cli.decide
    monkeypatch.setattr(cli, "decide", lambda a, b: calls.append(1) or decide(a, b))
    spec = _make_scan_spec(
        FAMILIES["twoVsThree"], "alpha=11/20:19/20:1/20", ["b1=1/3", "b2=1/3", "b3=1/3"]
    )
    assert run_threshold(spec)["threshold"] == "5/6"
    # 9 grid points; the top of 4/5's bisection cell (it holds); 5/6, the
    # search's first probe inside the bracket; the top of 5/6's cell (it
    # fails, so the bounds settle all 37 halvings and the candidate 5/6);
    # and one confirming probe.
    assert len(calls) == 13
    calls.clear()
    spec = _make_scan_spec(FAMILIES["endpoint4"], "a=1/40:19/40:1/40", ["alpha=4/5"])
    result = run_threshold(spec, max_denominator=3)
    assert (result["threshold"], result["exact"]) == ("1/10", False)
    # 19 grid points and no halving: a 1/40 bracket is already below
    # 1/(2 * 3**2), and no rational with denominator <= 3 fits in it.
    assert len(calls) == 19


def test_threshold_inexact_candidate_reports_the_holds_end(capsys):
    # No rational with denominator <= 5 lies in the final bracket; a probe
    # inside it used to land on either side and refuse a monotone family.
    code, out, err = run(
        capsys,
        "threshold",
        "--family", "symmetric3",
        "--sweep", "alpha=3/4:171/200:21/1000",
        "--fix", "a=3/10",
        "--max-denominator", "5",
    )
    assert (code, err) == (0, "")
    blob = json.loads(out)
    assert blob["threshold"] == "1689/2000"
    assert (blob["attained"], blob["exact"], blob["basis"]) == (True, False, "refined")


# A is fixed; B_p mixes uniform and trapezoid.  The true boundary is
# irrational, about 0.34449699762, and every point below it holds.
IRRATIONAL = Family(
    name="irrational",
    lhs={"atoms": [{"t": "0", "w": "41/130"}, {"t": "3/10", "w": "3/13"},
                   {"t": "9/10", "w": "3/13"}, {"t": "1", "w": "29/130"}]},
    rhs={"atoms": [{"t": "0", "w": "(1-p)/2"}, {"t": "1", "w": "(1-p)/2"}], "uniform": "p"},
    params={"p": Param(F(0), F(0), F(1), closed=True)},
)


def _irrational_threshold(max_denominator):
    result = run_threshold(_make_scan_spec(IRRATIONAL, "p=0:1:1/20", []), max_denominator)
    p = F(result["threshold"])
    assert abs(p - F("0.34449699762")) < F(1, 10**7)
    assert decide(*IRRATIONAL.build({"p": p})[:2]).holds
    return result


def test_threshold_irrational_boundary_is_not_exact():
    # At the default limit the candidate 194544/564719 fails, 10**-14 above
    # the boundary; it used to be reported with exact: true.
    for max_denominator in (10**3, 10**6):
        result = _irrational_threshold(max_denominator)
        assert (result["attained"], result["exact"]) == (True, False)


def test_threshold_candidate_and_probe_below_the_boundary_is_not_refused():
    # At 10**4 the candidate 2695/7823 holds, and so does its probe toward
    # the failing end: both lie below the boundary.  This used to be refused
    # as a holds-region that is not monotone (exit 2).
    result = _irrational_threshold(10**4)
    assert (result["attained"], result["exact"], result["basis"]) == (True, False, "refined")


THRESHOLD_LIMITS = (1, 2, 3, 5, 50, 10**3, 10**6, 10**12, 10**30)


def _inside(rng, param):
    """A rational strictly inside param's range, denominator at most 60."""
    den = rng.randint(3, 60)
    return F(rng.randint(floor(param.lo * den) + 1, ceil(param.hi * den) - 1), den)


def _seeded_sweeps(rng):
    """One sweep per named family and parameter with a fail direction: a
    seeded grid step and margins, the other parameters drawn inside their
    ranges (b1 = b3 and b2 = 1 - 2 b1 for twoVsThree)."""
    for family in FAMILIES.values():
        for name, param in family.params.items():
            if param.fail_toward is None:
                continue
            step = F(1, rng.choice([10, 20, 30, 40]))
            start = param.lo + step * rng.randint(0 if param.closed else 1, 2)
            stop = param.hi - step * rng.randint(0 if param.closed else 1, 2)
            fixed = [f"{other}={_inside(rng, p)}" for other, p in family.params.items()
                     if other != name and not other.startswith("b")]
            if "b1" in family.params:
                b = F(rng.randint(1, 9), 20)
                fixed += [f"b1={b}", f"b2={1 - 2 * b}", f"b3={b}"]
            yield _make_scan_spec(family, f"{name}={start}:{stop}:{step}", fixed)


def _outcome(search, spec, max_denominator):
    try:
        return search(spec, max_denominator)
    except CLIError as exc:
        return type(exc), str(exc)


# (f(p) + f(1-p))/2 against the integral mean: holds exactly for p >= 1/4.
TWO_POINT = Family(
    name="custom",
    lhs={"atoms": [{"t": "p", "w": "1/2"}, {"t": "1-p", "w": "1/2"}]},
    rhs={"atoms": [], "uniform": "1"},
)


def test_threshold_matches_the_plain_bisection():
    # Wherever the holds-set inside the grid bracket is an interval, the
    # search answers what halving the whole bracket answers, byte for byte.
    # The last custom grid holds nowhere, so both raise the same error.
    rng = random.Random(2323)
    specs = [*_seeded_sweeps(rng), *_seeded_sweeps(rng),
             _make_scan_spec(FAMILIES["endpoint4"], "a=1/100:3/100:1/100", ["alpha=4/5"]),
             _make_scan_spec(IRRATIONAL, "p=0:1:1/20", []),
             *(_make_scan_spec(TWO_POINT, sweep, [])
               for sweep in ("p=1/10:1/2:1/10", "p=0:1/2:1/20", "p=1/10:1/5:1/20"))]
    for spec in specs:
        for max_denominator in THRESHOLD_LIMITS:
            want = _outcome(reference_threshold, spec, max_denominator)
            assert _outcome(run_threshold, spec, max_denominator) == want, (spec, max_denominator)


# One atom at p against one at 1/2: the pair only carries p to a stand-in
# decide, which scatters the holds-set over the grid cell (3/10, 2/5).
POINT = Family(
    name="point",
    lhs={"atoms": [{"t": "p", "w": "1"}]},
    rhs={"atoms": [{"t": "1/2", "w": "1"}]},
    params={"p": Param(F(1, 2), F(0), F(1), closed=True)},
)


@pytest.mark.parametrize("chance", [0.2, 0.5, 0.8])
def test_threshold_reports_only_decided_values_off_an_interval(monkeypatch, chance):
    # Inside one grid cell the holds-set is not an interval, so the bounds
    # answer some probes wrongly.  Every value the report names must still
    # have been decided: a refined threshold held, and the confirming probe
    # of an exact one, halfway to the top of its final cell, failed.
    lo, hi = F(3, 10), F(2, 5)
    decided = {}

    def scattered(a, b):
        p = a.atoms[0].position
        inside = lo < p < hi and random.Random(f"{seed} {p}").random() < chance
        decided[p] = p <= lo or inside
        return SimpleNamespace(holds=decided[p])

    monkeypatch.setattr(cli, "decide", scattered)
    spec = _make_scan_spec(POINT, "p=0:1:1/10", [])
    for seed in range(8):
        for max_denominator in (2, 3, 5, 10, 10**3, 10**6):
            decided.clear()
            result = run_threshold(spec, max_denominator)
            threshold = F(result["threshold"])
            assert (result["basis"], decided.get(threshold)) == ("refined", True), result
            if result["exact"]:
                cell = hi - lo
                while cell > F(1, 2 * max_denominator**2):
                    cell /= 2
                top = lo + ((threshold - lo) // cell + 1) * cell
                assert decided.get((threshold + top) / 2) is False, result


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------


def test_scan_symmetric3_rows(capsys):
    code, out, _ = run(
        capsys,
        "scan",
        "--family", "symmetric3",
        "--sweep", "a=1/10:1/4:1/20",
        "--fix", "alpha=9/10",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "a,alpha,holds,case,witness_s"
    flags = [line.split(",")[2] for line in lines[1:]]
    # boundary is a* = 1/5; 1/10, 3/20, 1/5 hold, 1/4 fails
    assert flags == ["true", "true", "true", "false"]
    assert len(lines) == 5


def test_scan_endpoint4_rows(capsys):
    code, out, _ = run(
        capsys,
        "scan",
        "--family", "endpoint4",
        "--sweep", "a=1/20:3/20:1/20",
        "--fix", "alpha=4/5",
    )
    lines = out.strip().splitlines()
    flags = [line.split(",")[2] for line in lines[1:]]
    assert flags == ["false", "true", "true"]  # boundary a* = 1/10 holds


def test_scan_bp1_all_hold(capsys):
    code, out, _ = run(capsys, "scan", "--family", "bp1", "--sweep", "x=0:1/2:1/20")
    lines = out.strip().splitlines()
    assert len(lines) == 12
    assert all(line.split(",")[1] == "true" for line in lines[1:])


def test_scan_rows_reproducible_by_check(capsys):
    code, out, _ = run(
        capsys,
        "scan",
        "--family", "twoVsThree",
        "--sweep", "alpha=3/5:9/10:1/10",
    )
    lines = out.strip().splitlines()
    for line in lines[1:]:
        alpha, b1, b2, b3, holds = line.split(",")[:5]
        # rebuild the same instance and push it through check
        lhs_obj = {
            "atoms": [
                {"t": str(1 - F(alpha)), "w": "1/2"},
                {"t": alpha, "w": "1/2"},
            ]
        }
        rhs_obj = {
            "atoms": [
                {"t": "0", "w": b1},
                {"t": "1/2", "w": b2},
                {"t": "1", "w": b3},
            ]
        }
        code2, _, _ = run(capsys, "check", json.dumps(lhs_obj), json.dumps(rhs_obj))
        assert (code2 == 0) == (holds == "true")


def test_scan_custom_family_with_expressions(capsys):
    lhs = '{"atoms": [{"t": "p", "w": "1/2"}, {"t": "1-p", "w": "1/2"}], "uniform": "0"}'
    rhs = '{"atoms": [], "uniform": "1"}'
    code, out, _ = run(
        capsys,
        "scan",
        "--family", "custom",
        "--sweep", "p=1/10:1/2:1/10",
        "--lhs", lhs,
        "--rhs", rhs,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,holds,case,witness_s"
    flags = [line.split(",")[1] for line in lines[1:]]
    # symmetric two-atom rule vs uniform holds iff p >= 1/4
    assert flags == ["false", "false", "true", "true", "true"]


def test_scan_sweep_value_nested_3000_deep(capsys):
    sweep = "x=" + "(" * 3000 + "0" + ")" * 3000 + ":1/2:1/4"
    code, out, err = run(capsys, "scan", "--family", "bp1", "--sweep", sweep)
    assert code == 0 and err == ""
    _, expected, _ = run(capsys, "scan", "--family", "bp1", "--sweep", "x=0:1/2:1/4")
    assert out == expected


def test_scan_deterministic_bytes(capsys):
    args = ("scan", "--family", "bp1", "--sweep", "x=0:1/2:1/10")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_scan_out_file(tmp_path, capsys):
    out_path = tmp_path / "rows.csv"
    code, out, _ = run(
        capsys,
        "scan", "--family", "bp1", "--sweep", "x=0:1/2:1/4", "--out", str(out_path),
    )
    assert code == 0 and out == ""
    assert out_path.read_text().startswith("x,holds,case,witness_s\n")


# ---------------------------------------------------------------------------
# named families are data
# ---------------------------------------------------------------------------


def _random_params(name, rng):
    """Random parameters strictly inside the family's declared ranges."""
    def inside(rng_, den=97):
        return rng_.lo + (rng_.hi - rng_.lo) * F(rng.randint(1, den - 1), den)

    family = FAMILIES[name]
    params = {key: inside(param) for key, param in family.params.items()}
    if name == "twoVsThree":  # the three weights must sum to 1
        params["b1"], params["b2"] = params["b1"] / 2, params["b2"] / 2
        params["b3"] = 1 - params["b1"] - params["b2"]
    return params


def _label_record(family, params):
    """The theorem record that the family's record template names at params."""
    return {
        key: text if key == "family" else eval_rational_expr(text, params)
        for key, text in family.record.items()
    }


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_family_templates_match_the_theorem_records(name):
    # build skips the record's validation; where the record is valid, the
    # pair is still the one functional_pair gives the validated record.
    family = FAMILIES[name]
    assert not any(callable(getattr(family, f)) for f in family.__dataclass_fields__)
    assert family.lhs is family.rhs is None
    rng = random.Random(name)
    for _ in range(50):
        params = _random_params(name, rng)
        record = _label_record(family, params)
        assert family.build(params) == (*functional_pair(params_from_json(record)), record)


def test_corpus_sweeps_build_what_their_labels_name():
    # Every grid point of a named-family sweep in the golden corpus whose
    # record is valid builds that record's functional pair.
    checked = 0
    for case in json.loads(CORPUS.read_text(encoding="utf-8")):
        if case["exit"] != 0:
            continue
        args = cli.build_parser().parse_args(case["argv"])
        if getattr(args, "family", None) not in FAMILIES:
            continue
        family = FAMILIES[args.family]
        spec = _make_scan_spec(family, args.sweep, args.fix)
        for value in spec.grid:
            params = spec.params_at(value)
            try:
                theorem_params = params_from_json(_label_record(family, params))
            except ParamError:
                continue
            assert family.build(params)[:2] == functional_pair(theorem_params)
            checked += 1
    assert checked >= 73  # the scan entries alone give 73


def test_bp1_endpoints_build_their_degenerate_pairs_and_get_no_case_label():
    # The record's open intervals are not checked when a pair is built.
    bp1 = FAMILIES["bp1"]
    trapezoid = make_functional([(0, F(1, 2)), (1, F(1, 2))])
    simpson_like = make_functional([(0, F(1, 4)), (F(1, 2), F(1, 2)), (1, F(1, 4))])
    for x, rhs in ((F(0), trapezoid), (F(1, 2), simpson_like)):
        a, b, record = bp1.build({"x": x})
        assert (a, b) == (UNIFORM, rhs)
        assert _case_label(record) is None
    assert _case_label(bp1.build({"x": F(1, 4)})[2]).case is not None


def test_scan_evaluates_each_row_record_once(monkeypatch):
    # one build gives both the pair and the record for the case label
    calls = []
    build = Family.build

    def counted(self, params):
        calls.append(params)
        return build(self, params)

    monkeypatch.setattr(Family, "build", counted)
    _, rows = cli.run_scan(_make_scan_spec(FAMILIES["bp1"], "x=0:1/2:1/8", []))
    assert len(calls) == len(rows) == 5
    assert [row[2] for row in rows] == ["", "iii", "iii", "viii", ""]


def test_a_family_record_that_makes_no_measure_is_a_one_line_error(capsys):
    # b1 + b2 + b3 = 3/2: each weight is in range, the right side is not a measure
    argv = ["--family", "twoVsThree", "--sweep", "alpha=11/20:19/20:1/20"]
    argv += ["--fix", "b1=1/2", "--fix", "b2=1/2", "--fix", "b3=1/2"]
    for command in ("scan", "threshold"):
        code, out, err = run(capsys, command, *argv)
        assert (code, out, err) == (2, "", "error: total mass 3/2 != 1\n")


@pytest.mark.parametrize("flag", ["--lhs", "--rhs"])
@pytest.mark.parametrize("command", ["scan", "threshold"])
def test_a_named_family_refuses_templates(capsys, command, flag):
    code, out, err = run(
        capsys, command, "--family", "bp1", "--sweep", "x=0:1/2:1/4", flag, UNIFORM_JSON
    )
    assert (code, out) == (2, "")
    assert err == "error: --lhs and --rhs are for --family custom, not bp1\n"


# ---------------------------------------------------------------------------
# agree
# ---------------------------------------------------------------------------


def test_agree_summary_and_empty_jsonl(tmp_path, capsys):
    out_path = tmp_path / "disagreements.jsonl"
    code, out, _ = run(
        capsys,
        "agree", "two-vs-three", "--samples", "250", "--seed", "42",
        "--out", str(out_path),
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["samples"] == 250
    assert blob["disagreements"] == 0
    assert blob["holds"] + blob["fails"] == 250
    assert out_path.read_text() == ""


def test_agree_deterministic(capsys):
    _, first, _ = run(capsys, "agree", "three-node-lower", "--samples", "150", "--seed", "9")
    _, second, _ = run(capsys, "agree", "three-node-lower", "--samples", "150", "--seed", "9")
    assert first == second


def test_agree_rejects_bad_samples(capsys):
    code, _, err = run(capsys, "agree", "two-vs-three", "--samples", "0")
    assert code == 2


def test_run_agreement_rejects_an_unknown_theorem():
    with pytest.raises(cli.CLIError, match="unknown theorem id 'nope'"):
        cli.run_agreement("nope", 1, 0)


@pytest.mark.parametrize("theorem", cli.THEOREM_IDS)
def test_agree_records_each_disagreement(tmp_path, capsys, monkeypatch, theorem):
    # A checker with every verdict flipped disagrees on every sample.
    check_params = cli.check_params
    monkeypatch.setattr(
        cli, "check_params",
        lambda params: dataclasses.replace(check_params(params), holds=not check_params(params).holds),
    )
    out_path = tmp_path / "disagreements.jsonl"
    code, out, _ = run(capsys, "agree", theorem, "--samples", "12", "--out", str(out_path))
    assert code == 0
    records = [json.loads(line) for line in out_path.read_text().splitlines()]
    assert json.loads(out)["disagreements"] == len(records) == 12
    for record in records:
        assert params_to_json(params_from_json(record["params"])) == record["params"]
        outcome = record["decider"]["outcome"]
        assert record["adjudication"] == outcome
        # a verified witness on fails; none to check on holds
        assert record["witness_verified"] is (True if outcome == "fails" else None)
        assert record["checker"]["holds"] is (outcome == "fails")


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def test_the_one_parser_answers_each_call_as_a_fresh_process(capsys, monkeypatch):
    # main builds its parser once per process: --fix on one call must not
    # reach the next, and a usage error must leave the parser as it was
    monkeypatch.setenv("COLUMNS", "80")
    sweep = ["--family", "symmetric3", "--sweep", "a=1/20:9/20:1/20"]
    argvs = [
        ["threshold", *sweep, "--fix", "alpha=4/5"],
        ["scan", *sweep],
        ["scan", "--family", "symmetric3"],  # no --sweep
        ["threshold", *sweep],
    ]
    src = Path(quadorder.__file__).resolve().parents[1]
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    codes = []
    for argv in argvs:
        code = main(argv)
        captured = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "quadorder.cli", *argv], capture_output=True, env=env, timeout=60
        )
        assert (code, captured.out, captured.err) == (
            fresh.returncode, fresh.stdout.decode(), fresh.stderr.decode()
        )
        codes.append(code)
    assert codes == [0, 0, 2, 0]
    assert cli.build_parser() is cli.build_parser()


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def test_eval_rational_expr():
    assert eval_rational_expr("1/4") == F(1, 4)
    assert eval_rational_expr("1-p", {"p": F(1, 10)}) == F(9, 10)
    assert eval_rational_expr("(1-a)/2", {"a": F(1, 3)}) == F(1, 3)
    assert eval_rational_expr("-3/4 + 1") == F(1, 4)
    assert eval_rational_expr("0.9") == F(9, 10)
    assert eval_rational_expr("2*a*b", {"a": F(1, 2), "b": F(1, 3)}) == F(1, 3)
    assert eval_rational_expr("-a+1", {"a": F(1, 3)}) == F(2, 3)
    for text, message in [
        ("1 $ 2", "bad character '$'"),
        ("1.2.3", "bad number '1.2.3'"),
        ("* 2", "unexpected '*'"),
        ("1 + / 2", "unexpected '/'"),
    ]:
        with pytest.raises(ValueError, match=re.escape(message)):
            eval_rational_expr(text)
    with pytest.raises(ValueError):
        eval_rational_expr("1/0")
    with pytest.raises(ValueError):
        eval_rational_expr("q + 1", {"p": F(1)})
    with pytest.raises(ValueError):
        eval_rational_expr("1 +")
    # no recursion: depth and length cost only list space
    assert eval_rational_expr("+".join(["1"] * 5000)) == 5000
    assert eval_rational_expr("(" * 3000 + "p" + ")" * 3000, {"p": F(2)}) == 2
    assert eval_rational_expr("-" * 3000 + "1/2") == F(1, 2)
    assert eval_rational_expr("-" * 3001 + "1/2") == F(-1, 2)
    with pytest.raises(ValueError):
        eval_rational_expr("(" * 3000 + "1" + ")" * 2999)
    with pytest.raises(ValueError):
        eval_rational_expr("1" + ")" * 3000)


def test_simplest_between():
    assert simplest_between(F(33, 40), F(67, 80)) == F(5, 6)
    assert simplest_between(F(2, 5), F(2, 5)) == F(2, 5)
    assert simplest_between(F(2, 5), F(9, 20)) == F(2, 5)
    assert simplest_between(F(1, 3), F(1, 2)) == F(1, 2)
    assert simplest_between(F(-1, 3), F(1, 7)) == 0
    assert simplest_between(F(5, 2), F(7, 2)) == 3
    assert simplest_between(F(26, 100), F(49, 100)) == F(1, 3)
    assert simplest_between(F(-1, 2), F(-1, 3)) == F(-1, 2)


def test_limit_denominator_names_the_one_rational_in_a_narrow_bracket():
    # A bracket at most 1/(2 D^2) wide holds at most one rational with
    # denominator <= D; run_threshold takes it as the midpoint's best
    # approximation within D.
    rng = random.Random(11)
    for _ in range(3000):
        limit = rng.choice([1, 2, 3, 5, 10**6, 10**30, rng.randint(1, 10 ** rng.randint(1, 30))])
        width = F(rng.randint(1, 1000), 1000 * 2 * limit * limit)
        if rng.random() < 0.5:
            # near a rational within the limit, inside or just outside
            near = F(rng.randint(-3 * limit, 3 * limit), rng.randint(1, limit))
            lo = near - width * F(rng.randint(-200, 1200), 1000)
        else:
            lo = F(rng.randint(-(10**40), 10**40), 10**40 + rng.randint(0, 10**9))
        hi = lo + width
        candidate = ((lo + hi) / 2).limit_denominator(limit)
        reference = simplest_between(lo, hi)
        assert (lo <= candidate <= hi) == (reference.denominator <= limit)
        if reference.denominator <= limit:
            assert candidate == reference
