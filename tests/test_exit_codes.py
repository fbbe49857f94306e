"""The exit-code contract, as a property over generated argv and JSON.

Every invocation of the four subcommands ends in exit 0 (holds, or a
successful threshold/scan/agree), 1 (check found a failure, and its
witness re-verifies), or 2 (bad input, reported without a traceback).
Exit 3 means the engine's two decision paths disagreed, which no input
may cause.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import quadorder
from quadorder import FAILS, HingeWitness, LinearWitness, Verdict, as_fraction, verify_witness
from quadorder.cli import (
    FAMILIES,
    THEOREM_IDS,
    _load_functional,
    build_parser,
    eval_rational_expr,
    main,
)
from helpers import FullStdout

RATIONAL_TEXT = st.sampled_from(
    ["0", "1", "1/2", "1/3", "2/3", "1/4", "3/4", "1/10", "9/10", "-1/4", "5/4", "0.25", "2"]
)
BAD_TEXT = st.sampled_from(["", "x", "abc", "1e-3", "1/0", "1//2", "(", "1/2)", "--", "nan"])

# a scalar slot of functional JSON, well formed or not
SCALAR = st.one_of(
    RATIONAL_TEXT,
    BAD_TEXT,
    st.integers(-2, 3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.none(),
    st.booleans(),
    st.lists(st.integers(0, 1), max_size=2),
    st.dictionaries(st.sampled_from(["t", "w"]), st.integers(0, 1), max_size=2),
)

ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def valid_atoms(draw, lo: Fraction = Fraction(0), hi: Fraction = Fraction(1)):
    """Atoms on [lo, hi] whose weights and uniform part sum to exactly 1."""
    den = draw(st.sampled_from([2, 3, 4, 8, 10, 12, 97]))
    ks = draw(st.lists(st.integers(0, den), min_size=1, max_size=5))
    raw = draw(st.lists(st.integers(0, 5), min_size=len(ks), max_size=len(ks)))
    uniform = draw(st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(1, 2)]))
    if not any(raw):
        raw[0] = 1
    total = sum(raw)
    return {
        "atoms": [
            {"t": str(lo + (hi - lo) * Fraction(k, den)), "w": str((1 - uniform) * Fraction(r, total))}
            for k, r in zip(ks, raw)
        ],
        "uniform": str(uniform),
    }


def pairs_form(atoms: dict) -> dict:
    """The paper-convention form of atoms on [0, 1]: alpha = 1 - t."""
    return {
        "pairs": [{"a": atom["w"], "alpha": str(1 - Fraction(atom["t"]))} for atom in atoms["atoms"]],
        "uniform": atoms["uniform"],
    }


FREE_FUNCTIONAL = st.one_of(
    st.fixed_dictionaries(
        {"atoms": st.lists(st.fixed_dictionaries({"t": SCALAR, "w": SCALAR}), max_size=3)},
        optional={"uniform": SCALAR},
    ),
    st.fixed_dictionaries(
        {"pairs": st.lists(st.fixed_dictionaries({"a": SCALAR, "alpha": SCALAR}), max_size=3)},
        optional={"uniform": SCALAR},
    ),
    ANY_JSON,
)

INTERVALS = [("0", "1"), ("-1", "1"), ("0", "2"), ("1/2", "3/2")]


@st.composite
def check_argv(draw) -> list[str]:
    argv = ["check"]
    interval = None
    if draw(st.integers(0, 3)) == 0:
        interval = draw(st.sampled_from(INTERVALS)) if draw(st.booleans()) else (
            draw(RATIONAL_TEXT | BAD_TEXT), draw(RATIONAL_TEXT | BAD_TEXT)
        )
    paper = draw(st.integers(0, 3)) == 0
    lo, hi = Fraction(0), Fraction(1)
    if interval in INTERVALS:
        lo, hi = (Fraction(v) for v in interval)
    sides = []
    for _ in range(2):
        kind = draw(st.sampled_from(["preset", "valid", "valid", "valid", "free", "text"]))
        if kind == "preset":
            sides.append(draw(st.sampled_from(["uniform", "midpoint", "trapezoid", "simpson"])))
        elif kind == "valid":
            # pairs are read on [0, 1] whatever the interval
            functional = pairs_form(draw(valid_atoms())) if paper else draw(valid_atoms(lo, hi))
            sides.append(json.dumps(functional))
        elif kind == "free":
            sides.append(json.dumps(draw(FREE_FUNCTIONAL)))
        else:
            sides.append(draw(st.sampled_from(["{bad json", "no-such-file.json", "[]", "7"])))
    if draw(st.booleans()):
        argv += sides
    else:
        argv += ["--lhs", sides[0], "--rhs", sides[1]]
    if draw(st.booleans()):
        argv.append("--diagnose")
    if paper:
        argv.append("--paper-convention")
    if interval is not None:
        argv += ["--interval", *interval]
    return argv


# each named family's parameters, plus the parameter a custom template uses
PARAMS = {name: list(family.params) for name, family in FAMILIES.items()}
PARAMS["custom"] = ["p"]

TEMPLATES = [
    '{"atoms": [{"t": "p", "w": "1/2"}, {"t": "1-p", "w": "1/2"}]}',
    '{"atoms": [{"t": "1/2", "w": "1-p"}], "uniform": "p"}',
    '{"atoms": [{"t": "p/2", "w": "1"}]}',
    '{"pairs": [{"a": "1", "alpha": "p"}]}',
    "uniform",
    "midpoint",
]


@st.composite
def valid_sweep_argv(draw) -> list[str]:
    """A sweep inside the family's declared range (p in [0, 1] for a
    custom pair of templates), the other parameters at their defaults."""
    command = draw(st.sampled_from(["threshold", "scan"]))
    family = draw(st.sampled_from([*FAMILIES, "custom"]))
    name = draw(st.sampled_from(PARAMS[family]))
    declared = FAMILIES[family].params[name] if family in FAMILIES else None
    lo, hi = (declared.lo, declared.hi) if declared else (Fraction(0), Fraction(1))
    i = draw(st.integers(1, 7))
    j = draw(st.integers(i, 7))
    start, stop = (lo + (hi - lo) * Fraction(k, 8) for k in (i, j))
    step = (hi - lo) * Fraction(1, draw(st.sampled_from([8, 16, 20])))
    argv = [command, "--family", family, "--sweep", f"{name}={start}:{stop}:{step}"]
    if family == "custom":
        argv += ["--lhs", draw(st.sampled_from(TEMPLATES)), "--rhs", draw(st.sampled_from(TEMPLATES))]
    if command == "threshold" and draw(st.booleans()):
        argv += ["--max-denominator", draw(st.sampled_from(["1", "5", "1000", str(10**30)]))]
    return argv


@st.composite
def free_sweep_argv(draw) -> list[str]:
    command = draw(st.sampled_from(["threshold", "scan"]))
    family = draw(st.sampled_from([*PARAMS, "nope"]))
    names = PARAMS.get(family, ["x"]) + ["zz"]
    name = draw(st.sampled_from(names))
    # steps of at least 1/20 keep every grid small
    step = draw(st.sampled_from(["1/4", "1/8", "1/10", "3/20", "1/3", "0", "-1/4", "1/20"]))
    sweep = f"{name}={draw(RATIONAL_TEXT)}:{draw(RATIONAL_TEXT)}:{step}"
    if draw(st.integers(0, 5)) == 0:
        sweep = draw(st.sampled_from(["x", "x=1:2", "x=(:1:1/2", "=0:1:1/2", name + "=0:1:q"]))
    argv = [command, "--family", family, "--sweep", sweep]
    for _ in range(draw(st.integers(0, 2))):
        argv += ["--fix", f"{draw(st.sampled_from(names))}={draw(RATIONAL_TEXT | BAD_TEXT)}"]
    if family == "custom" or draw(st.integers(0, 5)) == 0:
        for flag in ("--lhs", "--rhs"):
            if draw(st.integers(0, 5)):
                template = draw(st.sampled_from(TEMPLATES) | FREE_FUNCTIONAL.map(json.dumps))
                argv += [flag, template]
    if command == "threshold" and draw(st.booleans()):
        argv += ["--max-denominator", draw(st.sampled_from(["0", "-3", "x", str(10**31)]))]
    return argv


AGREE_ARGV = st.builds(
    lambda theorem, samples, seed: ["agree", theorem, "--samples", samples, "--seed", seed],
    st.sampled_from([*THEOREM_IDS, *THEOREM_IDS, "bogus"]),
    st.sampled_from(["-1", "0", "1", "3", "x", "2", "2", "2"]),
    st.sampled_from(["0", "7", "-2", "x", "1", "5"]),
)


def run_main(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def witness_verifies(argv: list[str], stdout: str) -> bool:
    """Re-read the pair as check read it and re-check the printed witness."""
    sides = argv[1:3]
    if "--lhs" in argv:
        sides = [argv[argv.index("--lhs") + 1], argv[argv.index("--rhs") + 1]]
    scalar = None
    if "--interval" in argv:
        k = argv.index("--interval")
        x, y = eval_rational_expr(argv[k + 1]), eval_rational_expr(argv[k + 2])
        scalar = lambda field, value: (as_fraction(value) - x) / (y - x) if field == "t" else value
    a, b = (_load_functional(side, "--paper-convention" in argv, scalar) for side in sides)
    witness = json.loads(stdout)["witness"]
    if witness["kind"] == "hinge":
        claimed = HingeWitness(Fraction(witness["s"]), Fraction(witness["gap"]))
    else:
        claimed = LinearWitness(int(witness["direction"]))
    return verify_witness(a, b, Verdict(FAILS, claimed))


@settings(
    max_examples=300,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.one_of(check_argv(), valid_sweep_argv(), free_sweep_argv(), AGREE_ARGV))
def test_every_invocation_ends_in_a_documented_exit_code(argv):
    code, stdout, stderr = run_main(argv)
    assert code in (0, 1, 2), (code, stderr)
    assert "Traceback" not in stderr
    if code == 2:
        # bad input, the command line included: one error line, no usage block
        lines = stderr.splitlines()
        assert stdout == "" and len(lines) == 1 and lines[0].startswith("error: "), lines
    else:
        # a verdict writes nothing to stderr
        assert stderr == "", stderr
    if code == 1:
        assert argv[0] == "check" and witness_verifies(argv, stdout)


def test_help_returns_0_and_prints_the_usage_block(capsys):
    # argparse exits once it has printed help; main returns that code
    assert main(["--help"]) == 0
    out, err = capsys.readouterr()
    assert (out, err) == (build_parser().format_help(), "")
    assert out.startswith("usage: quadorder")


@pytest.mark.parametrize("argv", [["--help"], ["check", "--help"]])
@pytest.mark.parametrize("failing", ["write", "flush"])
def test_help_to_an_unwritable_stdout_is_a_one_line_error(argv, failing):
    # argparse drops a failed write of its help: exit 0 would read as shown
    code, stdout, _ = run_main(argv)
    assert (code, stdout[:6]) == (0, "usage:")
    err = io.StringIO()
    with contextlib.redirect_stdout(FullStdout(failing)), contextlib.redirect_stderr(err):
        code = main(argv)
    assert (code, err.getvalue()) == (2, "error: cannot write stdout: [Errno 28] No space left on device\n")


CLOSED = "error: cannot write stdout: it is closed\n"


@pytest.mark.parametrize("argv", [["check", "midpoint", "uniform"], ["--help"]])
def test_a_closed_stdout_is_a_one_line_error(argv):
    # with fd 1 closed at start-up sys.stdout is None, and print writes
    # nothing: exit 0 would read as shown
    err = io.StringIO()
    with contextlib.redirect_stdout(None), contextlib.redirect_stderr(err):
        code = main(argv)
    assert (code, err.getvalue()) == (2, CLOSED)


def test_a_command_started_with_fd_1_closed_exits_2():
    src = Path(quadorder.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-m", "quadorder.cli", "check", "midpoint", "uniform"],
        stderr=subprocess.PIPE,
        env=env,
        timeout=60,
        preexec_fn=lambda: os.close(1),
    )
    assert (done.returncode, done.stderr) == (2, CLOSED.encode())
