"""Golden corpus: the exact stdout bytes and exit code of fixed CLI
invocations.

tests/golden/corpus.json lists each argv with the stdout and exit code
it produced when the corpus was recorded.  Any change in the bytes is a
change in observable behaviour and fails here.  To record the corpus
again after a deliberate output change, run

    PYTHONPATH=src python tests/test_golden.py

which rewrites the stdout and exit code of every listed argv in place.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quadorder
from quadorder import cli
from quadorder.cli import main

CORPUS = Path(__file__).resolve().parent / "golden" / "corpus.json"


def _load() -> list[dict]:
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def _run(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue()


@pytest.mark.parametrize("case", _load(), ids=lambda case: " ".join(case["argv"])[:80])
def test_cli_output_bytes_match_the_corpus(case):
    code, stdout = _run(case["argv"])
    assert code == case["exit"]
    assert stdout.encode("utf-8") == case["stdout"].encode("utf-8")


def test_threshold_entries_take_the_pinned_decides(monkeypatch):
    # Every threshold entry of the corpus, replayed under a counting decide.
    # A plain bisection of each grid bracket down to 1/(2 D^2) took 704; the
    # search and one probe at the top of each new holding point's bisection
    # cell leave the bounds to settle most halvings.  The custom entry
    # takes 9 of the 227.
    calls = []
    decide = cli.decide
    monkeypatch.setattr(cli, "decide", lambda a, b: calls.append(1) or decide(a, b))
    for case in _load():
        if case["argv"][0] == "threshold":
            _run(case["argv"])
    assert len(calls) == 227


def test_module_entry_point_prints_the_corpus_bytes():
    argv = ["check", "trapezoid", "midpoint"]
    case = next(case for case in _load() if case["argv"] == argv)
    src = Path(quadorder.__file__).resolve().parents[1]
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-m", "quadorder.cli", *argv], capture_output=True, env=env, timeout=60
    )
    assert case["exit"] == 1
    assert (done.returncode, done.stdout, done.stderr) == (1, case["stdout"].encode("utf-8"), b"")


if __name__ == "__main__":
    cases = _load()
    for case in cases:
        case["exit"], case["stdout"] = _run(case["argv"])
    CORPUS.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")
