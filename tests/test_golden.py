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
from pathlib import Path

import pytest

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


if __name__ == "__main__":
    cases = _load()
    for case in cases:
        case["exit"], case["stdout"] = _run(case["argv"])
    CORPUS.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")
