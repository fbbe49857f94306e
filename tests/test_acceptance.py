"""Acceptance criteria.

Each test exercises one numbered criterion at its stated tolerance (all
exact rational equality; nothing here is approximate) and prints one
PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction as F

from quadorder import (
    EQUAL,
    FAILS,
    HOLDS,
    FourNodeUpperParams,
    MIDPOINT,
    ThreeNodeLowerParams,
    TRAPEZOID,
    TwoVsThreeParams,
    UNIFORM,
    check_params,
    crossing_profile,
    decide,
    decide_lemma,
    difference,
    functional_pair,
    make_functional,
    oracle_decide,
    verify_witness,
)
from quadorder.cli import main, run_agreement
from helpers import equal_mean_pair, even_crossing_pair, single_crossing_pair


def report(criterion: int, description: str, ok: bool) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {criterion} failed: {description}"


def threshold_via_cli(tmp_path, family, sweep, *fixes):
    out = tmp_path / "threshold.json"
    argv = ["threshold", "--family", family, "--sweep", sweep, "--out", str(out)]
    for fix in fixes:
        argv += ["--fix", fix]
    code = main(argv)
    assert code == 0, f"threshold exited {code} for {argv}"
    return json.loads(out.read_text())


def test_criterion_1_classical_hermite_hadamard():
    ok = (
        decide(MIDPOINT, UNIFORM).outcome == HOLDS
        and decide(UNIFORM, TRAPEZOID).outcome == HOLDS
    )
    for a, b in ((UNIFORM, MIDPOINT), (TRAPEZOID, UNIFORM)):
        v = decide(a, b)
        ok = ok and v.outcome == FAILS and verify_witness(a, b, v)
    report(1, "classical midpoint/mean/trapezoid chain, reversals refuted", ok)


def test_criterion_2_symmetric3_thresholds(tmp_path):
    ok = True
    for k in range(11, 20):
        alpha = F(k, 20)
        blob = threshold_via_cli(
            tmp_path, "symmetric3", "a=1/20:9/20:1/20", f"alpha={alpha}"
        )
        closed_form = 2 - 2 * alpha
        if closed_form < F(1, 2):
            ok = ok and blob["threshold"] == str(closed_form) and blob["attained"]
        else:
            ok = ok and blob["threshold"] == "1/2" and not blob["attained"]
    specific = (
        threshold_via_cli(tmp_path, "symmetric3", "a=1/20:9/20:1/20", "alpha=4/5")["threshold"]
        == "2/5"
        and threshold_via_cli(tmp_path, "symmetric3", "a=1/20:9/20:1/20", "alpha=9/10")["threshold"]
        == "1/5"
    )
    ok = ok and specific
    report(2, "symmetric3 boundary equals min(1/2-, 2-2*alpha) exactly", ok)


def test_criterion_3_two_vs_three_thresholds(tmp_path):
    thirds = threshold_via_cli(
        tmp_path, "twoVsThree", "alpha=11/20:19/20:1/20",
        "b1=1/3", "b2=1/3", "b3=1/3",
    )
    simpson = threshold_via_cli(
        tmp_path, "twoVsThree", "alpha=11/20:19/20:1/20",
        "b1=1/6", "b2=2/3", "b3=1/6",
    )
    ok = (
        thirds["threshold"] == "5/6"
        and thirds["attained"]
        and simpson["threshold"] == "2/3"
        and simpson["attained"]
    )
    report(3, "two-vs-three boundaries are exactly 5/6 and 2/3", ok)


def test_criterion_4_endpoint4_thresholds(tmp_path):
    ok = True
    for alpha in (F(3, 5), F(7, 10), F(4, 5), F(9, 10)):
        blob = threshold_via_cli(
            tmp_path, "endpoint4", "a=1/40:19/40:1/40", f"alpha={alpha}"
        )
        boundary = (1 - alpha) / 2
        ok = ok and blob["threshold"] == str(boundary) and blob["attained"]
        rule = make_functional(
            [(0, boundary), (1 - alpha, F(1, 2) - boundary),
             (alpha, F(1, 2) - boundary), (1, boundary)]
        )
        ok = ok and decide(UNIFORM, rule).outcome == HOLDS
    report(4, "endpoint4 boundary equals (1-alpha)/2 exactly and holds there", ok)


def test_criterion_5_bp1_scan(tmp_path):
    out = tmp_path / "bp1.csv"
    code = main(["scan", "--family", "bp1", "--sweep", "x=0:1/2:1/20", "--out", str(out)])
    lines = out.read_text().strip().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    ok = code == 0 and len(rows) == 11 and all(row[1] == "true" for row in rows)
    # x = 1/2 merges the middle atoms: a midpoint/trapezoid mixture, still holds
    mixture = make_functional([(0, F(1, 4)), (F(1, 2), F(1, 2)), (1, F(1, 4))])
    ok = ok and decide(UNIFORM, mixture).outcome == HOLDS and rows[-1][0] == "1/2"
    report(5, "four-point endpoint rule holds across x in [0, 1/2]", ok)


def test_criterion_6_path_agreement():
    rng = random.Random(60001)
    pairs = 0
    disagreements = 0
    while pairs < 1000:
        a, b = equal_mean_pair(rng)
        pairs += 1
        cumulative = decide(a, b)
        report_ab = oracle_decide(a, b)
        oracle_clean = report_ab.max_violation == 0
        if cumulative.outcome == EQUAL:
            if not oracle_clean:
                disagreements += 1
            continue
        lemma = decide_lemma(a, b)
        if not (lemma.outcome == cumulative.outcome and oracle_clean == cumulative.holds):
            disagreements += 1
    ok = pairs >= 1000 and disagreements == 0
    report(6, f"both decision paths and the oracle agree on {pairs} random pairs", ok)


def test_criterion_7_single_and_even_crossings():
    rng = random.Random(70001)
    ok = True
    for _ in range(1000):
        a, b = single_crossing_pair(rng)
        profile = crossing_profile(difference(a, b))
        verdict = decide(a, b)
        ok = ok and profile.n == 1 and verdict.outcome == HOLDS
    for _ in range(500):
        a, b = even_crossing_pair(rng)
        profile = crossing_profile(difference(a, b))
        verdict = decide(a, b)
        ok = (
            ok
            and profile.n == 2
            and verdict.outcome == FAILS
            and verify_witness(a, b, verdict)
        )
    report(7, "single crossings hold, even crossings fail with exact witnesses", ok)


def test_criterion_8_transcription_agreement():
    ok = True
    for theorem in ("four-node-upper", "two-vs-three"):
        summary = run_agreement(theorem, samples=10**4, seed=80001)
        ok = ok and summary.samples == 10**4 and len(summary.disagreements) == 0
    lower = run_agreement("three-node-lower", samples=10**4, seed=80002)
    # Any disagreement must sit in the vii/viii overlap, and one the
    # decider calls fails must carry a machine-verified witness.
    for record in lower.disagreements:
        ok = ok and record["checker"]["case"] in ("vii", "viii")
        if record["decider"]["outcome"] == "fails":
            ok = ok and record["witness_verified"]
    ok = ok and len(lower.disagreements) == 0  # expected count
    # the worked examples always agree
    examples = (
        ThreeNodeLowerParams(F(1, 4), F(1, 2), F(1, 4), F(3, 4), F(1, 2), F(1, 4)),
        FourNodeUpperParams(F(1, 10), F(2, 5), F(2, 5), F(1, 10), F(4, 5), F(1, 5)),
        TwoVsThreeParams(F(1, 2), F(2, 3), F(1, 3), F(1, 2), F(1, 6), F(2, 3), F(1, 6)),
    )
    for params in examples:
        a, b = functional_pair(params)
        ok = ok and check_params(params).holds == decide(a, b).holds
    report(8, "case checkers, decider, and oracle agree on 3x10^4 samples", ok)


def test_criterion_9_witness_soundness():
    rng = random.Random(90001)
    fails_seen = 0
    ok = True
    checked = []
    for _ in range(400):
        a, b = equal_mean_pair(rng)
        checked.append((a, b))
    for _ in range(200):
        checked.append(even_crossing_pair(rng))
    from helpers import rand_functional

    for _ in range(200):
        checked.append((rand_functional(rng), rand_functional(rng)))
    checked += [(UNIFORM, MIDPOINT), (TRAPEZOID, UNIFORM), (TRAPEZOID, MIDPOINT)]
    for a, b in checked:
        for lhs, rhs in ((a, b), (b, a)):
            verdict = decide(lhs, rhs)
            if verdict.outcome == FAILS:
                fails_seen += 1
                ok = ok and verify_witness(lhs, rhs, verdict)
    report(
        9,
        f"all {fails_seen} failing verdicts re-evaluate to their exact witness gap",
        ok and fails_seen > 200,
    )
