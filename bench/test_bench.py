"""Self-tests of the benchmark: generators, reference checker, tracer, and
one cycle of every workload.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from worker import run_ops  # noqa: E402

from quadorder import cli, ordering  # noqa: E402

F = Fraction


def is_valid(m: ref.Measure) -> bool:
    """Mass exactly 1, positions in [0, 1], weights positive."""
    return (
        m.mass() == 1
        and all(0 <= t <= 1 and w > 0 for t, w in m.atoms)
        and m.uniform >= 0
    )


def _pairs():
    rng = random.Random(7)
    for n in (1, 6, 40):
        yield inputs.smooth_pair(rng, n, F(0))
        yield inputs.smooth_pair(rng, n, F(1, 4))
        yield inputs.bigden_pair(rng, n)


@pytest.mark.parametrize("a,b", list(_pairs()))
def test_generated_pairs_are_valid_and_known_by_construction(a, b):
    shifted = inputs.shifted(random.Random(1), b)
    for m in (a, b, shifted):
        assert is_valid(m)
    assert ref.barycenter(a) == ref.barycenter(b) < ref.barycenter(shifted)
    if len(a.atoms) <= 6:
        assert ref.reference_outcome(a, b) == "holds"
        assert ref.reference_outcome(b, a) == "fails"
        assert ref.reference_outcome(a, shifted) == "fails"


def test_bigden_denominators_are_distinct_primes():
    a, b = inputs.bigden_pair(random.Random(3), 50)
    primes = set(inputs.PRIMES)
    own = [t.denominator for t, _ in a.atoms]
    assert len(set(own)) == len(own) and set(own) <= primes
    offsets = []
    for (x, _), (left, _), (right, _) in zip(a.atoms, b.atoms[0::2], b.atoms[1::2]):
        for spread in (left, right):
            q, r = divmod(spread.denominator, x.denominator)
            assert r == 0 and q in primes
            offsets.append(q)
    assert len(set(offsets + own)) == len(offsets) + len(own)


@pytest.mark.parametrize("family", ["symmetric3", "endpoint4", "twoVsThree", "bp1"])
def test_closed_forms_match_the_reference_decider(family):
    rng = random.Random(11)
    for _ in range(30):
        if family == "twoVsThree":
            p = dict(rng.choice(workloads.B_WEIGHTS), alpha=workloads._rational_in(rng, F(1, 2), F(1)))
        elif family == "bp1":
            p = {"x": F(rng.randint(0, 40), 80)}
        else:
            p = {"a": F(rng.randint(1, 79), 160), "alpha": workloads._rational_in(rng, F(1, 2), F(1))}
        a, b = ref.family_pair(family, p)
        assert (ref.reference_outcome(a, b) != "fails") == ref.closed_form_holds(family, p), p


def _cli_out(tmp_path, argv):
    out = tmp_path / "out"
    code = cli.main([*argv, "--out", str(out)])
    return code, out.read_text()


def _files(tmp_path, a, b):
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(a.to_json()))
    pb.write_text(json.dumps(b.to_json()))
    return [str(pa), str(pb)]


def test_checker_accepts_real_verdicts_and_flags_wrong_ones(tmp_path):
    a, b = inputs.smooth_pair(random.Random(5), 30, F(1, 4))
    shifted = inputs.shifted(random.Random(5), b)
    for kind, (x, y) in (("holds", (a, b)), ("hinge", (b, a)), ("linear", (a, shifted))):
        for diagnose in (False, True):
            code, text = _cli_out(tmp_path, ["check", *_files(tmp_path, x, y)] + ["--diagnose"] * diagnose)
            assert code == (0 if kind == "holds" else 1)
            workloads.check_verdict(kind, x, y, diagnose, text)
            out = json.loads(text)
            wrong = dict(out, outcome="fails" if kind == "holds" else "holds")
            with pytest.raises(workloads.CheckFailed):
                workloads.check_verdict(kind, x, y, diagnose, json.dumps(wrong))
            if kind == "hinge":
                gap = F(out["witness"]["gap"]) + F(1, 10**9)
                wrong = dict(out, witness=dict(out["witness"], gap=str(gap)))
                with pytest.raises(workloads.CheckFailed):
                    workloads.check_verdict(kind, x, y, diagnose, json.dumps(wrong))
            if kind == "linear":
                flipped = "+1" if out["witness"]["direction"] == "-1" else "-1"
                wrong = dict(out, witness=dict(out["witness"], direction=flipped))
                with pytest.raises(workloads.CheckFailed):
                    workloads.check_verdict(kind, x, y, diagnose, json.dumps(wrong))


def test_checker_flags_a_wrong_threshold_and_scan_row(tmp_path):
    fixed = {"alpha": F(4, 5)}
    code, text = _cli_out(
        tmp_path, ["threshold", "--family", "symmetric3", "--sweep", "a=1/20:9/20:1/20", "--fix", "alpha=4/5"]
    )
    assert code == 0
    workloads.check_threshold("symmetric3", fixed, text)
    for field, value in (("threshold", "3/10"), ("attained", False)):
        with pytest.raises(workloads.CheckFailed):
            workloads.check_threshold("symmetric3", fixed, json.dumps(dict(json.loads(text), **{field: value})))

    code, text = _cli_out(
        tmp_path, ["scan", "--family", "symmetric3", "--sweep", "a=1/20:9/20:1/20", "--fix", "alpha=4/5"]
    )
    workloads.check_scan("symmetric3", fixed, 9, text)
    with pytest.raises(workloads.CheckFailed):
        workloads.check_scan("symmetric3", fixed, 9, text.replace("true", "false", 1))
    with pytest.raises(workloads.CheckFailed):
        workloads.check_scan("symmetric3", fixed, 10, text)


def test_tracer_rebinds_every_alias_and_restores_them():
    tracing.assert_unpatched()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for fn in (cli.decide, ordering.difference, ordering.DiffFunction.max_g, cli.main):
            assert fn.__bench_span__
        with pytest.raises(RuntimeError):
            tracing.assert_unpatched()
    finally:
        tracer.uninstall()
    tracing.assert_unpatched()


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_one_cycle_of_each_workload_fails_nothing(name, tmp_path):
    ops = workloads.WORKLOADS[name](random.Random(2), tmp_path)
    tracer = tracing.Tracer()
    timings = run_ops(ops, count=len(ops), tracer=tracer)
    tracing.assert_unpatched()
    assert timings.failures == [] and len(timings.plain) == len(timings.traced) == len(ops)
    layers = tracer.summary(len(ops))
    assert set(run.PER_LAYER) - {"trace.overhead_ratio"} <= set(layers)


def test_a_timed_run_scales_every_op_and_ends_on_a_whole_cycle(tmp_path):
    ops = workloads.WORKLOADS["sweeps"](random.Random(3), tmp_path)[:3]
    timings = run_ops(ops, seconds=0.01)
    assert timings.failures == [] and timings.traced == []
    assert len(timings.plain) == len(timings.scaled) == 102
    assert all(latency > 0 for latency in timings.scaled)


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
