"""quadorder benchmark: four seeded closed-loop workloads, timed end to end
and, in a separate traced run, per module.

    python3 bench/run.py --workload agree --seed 1 --seconds 24 --trace 0
    python3 bench/run.py --workload all            # every workload in turn

Each workload runs in fresh worker processes (bench/worker.py), one op at a
time on one thread: six that only set up, for setup_s, then one that sets
up and runs the timed ops.  Times are scaled to a reference machine speed
measured by calibration chunks run between the ops; the report prints the
wall-clock figures next to them.  The report ends with one JSON line:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
See bench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
WORKLOADS = ("agree", "large-smooth", "bigden", "sweeps")
SETUP_PROBES = 6
DEADLINE_S = 170

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "ordering.difference.calls": "calls/op",
    "ordering.difference.self_ms": "ms/op",
    "ordering.difference.breakpoints": "count",
    "ordering.difference.per_decide": "ratio",
    "ordering.max_g.calls": "calls/op",
    "ordering.max_g.self_ms": "ms/op",
    "ordering.g_bits_max": "bits",
    "ordering.crossing_profile.calls": "calls/op",
    "ordering.crossing_profile.self_ms": "ms/op",
    "ordering.decide_lemma.calls": "calls/op",
    "ordering.decide_lemma.self_ms": "ms/op",
    "ordering.decide.calls": "calls/op",
    "ordering.decide.self_ms": "ms/op",
    "ordering.decide.input_bits_max": "bits",
    "cli.run_threshold.calls": "calls/op",
    "cli.run_threshold.self_ms": "ms/op",
    "cli.run_threshold.decides_per_call": "count",
    "functionals.functional_from_json.calls": "calls/op",
    "functionals.functional_from_json.self_ms": "ms/op",
    "functionals.make_functional.calls": "calls/op",
    "functionals.make_functional.self_ms": "ms/op",
    "functionals.make_functional.atoms": "count",
    "oracle.refine_grid.calls": "calls/op",
    "oracle.refine_grid.self_ms": "ms/op",
    "oracle.refine_grid.grid_points": "count",
    "oracle.oracle_decide.calls": "calls/op",
    "oracle.oracle_decide.self_ms": "ms/op",
    "theorems.check_params.calls": "calls/op",
    "theorems.check_params.self_ms": "ms/op",
    "theorems.functional_pair.calls": "calls/op",
    "theorems.functional_pair.self_ms": "ms/op",
    "cli.run_agreement.self_ms": "ms/op",
    "cli.main.calls": "calls/op",
    "cli.main.self_ms": "ms/op",
    "cli.eval_rational_expr.calls": "calls/op",
    "cli.eval_rational_expr.self_ms": "ms/op",
    "cli.run_scan.self_ms": "ms/op",
    "functionals.evaluate.calls": "calls/op",
    "functionals.evaluate.self_ms": "ms/op",
    "trace.overhead_ratio": "ratio",
    "trace.uncovered_ms": "ms/op",
}


class BenchError(Exception):
    """A worker failed or ran past the deadline."""


def run_worker(workload: str, args: argparse.Namespace, deadline: float, setup_only: bool) -> dict:
    """Launch one worker and return its report."""
    t0 = time.monotonic()
    argv = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--t0", repr(t0), "--work", str(WORK / workload),
    ]
    if setup_only:
        argv.append("--setup-only")
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=max(deadline - t0, 1)
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99), inclusive method."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_workload(workload: str, args: argparse.Namespace) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    setups = []
    if not args.trace:
        setups = [run_worker(workload, args, deadline, True) for _ in range(SETUP_PROBES)]
    report = run_worker(workload, args, deadline, False)
    shutil.rmtree(WORK / workload, ignore_errors=True)
    latencies = report["latencies"]
    failures = report["failures"]
    attempted = len(latencies)
    for message in failures[:10]:
        print(f"FAILED {workload}: {message}", file=sys.stderr)

    print(f"workload {workload}  seed {args.seed}  trace {args.trace}")
    print(f"  {'ops attempted':34s} {attempted}")
    print(f"  {'failed_ops_ratio':34s} {len(failures) / attempted:.6f} ratio")
    if args.trace:
        metrics = {name: report["layers"].get(name, 0.0) for name in PER_LAYER}
        units = PER_LAYER
    else:
        scaled = report["scaled"]
        setups = setups + [report]
        metrics = {
            "ops_per_s": attempted / sum(scaled),
            "latency_p50_ms": quantile(scaled, 50) * 1e3,
            "latency_p90_ms": quantile(scaled, 90) * 1e3,
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "peak_rss_mb": report["peak_rss_mb"],
        }
        units = END_TO_END
        print(f"  {'latency samples':34s} {attempted} ({attempted - int(0.9 * attempted)} beyond p90)")
        print(f"  {'wall ops_per_s':34s} {attempted / sum(latencies):.6g} 1/s")
        print(f"  {'wall latency_p50_ms, p90_ms':34s} {quantile(latencies, 50) * 1e3:.6g}, {quantile(latencies, 90) * 1e3:.6g} ms")
        print(f"  {'wall setup_s':34s} {statistics.median(s['setup_wall_s'] for s in setups):.6g} s")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:.6g} {units[name]}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "quadorder" / "__init__.py").is_file():
        print(f"error: no quadorder sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            print(json.dumps(run_workload(workload, args)), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
