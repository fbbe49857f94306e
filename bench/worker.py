"""One workload in one fresh interpreter: set up, run the timed ops, report.

Started by run.py, which passes the monotonic time at which it launched
this process, so that setup_s covers interpreter start, `import
quadorder`, and generating and writing the seeded inputs.  Set-up time and
untraced op latencies are reported both as wall time and scaled to the
reference speed (see CALIBRATION_SHARE).  Prints one JSON line on stdout.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import quadorder  # noqa: E402  (the import is part of set-up)

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


# On a shared host the CPUs change speed, by up to about 1.7x on the 2-vCPU
# VM of bench/README.md, from one millisecond to the next and for seconds at
# a time, as other tenants load them.  Every untraced op is followed by
# calibration chunks, a fixed piece of pure standard-library work, taking
# about CALIBRATION_SHARE of the op's time.  An op's latency is scaled by
# the speed the chunks just before and just after it ran at, to what it
# would be at the reference speed (see CHUNKS).  Nothing in quadorder runs
# in a chunk, so a change to the program moves the scaled latency as it
# moves the wall time, but a change in the host's speed mostly cancels.
MIN_OPS = 100
CALIBRATION_SHARE = 0.15
SETUP_CALIBRATION_S = 0.05


def _interpreter_chunk() -> None:
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(1, i)
    counts: dict[int, int] = {}
    for i in range(1500):
        counts[i % 97] = counts.get(i % 97, 0) + i * i
    sorted(str(i * 7919 % 100003) for i in range(400))


_BIG = random.Random(5)
_BIG_X = [_BIG.getrandbits(3000) | 1 for _ in range(7)]
_BIG_Y = [_BIG.getrandbits(1500) | 1 for _ in range(7)]


def _bigint_chunk() -> None:
    _interpreter_chunk()
    acc = 0
    for x in _BIG_X:
        for y in _BIG_Y:
            acc += math.gcd(x, 3 * y + 1)
            acc ^= (x * y) >> 2000


# A workload's chunk and the chunk's time at the reference speed.
# Interpreter-bound code and big-integer arithmetic do not slow down alike,
# so `bigden`, whose ops are mostly big-integer gcds, has a chunk that adds
# them; every other workload has INTERPRETER_CHUNK.
INTERPRETER_CHUNK = (_interpreter_chunk, 1e-3)
CHUNKS = {"bigden": (_bigint_chunk, 2.5e-3)}


def calibrate(budget_s: float, chunk=_interpreter_chunk) -> list[float]:
    """Run calibration chunks, at least one, until `budget_s` has passed;
    return the time of each.  The collector is off during a chunk, so
    that a collection of the program's garbage is not charged to it."""
    times: list[float] = []
    while not times or sum(times) < budget_s:
        gc.disable()
        t0 = perf_counter()
        chunk()
        times.append(perf_counter() - t0)
        gc.enable()
    return times


@dataclass
class Timings:
    plain: list[float] = field(default_factory=list)  # untraced op latencies, s
    traced: list[float] = field(default_factory=list)  # traced op latencies, s
    scaled: list[float] = field(default_factory=list)  # untraced op latencies at the reference speed, s
    failures: list[str] = field(default_factory=list)


def _time_op(op, tracer=None) -> tuple[float, object, Exception | None]:
    """Run and time one op, traced if a tracer is given."""
    if tracer:
        tracer.install()
        root = tracer.begin_op()
    t0 = perf_counter()
    try:
        result, error = op.run(), None
    except Exception as exc:  # an op that raises is a failed op
        result, error = None, exc
    finally:
        dt = perf_counter() - t0
        if tracer:
            tracer.end_op(root)
            tracer.uninstall()
    if tracer:
        tracer.absorb()
    return dt, result, error


def _check(op, result, error) -> str | None:
    """Check an op's result, untimed and untraced; a failure message or None."""
    if error is not None:
        return f"{op.label}: raised {error!r}"
    try:
        op.verify(result)
    except Exception as exc:  # a malformed output is a wrong output
        return f"{op.label}: {exc}"
    return None


def run_ops(ops, seconds=None, count=None, tracer=None, chunk=INTERPRETER_CHUNK) -> Timings:
    """Closed loop, one op at a time, cycling through `ops`.  With
    `seconds`, runs whole cycles until that much wall time has passed
    (checking and calibration included), so that every op of the cycle is
    weighted alike, and untraced until at least MIN_OPS ops have run, so
    that ten samples lie beyond p90; with `count`, runs that many ops.

    Without a tracer, each op is followed by calibration chunks (see
    CALIBRATION_SHARE) and then by the check of its result.

    With a tracer, each op runs twice in a row, untraced and traced, in
    alternating order.  The two runs of an op are adjacent in time and take
    turns going first, so the ratio of the two totals measures the tracing
    overhead and not a drift in machine speed or a warm cache left by the
    first run.
    """
    timings = Timings()
    end = time.monotonic() + (seconds or 0)
    run_chunk, reference_s = chunk
    after = [] if tracer else calibrate(0, run_chunk)
    min_ops = 0 if tracer else MIN_OPS
    i = 0
    while (i < count) if count is not None else (i % len(ops) or i < min_ops or time.monotonic() < end):
        op = ops[i % len(ops)]
        if tracer:
            for traced_run in (False, True) if i % 2 == 0 else (True, False):
                dt, result, error = _time_op(op, tracer if traced_run else None)
                (timings.traced if traced_run else timings.plain).append(dt)
                failure = _check(op, result, error)
                timings.failures += [failure] if failure else []
        else:
            dt, result, error = _time_op(op)
            before, after = after, calibrate(CALIBRATION_SHARE * dt, run_chunk)
            chunk_s = statistics.fmean(before + after)
            timings.plain.append(dt)
            timings.scaled.append(dt * reference_s / chunk_s)
            failure = _check(op, result, error)
            timings.failures += [failure] if failure else []
        i += 1
    return timings


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True, help="launch time, time.monotonic()")
    parser.add_argument("--work", required=True, help="directory for inputs and outputs")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    if not Path(quadorder.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"quadorder imported from {quadorder.__file__}, not {ROOT / 'src'}")
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    # Calibration chunks run before and after generating the inputs, and
    # their time is left out of setup_s.  The median chunk time scales it,
    # so that one chunk cut by a pause does not scale the whole set-up.
    t = time.monotonic()
    chunk = CHUNKS.get(args.workload, INTERPRETER_CHUNK)
    chunks = calibrate(SETUP_CALIBRATION_S / 2, chunk[0])
    calibration_s = time.monotonic() - t
    ops = WORKLOADS[args.workload](random.Random(args.seed), work)
    setup_s = time.monotonic() - args.t0 - calibration_s
    chunk_s = statistics.median(chunks + calibrate(SETUP_CALIBRATION_S / 2, chunk[0]))
    report: dict = {"setup_s": setup_s * chunk[1] / chunk_s, "setup_wall_s": setup_s}
    if args.setup_only:
        print(json.dumps(report))
        return 0

    tracing.assert_unpatched()
    tracer = tracing.Tracer() if args.trace else None
    timings = run_ops(ops, seconds=args.seconds, tracer=tracer, chunk=chunk)
    tracing.assert_unpatched()
    if tracer:
        layers = tracer.summary(len(timings.traced))
        layers["trace.overhead_ratio"] = sum(timings.traced) / sum(timings.plain)
        report["layers"] = layers
        tracer.write(work.parent / f"spans-{args.workload}.csv")
    else:
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report["latencies"] = timings.plain + timings.traced
    report["scaled"] = timings.scaled
    report["failures"] = timings.failures
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
