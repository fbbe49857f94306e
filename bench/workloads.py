"""The four workloads: seeded inputs, the op each cycle runs, and the check
of every op's result against the benchmark's own reference.

A workload is a fixed cycle of op classes (size, --diagnose, command).
The seed draws every input and which outcome each op has; the class
counts are the same for every seed.  `interleave` spreads each class
evenly over the cycle, so a run that stops after any op has the class
proportions to within one op, and the class counts are chosen so that
latency p50 and p90 fall inside a class rather than on the edge between
two.
"""

from __future__ import annotations

import csv
import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, floor
from pathlib import Path
from typing import Callable

import inputs
import reference as ref
from reference import HALF, ONE, Measure

from quadorder import cli


class CheckFailed(Exception):
    """An op's result disagrees with the benchmark's reference."""


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]
    _verified: set = field(default_factory=set)

    def verify(self, result: object) -> None:
        """Check the result; identical results of the same op are checked once."""
        key = repr(result)
        if key not in self._verified:
            self.check(result)
            self._verified.add(key)


def interleave(groups: list[list[Op]]) -> list[Op]:
    """Merge the groups so that every prefix holds each group in
    proportion to its size, to within one op."""
    keyed = [((j + 0.5) / len(g), i, op) for i, g in enumerate(groups) for j, op in enumerate(g)]
    return [op for _, _, op in sorted(keyed, key=lambda k: k[:2])]


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _cli_op(label: str, argv: list[str], out: Path, expect_code: int, check_output) -> Op:
    def run():
        return cli.main(argv), out.read_bytes()

    def check(result):
        code, raw = result
        _require(code == expect_code, f"{label}: exit {code}, expected {expect_code}")
        check_output(raw.decode())

    return Op(label, run, check)


# ---------------------------------------------------------------------------
# check: large-smooth and bigden
# ---------------------------------------------------------------------------

OUTCOMES = ("holds", "hinge", "linear")


def check_verdict(kind: str, a: Measure, b: Measure, diagnose: bool, text: str) -> None:
    """The `check` verdict JSON against the answer known by construction.

    A hinge gap is re-evaluated from the atoms; a linear witness must point
    the way the barycenters differ.
    """
    out = json.loads(text)
    witness = out["witness"]
    if kind == "holds":
        _require(out["outcome"] == "holds" and witness is None, f"expected holds, got {out}")
    else:
        _require(out["outcome"] == "fails", f"expected fails, got {out['outcome']}")
        _require(witness is not None and witness["kind"] == kind, f"expected a {kind} witness")
    if kind == "hinge":
        s, gap = Fraction(witness["s"]), Fraction(witness["gap"])
        _require(gap > 0 and ref.hinge_gap(a, b, s) == gap, f"hinge gap at s={s} is not {gap}")
    if kind == "linear":
        sign = 1 if ref.barycenter(a) > ref.barycenter(b) else -1
        _require(witness["direction"] == f"{sign:+d}", "linear witness points the wrong way")
    if diagnose:
        paths = out["paths"]
        _require(paths["cumulative"] == out["outcome"], "paths.cumulative differs from outcome")
        lemma = None if kind == "linear" else out["outcome"]
        _require(paths["lemma"] == lemma, f"paths.lemma is {paths['lemma']}, expected {lemma}")
        crossings = out["crossings"]
        _require(
            len(crossings["areas"]) == crossings["n"] + 1 == len(crossings["points"]) + 1
            and all(Fraction(x) > 0 for x in crossings["areas"]),
            "malformed crossing profile",
        )


def _write(path: Path, m: Measure) -> str:
    path.write_text(json.dumps(m.to_json()), encoding="utf-8")
    return str(path)


def _read(path: str) -> Measure:
    return Measure.from_json(json.loads(Path(path).read_text(encoding="utf-8")))


def _check_cycle(
    rng: random.Random,
    work: Path,
    classes: list[tuple[int, bool, int]],
    make_pair: Callable[[random.Random, int, int], tuple[Measure, Measure]],
) -> list[Op]:
    """Classes are (n, diagnose, ops).  Within a class the outcomes run
    through holds / hinge / linear from a seeded start, so a class of
    three or a multiple of three has each outcome equally often.  Any
    other class starts at hinge, so that its cost does not depend on the
    seed."""
    groups = []
    for n, diagnose, count in classes:
        start = rng.randrange(3) if count % 3 == 0 else OUTCOMES.index("hinge")
        group = []
        for k in range(count):
            kind = OUTCOMES[(start + k) % 3]
            a, b = make_pair(rng, n, k)
            if kind == "hinge":
                a, b = b, a
            elif kind == "linear":
                b = inputs.shifted(rng, b)
            name = f"n{n}-{'diagnose' if diagnose else 'plain'}-{kind}-{k}"
            out = work / f"{name}-out.json"
            lhs, rhs = _write(work / f"{name}-a.json", a), _write(work / f"{name}-b.json", b)
            argv = ["check", lhs, rhs, "--out", str(out)] + (["--diagnose"] if diagnose else [])
            # The checker reads the pair back from its files, so the worker
            # holds no copy of the inputs while the ops run.
            check = lambda text, kind=kind, lhs=lhs, rhs=rhs, d=diagnose: check_verdict(
                kind, _read(lhs), _read(rhs), d, text
            )
            group.append(_cli_op(name, argv, out, 0 if kind == "holds" else 1, check))
        groups.append(group)
    return interleave(groups)


def build_large_smooth(rng: random.Random, work: Path) -> list[Op]:
    # 35 ops a cycle, sorted by latency: plain n=250 (0-60%, holds p50),
    # diagnosed n=250 and plain n=1000 (60-94%, holds p90), one diagnosed
    # n=1000, one plain n=4000.  The tail class is wide and made of
    # mid-sized ops, so p90 rests on many samples per run.
    classes = [(250, False, 21), (250, True, 6), (1000, False, 6), (1000, True, 1), (4000, False, 1)]

    def make_pair(rng, n, k):
        # alternate slots carry a uniform part of weight 1/4
        return inputs.smooth_pair(rng, n, Fraction(1, 4) if k % 2 else Fraction(0))

    return _check_cycle(rng, work, classes, make_pair)


def build_bigden(rng: random.Random, work: Path) -> list[Op]:
    # 25 ops a cycle, sorted by latency: plain n=50 (0-24%), plain n=100
    # (24-60%, holds p50), diagnosed n=50 (60-72%), plain n=200 and
    # diagnosed n=100 (72-96%, holds p90), one diagnosed n=200.
    classes = [(50, False, 6), (100, False, 9), (50, True, 3), (200, False, 3), (100, True, 3), (200, True, 1)]
    return _check_cycle(rng, work, classes, lambda rng, n, k: inputs.bigden_pair(rng, n))


# ---------------------------------------------------------------------------
# agree
# ---------------------------------------------------------------------------

# Samples per batch, one size per op of the cycle: 10, 14, ..., 54, with
# the theorems round-robin.  Latencies then spread evenly over a range
# instead of piling up at one value, so p50 and p90 move smoothly, not by a
# jump, when the machine's speed changes during a run.
AGREE_BATCHES = range(10, 58, 4)


def theorem_pair(params) -> tuple[Measure, Measure]:
    """The pair a theorem's parameter record describes, built from its fields."""
    p = {name: getattr(params, name) for name in params.__dataclass_fields__}
    kind = type(params).__name__
    uniform = Measure((), ONE)
    if kind == "ThreeNodeLowerParams":
        rule = Measure(tuple((1 - p[f"alpha{i}"], p[f"a{i}"]) for i in (1, 2, 3)))
        return rule, uniform
    if kind == "FourNodeUpperParams":
        nodes = ((0, p["a1"]), (1 - p["alpha2"], p["a2"]), (1 - p["alpha3"], p["a3"]), (1, p["a4"]))
        return uniform, Measure(tuple((Fraction(t), w) for t, w in nodes))
    if kind == "TwoVsThreeParams":
        two = Measure(((1 - p["alpha1"], p["a"]), (1 - p["alpha2"], 1 - p["a"])))
        three = Measure(((Fraction(0), p["b1"]), (1 - p["beta"], p["b2"]), (ONE, p["b3"])))
        return two, three
    raise ValueError(f"unknown parameter record {kind}")


def reference_holds(theorem: str, seed: int, samples: int) -> int:
    """How many of the batch's samples hold, by the benchmark's own decider.

    The batch is replayed with the program's sampler, which is input
    generation, not decision."""
    sampler = cli._SAMPLERS[theorem]
    rng = random.Random(seed)
    count = 0
    for _ in range(samples):
        a, b = theorem_pair(sampler(rng))
        count += ref.reference_outcome(a, b) != "fails"
    return count


def build_agree(rng: random.Random, work: Path) -> list[Op]:
    ops = []
    for k, batch in enumerate(AGREE_BATCHES):
        theorem = cli.THEOREM_IDS[k % len(cli.THEOREM_IDS)]
        seed = rng.randrange(2**31)

        def run(theorem=theorem, seed=seed, batch=batch):
            s = cli.run_agreement(theorem, batch, seed)
            return s.samples, s.holds_count, s.fails_count, len(s.disagreements)

        def check(result, theorem=theorem, seed=seed, batch=batch):
            samples, holds, fails, disagreements = result
            expected = reference_holds(theorem, seed, batch)
            _require(samples == batch and disagreements == 0, f"{theorem}/{seed}: {result}")
            _require(
                (holds, fails) == (expected, batch - expected),
                f"{theorem}/{seed}: {holds} hold, reference says {expected}",
            )

        ops.append(Op(f"{theorem}-{batch}", run, check))
    return ops


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def _rational_in(rng: random.Random, lo: Fraction, hi: Fraction) -> Fraction:
    """A seeded rational strictly inside (lo, hi) with a small denominator."""
    den = rng.choice((40, 60, 80, 100, 120, 150, 200))
    k = rng.randint(floor(lo * den) + 1, ceil(hi * den) - 1)
    return Fraction(k, den)


def check_threshold(family: str, fixed: dict[str, Fraction], text: str) -> None:
    out = json.loads(text)
    value, attained = ref.closed_form_threshold(family, fixed)
    _require(
        out["threshold"] == str(value) and out["attained"] == attained and out["exact"] is True,
        f"{family} {fixed}: got {out['threshold']} attained={out['attained']}, "
        f"closed form {value} attained={attained}",
    )


def check_scan(family: str, fixed: dict[str, Fraction], points: int, text: str) -> None:
    rows = list(csv.reader(text.splitlines()))
    header, rows = rows[0], rows[1:]
    _require(len(rows) == points, f"{family} scan has {len(rows)} rows, expected {points}")
    params = header[: header.index("holds")]
    for row in rows:
        p = dict(fixed)
        p.update((name, Fraction(v)) for name, v in zip(params, row))
        record = dict(zip(header, row))
        holds = ref.closed_form_holds(family, p)
        _require(record["holds"] == ("true" if holds else "false"), f"{family} row {row}: holds is {holds}")
        if not holds:
            a, b = ref.family_pair(family, p)
            s = Fraction(record["witness_s"])
            _require(ref.hinge_gap(a, b, s) > 0, f"{family} row {row}: no violation at s={s}")
        else:
            _require(record["witness_s"] == "", f"{family} row {row}: witness on a holding row")


def _sweep_op(work: Path, slot: int, command: str, family: str, sweep: str, fixed: dict, check) -> Op:
    name = f"{command}-{family}-{slot}"
    out = work / f"{name}-out.txt"
    argv = [command, "--family", family, "--sweep", sweep, "--out", str(out)]
    for param, value in fixed.items():
        argv += ["--fix", f"{param}={value}"]
    return _cli_op(name, argv, out, 0, check)


B_WEIGHTS = (
    {"b1": Fraction(1, 3), "b2": Fraction(1, 3), "b3": Fraction(1, 3)},
    {"b1": Fraction(1, 6), "b2": Fraction(2, 3), "b3": Fraction(1, 6)},
)

# Scan grids have step 1/(2m) and 150 points for every family, so the four
# scans cost about the same and p90, which falls among them, does not jump
# between two families.
SCAN_HALF_STEPS = {"bp1": 149, "symmetric3": 151, "endpoint4": 151, "twoVsThree": 151}


def build_sweeps(rng: random.Random, work: Path) -> list[Op]:
    # 20 ops a cycle, sorted by latency: bp1 thresholds and symmetric3
    # thresholds capped at 1/2 (0-30%), bisecting thresholds (30-80%,
    # holds p50), scans (80-100%, holds p90).
    slots = itertools.count()

    def threshold(family, sweep, fixed):
        check = lambda text: check_threshold(family, fixed, text)
        return _sweep_op(work, next(slots), "threshold", family, sweep, fixed, check)

    # two alphas with the boundary capped at 1/2, two that bisect
    symmetric3 = [
        threshold("symmetric3", "a=1/20:9/20:1/20", {"alpha": _rational_in(rng, lo, hi)})
        for lo, hi in ((HALF, Fraction(3, 4)),) * 2 + ((Fraction(3, 4), Fraction(39, 40)),) * 2
    ]
    endpoint4 = [
        threshold("endpoint4", "a=1/40:19/40:1/40", {"alpha": _rational_in(rng, Fraction(11, 20), Fraction(19, 20))})
        for _ in range(4)
    ]
    steps = [Fraction(1, k) for k in (20, 30, 40, 60)]
    rng.shuffle(steps)
    two_vs_three = [
        threshold("twoVsThree", f"alpha={HALF + step}:{ONE - step}:{step}", dict(B_WEIGHTS[k % 2]))
        for k, step in enumerate(steps)
    ]
    bp1 = [threshold("bp1", f"x=0:1/2:1/{2 * k}", {}) for k in (5, 10, 15, 20)]

    scans = []
    for family, m in SCAN_HALF_STEPS.items():
        step = Fraction(1, 2 * m)
        if family == "bp1":
            sweep, fixed, points = f"x=0:1/2:{step}", {}, m + 1
        elif family == "twoVsThree":
            sweep, fixed, points = f"alpha={HALF + step}:{ONE - step}:{step}", dict(rng.choice(B_WEIGHTS)), m - 1
        else:
            sweep, fixed, points = f"a={step}:{HALF - step}:{step}", {"alpha": _rational_in(rng, HALF, Fraction(39, 40))}, m - 1
        check = lambda text, f=family, p=fixed, n=points: check_scan(f, p, n, text)
        scans.append(_sweep_op(work, next(slots), "scan", family, sweep, fixed, check))
    return interleave([symmetric3, endpoint4, two_vs_three, bp1, scans])


WORKLOADS: dict[str, Callable[[random.Random, Path], list[Op]]] = {
    "agree": build_agree,
    "large-smooth": build_large_smooth,
    "bigden": build_bigden,
    "sweeps": build_sweeps,
}
