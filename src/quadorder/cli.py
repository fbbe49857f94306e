"""Command-line front end.

Subcommands:

* check      decide one pair of functionals (presets, JSON, or files)
* threshold  locate the exact parameter boundary of a holds-region
* scan       tabulate holds/fails over a parameter grid as CSV
* agree      fuzz the closed-form case checkers against the decider and
             the hinge-grid oracle, emitting disagreement diagnostics

All parameter arithmetic is rational end to end; no float ever enters a
decision.  Output bytes are a deterministic function of (argv, input
files, seed).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import operator
import os
import random
import re
import sys
from bisect import bisect_left
from contextlib import suppress
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, repeat
from math import ceil, floor
from typing import Optional, Sequence

from .functionals import (
    Functional,
    FunctionalError,
    HALF,
    ONE,
    PRESETS,
    ScalarMap,
    ZERO,
    as_fraction,
    functional_from_json,
)
from .oracle import oracle_decide
from .ordering import (
    FAILS,
    InternalDisagreement,
    decide,
    verdict_to_json,
    verify_witness,
)
from .theorems import (
    CaseCheck,
    ParamError,
    TheoremParams,
    _SAMPLERS,
    check_params,
    functional_pair,
    params_from_json,
    params_to_json,
    record_pair,
)

__all__ = [
    "CLIError",
    "NonMonotoneRegion",
    "ScanSpec",
    "FAMILIES",
    "THEOREM_IDS",
    "eval_rational_expr",
    "run_threshold",
    "run_scan",
    "run_agreement",
    "main",
]


class CLIError(ValueError):
    """Bad command-line input; maps to exit code 2."""


class NonMonotoneRegion(CLIError):
    """holds/fails is not monotone along the sweep, so no threshold exists."""


# ---------------------------------------------------------------------------
# Rational expression evaluation (template fields, --fix/--sweep values)
# ---------------------------------------------------------------------------


# A parameter name: a letter or "_", then letters, digits or "_".
_NAME = re.compile(r"[^\W\d]\w*")
# One token per match: a number, a name, an operator or parenthesis, or a
# bad character.
_TOKEN = re.compile(rf"\s*(?:([\d.]+)|({_NAME.pattern})|([-+*/()])|(\S))")
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "~": 3}  # "~" is unary minus
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
# Each distinct expression text is parsed once; a scan or threshold search
# re-evaluates the same few texts at every point.
_EXPR_CACHE_SIZE = 1024


@lru_cache(maxsize=_EXPR_CACHE_SIZE)
def _compile(text: str) -> tuple:
    """Postfix form of an expression: Fraction literals, parameter names,
    and the operators of _PRECEDENCE.  Parsed by shunting-yard without
    recursion, so nesting depth costs only list space."""
    out: list = []
    ops: list[str] = []
    depth = 0  # open parentheses on ops
    expect_operand = True

    def emit(op: str) -> None:
        # Fold an operator whose operands are all literals; x/0 is left
        # for the evaluator to report.
        args = out[-1:] if op == "~" else out[-2:]
        if any(type(v) is str for v in args) or (op == "/" and args[1] == 0):
            out.append(op)
        else:
            del out[-len(args):]
            out.append(-args[0] if op == "~" else _BINARY[op](*args))

    for number, name, op, bad in _TOKEN.findall(text):
        if bad:
            raise CLIError(f"bad character {bad!r} in expression {text!r}")
        if expect_operand and (number or name):
            try:
                out.append(as_fraction(number) if number else name)
            except FunctionalError:
                raise CLIError(f"bad number {number!r} in {text!r}") from None
            expect_operand = False
        elif expect_operand and op in ("-", "+", "("):
            if op != "+":
                ops.append("~" if op == "-" else op)
                depth += op == "("
        elif expect_operand:
            raise CLIError(f"unexpected {op!r} in expression {text!r}")
        elif op in _BINARY:
            while ops and ops[-1] != "(" and _PRECEDENCE[ops[-1]] >= _PRECEDENCE[op]:
                emit(ops.pop())
            ops.append(op)
            expect_operand = True
        elif op == ")" and depth:
            while ops[-1] != "(":
                emit(ops.pop())
            ops.pop()
            depth -= 1
        else:
            raise CLIError(f"trailing junk in expression {text!r}")
    if expect_operand:
        raise CLIError(f"unexpected end of expression {text!r}")
    if depth:
        raise CLIError(f"missing ')' in expression {text!r}")
    for op in reversed(ops):
        emit(op)
    return tuple(out)


def eval_rational_expr(text: str, env: Optional[dict[str, Fraction]] = None) -> Fraction:
    """Evaluate +,-,*,/ over rationals and named parameters, exactly."""
    stack: list[Fraction] = []
    for item in _compile(str(text)):
        if type(item) is not str:  # a literal
            stack.append(item)
        elif item == "~":
            stack[-1] = -stack[-1]
        elif item in _BINARY:
            right = stack.pop()
            if item == "/" and right == 0:
                raise CLIError(f"division by zero in {text!r}")
            stack[-1] = _BINARY[item](stack[-1], right)
        elif env and item in env:
            stack.append(env[item])
        else:
            raise CLIError(f"unknown name {item!r} in expression {text!r}")
    return stack[0]


# ---------------------------------------------------------------------------
# Parametric families for scan/threshold
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Param:
    """One parameter of a named family: its default, its valid range
    between lo and hi (open at both ends, or closed at both if closed),
    and fail_toward, the direction ("high" or "low") along which holds
    eventually gives way to fails, or None when the family declares none."""

    default: Fraction
    lo: Fraction
    hi: Fraction
    closed: bool = False
    fail_toward: Optional[str] = None


@dataclass(frozen=True)
class Family:
    """A parametric pair of functionals, as data.

    A named family's record is a template of a theorems parameter record
    (the shape params_to_json emits) whose fields are expressions in the
    parameters: its rules build the pair, unvalidated, and a scan reports
    its case label where it is valid.  A custom family has no record;
    lhs and rhs are functional templates in the --lhs/--rhs syntax.
    build is the only place that tells the two kinds apart.
    params is ordered and gives the scan columns; each Param holds the
    parameter's default, valid range and fail direction, the last used
    only to report a range cap when every grid point holds.
    """

    name: str
    params: dict[str, Param] = field(default_factory=dict)
    record: Optional[dict[str, str]] = None
    lhs: object = None
    rhs: object = None

    def build(self, params: dict[str, Fraction]) -> tuple[Functional, Functional, Optional[dict]]:
        """The pair at params, and the record's fields evaluated there
        (None for a custom family), each field evaluated once."""
        if self.record is not None:
            record = {
                key: text if key == "family" else eval_rational_expr(text, params)
                for key, text in self.record.items()
            }
            return (*record_pair(record), record)
        # a scalar that is not a string is read as check reads it (floats refused)
        scalar = lambda _, v: eval_rational_expr(v, params) if type(v) is str else as_fraction(v)
        return functional_from_json(self.lhs, scalar), functional_from_json(self.rhs, scalar), None


FAMILIES: dict[str, Family] = {family.name: family for family in (
    Family(
        "symmetric3",
        params={
            "a": Param(Fraction(1, 4), ZERO, HALF, fail_toward="high"),
            "alpha": Param(Fraction(3, 4), HALF, ONE, fail_toward="high"),
        },
        record={"family": "three-node-lower", "a1": "a", "a2": "1-2*a", "a3": "a",
                "alpha1": "alpha", "alpha2": "1/2", "alpha3": "1-alpha"},
    ),
    Family(
        "endpoint4",
        params={
            "a": Param(Fraction(1, 4), ZERO, HALF, fail_toward="low"),
            "alpha": Param(Fraction(3, 4), HALF, ONE, fail_toward="low"),
        },
        record={"family": "four-node-upper", "a1": "a", "a2": "1/2-a", "a3": "1/2-a",
                "a4": "a", "alpha2": "alpha", "alpha3": "1-alpha"},
    ),
    Family(
        "twoVsThree",
        params={
            "alpha": Param(Fraction(3, 5), HALF, ONE, fail_toward="high"),
            "b1": Param(Fraction(1, 6), ZERO, ONE),
            "b2": Param(Fraction(2, 3), ZERO, ONE),
            "b3": Param(Fraction(1, 6), ZERO, ONE),
        },
        record={"family": "two-vs-three", "a": "1/2", "alpha1": "alpha", "alpha2": "1-alpha",
                "beta": "1/2", "b1": "b1", "b2": "b2", "b3": "b3"},
    ),
    Family(
        "bp1",
        params={"x": Param(Fraction(1, 4), ZERO, HALF, True, fail_toward="high")},
        # At x = 0 and x = 1/2 the record is degenerate: it builds its pair
        # but fails validation (ParamError), so it gets no label.
        record={"family": "four-node-upper", "a1": "1/4", "a2": "1/4", "a3": "1/4",
                "a4": "1/4", "alpha2": "1-x", "alpha3": "x"},
    ),
)}


# A sweep grid longer than this is bad input: each point costs a decide.
MAX_GRID_POINTS = 10**5


@dataclass(frozen=True)
class ScanSpec:
    """A sweep of one parameter over a rational grid, the rest fixed."""

    family: Family
    sweep: str
    start: Fraction
    stop: Fraction
    step: Fraction
    fixed: dict[str, Fraction]

    @cached_property
    def grid(self) -> tuple[Fraction, ...]:
        """The sweep values, built on the first read and kept; a tuple, so
        that no caller changes what the next one reads."""
        count = (self.stop - self.start) // self.step + 1
        if count > MAX_GRID_POINTS:
            raise CLIError(
                f"sweep grid has {count} points, more than the limit of {MAX_GRID_POINTS}"
            )
        return tuple(self.start + i * self.step for i in range(count))

    def params_at(self, value: Fraction) -> dict[str, Fraction]:
        return {**self.fixed, self.sweep: value}


def _make_scan_spec(
    family: Family, sweep_arg: str, fix_args: Sequence[str]
) -> ScanSpec:
    # a missing "=" leaves grid_text empty, one part: the same error
    name, _, grid_text = sweep_arg.partition("=")
    name = name.strip()
    parts = grid_text.split(":")
    if len(parts) != 3:
        raise CLIError("--sweep must look like name=start:stop:step")
    start, stop, step = (eval_rational_expr(part) for part in parts)
    if step <= 0:
        raise CLIError(f"sweep step must be positive, got {step}")
    if stop < start:
        raise CLIError(f"sweep stop {stop} is below start {start}")
    fixed = {key: param.default for key, param in family.params.items() if key != name}
    for fix in fix_args:
        if "=" not in fix:
            raise CLIError("--fix must look like name=value")
        key, _, value_text = fix.partition("=")
        if key.strip() == name:
            raise CLIError(f"--fix cannot set {name}: it is the swept parameter")
        fixed[key.strip()] = eval_rational_expr(value_text)
    # a name no expression can use would sweep or fix nothing
    for key in (name, *fixed):
        if not _NAME.fullmatch(key):
            raise CLIError(f"{key!r} is not a name: a letter or _, then letters, digits or _")
    spec = ScanSpec(family, name, start, stop, step, fixed)
    if family.params:
        # every parameter at the first grid point, then the swept one alone:
        # the first bad value raises, as it would point by point
        grid = spec.grid
        for key, value in chain(spec.params_at(grid[0]).items(), zip(repeat(name), grid[1:])):
            param = family.params.get(key)
            if param is None:
                raise CLIError(f"family {family.name} has no parameter {key!r}")
            lo, hi = param.lo, param.hi
            if not (lo <= value <= hi if param.closed else lo < value < hi):
                valid = f"[{lo}, {hi}]" if param.closed else f"({lo}, {hi})"
                raise CLIError(
                    f"{key} = {value} outside the valid range {valid} for family {family.name}"
                )
    return spec


# ---------------------------------------------------------------------------
# Functional templates with parameter expressions
# ---------------------------------------------------------------------------


def _load_json_or_file(text: str) -> object:
    raw = text
    if not text.lstrip().startswith("{"):
        try:
            with open(text, "r", encoding="utf-8") as handle:
                raw = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise CLIError(f"cannot read {text!r}: {exc}") from None
    try:
        return json.loads(raw)
    except (ValueError, RecursionError) as exc:
        raise CLIError(f"bad JSON in {text!r}: {exc}") from None


def _sweep_spec(args: argparse.Namespace) -> ScanSpec:
    """The sweep of threshold's or scan's --family, --lhs/--rhs, --sweep and --fix."""
    family = FAMILIES.get(args.family)
    if args.family == "custom":
        if not (args.lhs and args.rhs):
            raise CLIError("family custom needs --lhs and --rhs templates")
        lhs, rhs = (_load_json_or_file(text) for text in (args.lhs, args.rhs))
        family = Family("custom", lhs=lhs, rhs=rhs)
    elif family is None:
        raise CLIError(f"unknown family {args.family!r}")
    elif args.lhs is not None or args.rhs is not None:
        raise CLIError(f"--lhs and --rhs are for --family custom, not {args.family}")
    return _make_scan_spec(family, args.sweep, args.fix)


# ---------------------------------------------------------------------------
# Threshold search
# ---------------------------------------------------------------------------


# The search resolves the boundary to 1/(2 * max_denominator**2).  A rational
# boundary within the limit costs a few decides at any limit, but an
# irrational one costs decides in proportion to the digits of the limit: at
# this cap a plain bisection would take about 210 decides, and the search
# takes up to about 15% more.
MAX_DENOMINATOR = 10**30


def run_threshold(
    spec: ScanSpec, max_denominator: int = 10**6
) -> dict:
    """Exact boundary of the holds-region along the sweep.

    Scans the grid, checks monotonicity, brackets the switch (probing
    between the grid edge and the valid-range bound when every grid
    point holds), then refines the bracket by rational bisection until
    at most one rational with denominator <= max_denominator fits, and
    takes it (the midpoint's best approximation within the limit).  It
    is exact only when it holds and a fresh probe halfway to the failing
    end fails; otherwise the highest point known to hold is reported
    inexact.

    The bisection is the specification: every probe past the grid is
    answered from the tightest decided bounds where they settle it, and a
    galloping Stern-Brocot search first narrows them, so that a boundary
    p/q within the limit costs O(log q) decides, not O(log limit).

    The search runs in u = sign * v, where sign is +1 when the holds-region
    lies below the switch and -1 when it lies above, so the holds side is
    always toward lower u; every probe is decided at v = sign * u.
    """
    if max_denominator < 1:
        raise CLIError(f"--max-denominator must be at least 1, got {max_denominator}")
    if max_denominator > MAX_DENOMINATOR:
        raise CLIError(f"--max-denominator must be at most {MAX_DENOMINATOR}")
    family, grid = spec.family, spec.grid

    def holds(v: Fraction) -> bool:
        a, b, _ = family.build(spec.params_at(v))
        return decide(a, b).holds

    flags = [holds(v) for v in grid]
    switches = [i for i in range(len(flags) - 1) if flags[i] != flags[i + 1]]
    if len(switches) > 1:
        raise NonMonotoneRegion(
            f"holds/fails switches more than once along {spec.sweep}: "
            f"{['H' if f else 'F' for f in flags]}"
        )

    def report(u: Fraction, attained: bool, exact: bool, basis: str) -> dict:
        return {
            "family": family.name,
            "sweep": spec.sweep,
            "fixed": {k: str(v) for k, v in sorted(spec.fixed.items())},
            "grid": {"start": str(spec.start), "stop": str(spec.stop), "step": str(spec.step)},
            "direction": "holds_below" if sign > 0 else "holds_above",
            "threshold": str(sign * u),
            "attained": attained,
            "exact": exact,
            "basis": basis,
        }

    # Every decide past the grid, range cap included, goes through probe(u):
    # known holds the tightest decided bounds, the largest u decided to hold
    # and the smallest decided to fail, and a u outside them is answered
    # without a decide.
    def probe(u: Fraction) -> bool:
        if not known[0] < u < known[1]:
            return u <= known[0]
        verdict = holds(sign * u)
        known[not verdict] = u
        return verdict

    if switches:
        i = switches[0]
        sign = 1 if flags[i] else -1
        known = sorted((sign * grid[i], sign * grid[i + 1]))
    else:
        if not any(flags):
            raise NonMonotoneRegion(
                f"no grid point holds; nothing to bracket along {spec.sweep}"
            )
        # Every grid point holds.  Probe between the grid edge and the
        # valid-range bound: any boundary representable within the denominator
        # limit lies at least 1/(max_denominator * bound.denominator) inside
        # the bound, so one probe either brackets it or rules it out.
        param = family.params.get(spec.sweep)
        if param is None or param.fail_toward is None:
            raise NonMonotoneRegion(
                f"every grid point holds and family {family.name!r} declares no "
                f"fail direction for {spec.sweep!r}; widen the grid"
            )
        sign = 1 if param.fail_toward == "high" else -1
        # The range end toward higher u, in u.
        bound = max(sign * param.lo, sign * param.hi)
        # known starts at the grid edge toward the bound, which held, and
        # past the bound, where nothing is decided: so a closed bound that is
        # the grid edge is answered without a decide.
        known = [max(sign * v for v in grid), bound + 1]
        if param.closed and probe(bound):
            return report(bound, True, True, "range-cap")
        inside = bound - Fraction(1, 2 * max_denominator * bound.denominator)
        if inside <= known[0]:
            inside = (known[0] + bound) / 2
        if probe(inside):
            # No failing point with denominator <= max_denominator short of
            # the bound: the holds-region runs up to the (open) range bound.
            return report(bound, False, True, "range-cap")
    lo, hi = known

    # Invariant: lo holds, hi fails.  The bisection below shrinks [lo, hi]
    # until it contains at most one rational with denominator <=
    # max_denominator (two distinct p/q, r/s differ by >= 1/(q*s)), in
    # `halvings` steps that end in one of 2**halvings cells of width `cell`.
    halvings = (ceil((hi - lo) * 2 * max_denominator**2) - 1).bit_length()
    cell = (hi - lo) / 2**halvings
    # A galloping Stern-Brocot search (Kwek & Mehlhorn 2003) over the
    # rationals within the limit: ends[True] = a/b holds and ends[False] =
    # c/d fails (1/0 is +infinity).  They start at floor(lo)/1 and 1/0, a
    # unimodular pair, so their mediants are the tree's points between them.
    # Each turn moves one end toward the other as far as it keeps its
    # verdict, doubling the step and then bisecting back.  Before each turn
    # of the failing end, if the holds bound has risen since the last such
    # probe, the top of its cell is probed: when the bound is the boundary,
    # that probe fails and ends the search, which would otherwise step
    # toward it up to the limit.

    # The largest k >= 0 whose point (n + k dn) / (m + k dm) answers want,
    # its denominator within the limit (toward 1/0, the point at most
    # ceil(hi), past which every point fails).  The step doubles while its
    # point answers want; then bisect_left finds the first miss among the
    # steps strictly between the last good one and the first bad one (or
    # the limit), and the step before it is the answer: it moves its low
    # end only past a step that answered want, and its high end only onto
    # one that missed.
    def run(n: int, m: int, dn: int, dm: int, want: bool) -> int:
        limit = (max_denominator - m) // dm if dm else ceil(hi) * m - n
        miss = lambda k: probe(Fraction(n + k * dn, m + k * dm)) != want
        good, bad = 0, 1
        while bad <= limit and not miss(bad):
            good, bad = bad, 2 * bad
        return good + bisect_left(range(good + 1, min(bad, limit + 1)), True, key=miss)

    ends, want, checked = {True: (floor(lo), 1), False: (1, 0)}, False, None
    while True:
        if not want and checked != known[0]:
            if not probe(lo + (floor((known[0] - lo) / cell) + 1) * cell):
                break
            checked = known[0]
        (n, m), (dn, dm) = ends[want], ends[not want]
        if m + dm > max_denominator:
            break
        k = run(n, m, dn, dm, want)
        ends[want], want = (n + k * dn, m + k * dm), not want

    # Cell edge i is lo + i * cell: one at or below known[0] holds, one at or
    # above known[1] fails, so bisect_left searches only the edges strictly
    # between, first + 1 .. last - 1, for the first that fails (last if
    # none does).  It raises its low end only past an edge it found to hold
    # and lowers its high end only onto one it found to fail, so both edges
    # of the final cell k were decided or settled by known, even where the
    # holds-set inside the bracket is not an interval.
    first, last = floor((known[0] - lo) / cell), ceil((known[1] - lo) / cell)
    k = first + bisect_left(range(first + 1, last), True, key=lambda i: not probe(lo + i * cell))
    lo, hi = lo + k * cell, lo + (k + 1) * cell
    # A rational that fits is the midpoint's closest one within the limit.
    # The holds-set is closed, so a failing candidate is not the boundary,
    # and a candidate whose probe toward hi also holds lies below it.  An
    # irrational boundary between a holding candidate and its failing probe
    # still passes as exact.  Every value decided past the grid is a cell
    # edge or a rational within the limit, and the final cell holds at
    # most one such rational; so whatever the holds-set, a value reported as
    # holding was decided, and so was an exact report's confirming probe.
    candidate = ((lo + hi) / 2).limit_denominator(max_denominator)
    if not (lo <= candidate <= hi and probe(candidate)):
        return report(lo, True, False, "refined")
    beyond = (candidate + hi) / 2
    if probe(beyond):
        return report(beyond, True, False, "refined")
    return report(candidate, True, True, "refined")


# ---------------------------------------------------------------------------
# Scan
# ---------------------------------------------------------------------------


def run_scan(spec: ScanSpec) -> tuple[list[str], list[list[str]]]:
    """One row per grid point: parameters, holds, case label, witness s."""
    family = spec.family
    columns = list(family.params) or [spec.sweep, *sorted(spec.fixed)]
    header = columns + ["holds", "case", "witness_s"]
    rows = []
    for value in spec.grid:
        params = spec.params_at(value)
        a, b, record = family.build(params)
        verdict = decide(a, b)
        # a custom family's record (None) or a degenerate one gets no label
        case = ""
        with suppress(ParamError):
            case = check_params(params_from_json(record)).case or ""
        # only a fails verdict has a witness
        witness_s = str(getattr(verdict.witness, "s", ""))
        row = [str(params[c]) for c in columns]
        rows.append(row + ["true" if verdict.holds else "false", case, witness_s])
    return header, rows


# ---------------------------------------------------------------------------
# Agreement fuzzing: case checkers vs. decider vs. oracle
# ---------------------------------------------------------------------------

THEOREM_IDS = tuple(_SAMPLERS)


@dataclass
class AgreementSummary:
    theorem: str
    samples: int
    seed: int
    holds_count: int
    fails_count: int
    disagreements: list[dict]

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem,
            "samples": self.samples,
            "seed": self.seed,
            "holds": self.holds_count,
            "fails": self.fails_count,
            "disagreements": len(self.disagreements),
        }


def _disagreement_record(
    params: TheoremParams,
    check: CaseCheck,
    oracle_clean: bool,
    a: Functional,
    b: Functional,
) -> dict:
    """Full diagnostic for a checker/decider/oracle mismatch.

    The decider's witness is re-verified by direct evaluation, so the
    record itself proves which side is right: a verified witness means
    the comparison truly fails no matter what the case list says; a
    Holds verdict confirmed by a clean oracle pass over the structural
    grid means it truly holds.  witness_verified is None when the
    decider does not report fails, since there is no witness to check.
    """
    diagnostic = decide(a, b, diagnose=True)
    witness_ok = verify_witness(a, b, diagnostic) if diagnostic.outcome == FAILS else None
    return {
        "params": params_to_json(params),
        "checker": {"holds": check.holds, "mean_ok": check.mean_ok, "case": check.case},
        "decider": verdict_to_json(diagnostic, diagnose=True),
        "oracle_clean": oracle_clean,
        "witness_verified": witness_ok,
        "adjudication": "fails" if witness_ok else "holds",
    }


def run_agreement(theorem: str, samples: int, seed: int) -> AgreementSummary:
    """Draw parameter tuples satisfying the family hypotheses plus the
    barycenter condition, and compare checker vs. decider vs. oracle."""
    if theorem not in _SAMPLERS:
        raise CLIError(f"unknown theorem id {theorem!r}; pick from {THEOREM_IDS}")
    if samples <= 0:
        raise CLIError("samples must be positive")
    rng = random.Random(seed)
    sampler = _SAMPLERS[theorem]
    holds = 0
    disagreements = []
    for _ in range(samples):
        params = sampler(rng)
        check = check_params(params)
        a, b = functional_pair(params)
        verdict = decide(a, b)
        report = oracle_decide(a, b)
        oracle_clean = report.max_violation == 0
        holds += verdict.holds
        if not (check.mean_ok and check.holds == verdict.holds == oracle_clean):
            disagreements.append(_disagreement_record(params, check, oracle_clean, a, b))
    return AgreementSummary(theorem, samples, seed, holds, samples - holds, disagreements)


# ---------------------------------------------------------------------------
# Input handling for check
# ---------------------------------------------------------------------------


def _load_functional(
    text: str,
    paper_convention: bool,
    scalar: Optional[ScalarMap],
) -> Functional:
    """A preset, or functional JSON or a file of it, each scalar read
    through scalar when one is given."""
    if text in PRESETS:
        return PRESETS[text]
    obj = _load_json_or_file(text)
    if paper_convention and not (isinstance(obj, dict) and "pairs" in obj):
        raise CLIError("--paper-convention expects {'pairs': [...]} input")
    return functional_from_json(obj, scalar)


# A failed write, to out_path or to stdout, is an error (exit 2), never a
# traceback; stdout is flushed so that its error is raised here.  With fd 1
# closed at start-up, sys.stdout is None and print would write nothing.
def _emit(text: str, out_path: Optional[str]) -> None:
    if out_path is None and sys.stdout is None:
        raise CLIError("cannot write stdout: it is closed")
    try:
        if out_path is None:
            print(text, end="", flush=True)
            return
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        if out_path is None:
            # A buffered stdout keeps the bytes it could not write, and its
            # flush at exit would fail on them again (exit 120, with an
            # "Exception ignored" report): they are flushed to devnull, and
            # the descriptor is then restored, so a later write fails again.
            with suppress(AttributeError, OSError):
                fd = sys.stdout.fileno()
                saved, devnull = os.dup(fd), os.open(os.devnull, os.O_WRONLY)
                try:
                    os.dup2(devnull, fd)
                    sys.stdout.flush()
                finally:
                    os.dup2(saved, fd)
                    os.close(saved)
                    os.close(devnull)
        where = "stdout" if out_path is None else repr(out_path)
        raise CLIError(f"cannot write {where}: {exc}") from None


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_check(args: argparse.Namespace) -> int:
    texts = (args.lhs_flag or args.lhs, args.rhs_flag or args.rhs)
    if not all(texts):
        raise CLIError("check needs two functionals (positional or --lhs/--rhs)")
    scalar = None
    if args.interval:
        x, y = (eval_rational_expr(v) for v in args.interval)
        if x >= y:
            raise CLIError(f"--interval needs x < y, got {x} {y}")
        # each atom position t maps to (t - x)/(y - x); pairs need no mapping
        scalar = lambda field, value: (as_fraction(value) - x) / (y - x) if field == "t" else value
    lhs, rhs = (_load_functional(text, args.paper_convention, scalar) for text in texts)
    verdict = decide(lhs, rhs, diagnose=args.diagnose)
    _emit(json.dumps(verdict_to_json(verdict, diagnose=args.diagnose)) + "\n", args.out)
    return 0 if verdict.holds else 1


def _cmd_threshold(args: argparse.Namespace) -> int:
    result = run_threshold(_sweep_spec(args), max_denominator=args.max_denominator)
    _emit(json.dumps(result) + "\n", args.out)
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    header, rows = run_scan(_sweep_spec(args))
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _emit(buffer.getvalue(), args.out)
    return 0


def _cmd_agree(args: argparse.Namespace) -> int:
    summary = run_agreement(args.theorem, args.samples, args.seed)
    records = "".join(json.dumps(record) + "\n" for record in summary.disagreements)
    # The --out file is written first, so a failed write leaves stdout empty.
    if args.out is not None:
        _emit(records, args.out)
        records = ""
    _emit(json.dumps(summary.to_json()) + "\n" + records, None)
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse drops a failed write of its help, so help to a full device
    would exit 0 having printed nothing: help goes through _emit.
    A refused command line is a CLIError, so main reports it on one line
    rather than argparse's usage block."""

    def print_help(self, file=None) -> None:
        _emit(self.format_help(), None)

    def error(self, message: str):
        raise CLIError(message)


# Built once per process: parse_args leaves the parser as it is, and
# copies --fix's default list before it appends to it
@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="quadorder",
        description=(
            "Decide convex-order inequalities between quadrature functionals "
            "on [0, 1], exactly."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser(
        "check", help="decide one pair (exit 0 holds/equal, 1 fails, 2 bad input)"
    )
    check.set_defaults(run=_cmd_check)
    check.add_argument("lhs", nargs="?", help="preset, JSON, or file for the left side")
    check.add_argument("rhs", nargs="?", help="preset, JSON, or file for the right side")
    check.add_argument("--lhs", dest="lhs_flag", help="left side (overrides positional)")
    check.add_argument("--rhs", dest="rhs_flag", help="right side (overrides positional)")
    check.add_argument(
        "--paper-convention",
        action="store_true",
        help="require {'pairs': [{'a','alpha'},...]} input (positions 1 - alpha)",
    )
    check.add_argument(
        "--interval",
        nargs=2,
        metavar=("X", "Y"),
        help="atom positions live on [X, Y]; rescale them to [0, 1]",
    )
    check.add_argument("--diagnose", action="store_true", help="attach crossings and both paths")
    check.add_argument("--out", help="write the verdict JSON here instead of stdout")

    threshold = sub.add_parser("threshold", help="exact holds-region boundary along a sweep")
    scan = sub.add_parser("scan", help="CSV of holds/fails over a parameter grid")
    threshold.set_defaults(run=_cmd_threshold)
    scan.set_defaults(run=_cmd_scan)
    for p in (threshold, scan):
        p.add_argument("--family", required=True, help=f"one of {', '.join(FAMILIES)}, or custom")
        p.add_argument("--sweep", required=True, help="name=start:stop:step (rationals)")
        p.add_argument("--fix", action="append", default=[], help="name=value (repeatable)")
        p.add_argument("--lhs", help="custom family: left functional template")
        p.add_argument("--rhs", help="custom family: right functional template")
        p.add_argument("--out", help="write output here instead of stdout")
    threshold.add_argument(
        "--max-denominator",
        type=int,
        default=10**6,
        help="refine the boundary down to rationals with denominator at most this",
    )

    agree = sub.add_parser(
        "agree", help="fuzz a case checker against the decider and the oracle"
    )
    agree.set_defaults(run=_cmd_agree)
    agree.add_argument("theorem", choices=THEOREM_IDS)
    agree.add_argument("--samples", type=int, default=1000)
    agree.add_argument("--seed", type=int, default=0)
    agree.add_argument("--out", help="write disagreement JSONL here")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except SystemExit as exc:  # argparse exits once it has printed help
        return exc.code
    except (CLIError, FunctionalError, ParamError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalDisagreement as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
