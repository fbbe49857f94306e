"""Decide whether A precedes B in the convex order, exactly.

Two independent decision paths:

* the cumulative criterion (ground truth): A(f) <= B(f) for every convex
  f on [0, 1] iff G(1) = 0 and G(s) <= 0 on [0, 1], where
  G(s) = integral_0^s (F_A - F_B) and F_* are the distribution functions;

* the crossing analysis (cross-check): locate the sign changes of
  D = F_A - F_B between intervals of nonzero area, then test the
  alternating partial sums of the areas.

Everything is exact: D is piecewise affine with rational data, G is
piecewise quadratic, and the maximum of G is attained at a breakpoint or
an interior vertex, all of which are rational.  A failed comparison comes
with a machine-checkable witness: a hinge h_s whose gap re-evaluates to
exactly the reported amount, or a linear map when the barycenters differ.
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import itemgetter
from typing import Optional, Union

from .functionals import (
    Functional,
    Hinge,
    ZERO,
    ONE,
    evaluate,
)

__all__ = [
    "OrderingError",
    "DegenerateDifference",
    "MeansDiffer",
    "InternalDisagreement",
    "DiffFunction",
    "CrossingProfile",
    "LinearWitness",
    "HingeWitness",
    "Verdict",
    "HOLDS",
    "FAILS",
    "EQUAL",
    "difference",
    "crossing_profile",
    "decide_lemma",
    "decide",
    "verdict_to_json",
    "verify_witness",
]


class OrderingError(Exception):
    """Base error for the comparison machinery."""


class DegenerateDifference(OrderingError):
    """The two functionals are identical (D is identically zero)."""


class MeansDiffer(OrderingError):
    """Crossing analysis requires equal barycenters."""


class InternalDisagreement(OrderingError):
    """The two decision paths disagreed; this signals a bug, never data."""


# ---------------------------------------------------------------------------
# D = F_A - F_B and its antiderivative G
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiffFunction:
    """The difference D of two distribution functions plus its exact
    antiderivative G.

    Both distribution functions rise with slope equal to their uniform
    weight, so D has one slope everywhere.  On the segment
    [b_i, b_{i+1}) the difference is D(t) = values[i] + slope * (t - b_i),
    and

    G(s) = cumulative[i] + values[i]*(s - b_i) + slope*(s - b_i)^2/2.

    values[i] is the right limit at b_i; a jump at b_i is an atom-mass
    difference.  G is continuous with G(0) = 0; cumulative[i] stores G at
    breakpoint i.
    """

    breakpoints: tuple[Fraction, ...]
    values: tuple[Fraction, ...]
    slope: Fraction
    cumulative: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        bps = self.breakpoints
        if len(bps) < 2 or bps[0] != 0 or bps[-1] != 1:
            raise OrderingError("breakpoints must run from 0 to 1")
        if any(left >= right for left, right in zip(bps, bps[1:])):
            raise OrderingError("breakpoints must be strictly increasing")
        if len(self.values) != len(bps) or len(self.cumulative) != len(bps):
            raise OrderingError("values/cumulative lengths do not match breakpoints")

    def g(self, s: Fraction) -> Fraction:
        """Exact G(s) = integral of D from 0 to s."""
        if not ZERO <= s <= ONE:
            raise ValueError(f"{s} outside [0, 1]")
        i = bisect.bisect_right(self.breakpoints, s) - 1
        if self.breakpoints[i] == s:
            return self.cumulative[i]
        dx = s - self.breakpoints[i]
        return self.cumulative[i] + self.values[i] * dx + self.slope * dx * dx / 2

    def g_end(self) -> Fraction:
        return self.cumulative[-1]

    def is_zero(self) -> bool:
        return self.slope == 0 and not any(self.values)

    def max_g(self) -> tuple[Fraction, Fraction]:
        """(s*, G(s*)) with G(s*) maximal; smallest s* under ties.

        Candidates: every breakpoint plus the interior vertex of every
        quadratic piece (where D vanishes).  G is continuous and piecewise
        quadratic, so the maximum is among these.
        """
        best_s, best = self.breakpoints[0], self.cumulative[0]
        m = self.slope
        for i, left in enumerate(self.breakpoints[:-1]):
            right = self.breakpoints[i + 1]
            if m != 0:
                vertex = left - self.values[i] / m
                if left < vertex < right:
                    g_v = self.g(vertex)
                    if g_v > best:
                        best_s, best = vertex, g_v
            g_r = self.cumulative[i + 1]
            if g_r > best:
                best_s, best = right, g_r
        return best_s, best


def difference(a: Functional, b: Functional) -> DiffFunction:
    """Exact D = F_a - F_b and G on the merged breakpoint set.

    Both distribution functions have slope equal to their uniform weight
    everywhere, so D is built in one walk over the signed atoms (+w from
    a, -w from b) merged by position: a breakpoint's value, the atom-mass
    difference so far plus the slope term, closes at the next position.
    """
    slope = a.uniform_weight - b.uniform_weight
    signed = heapq.merge(
        ((atom.position, atom.weight) for atom in a.atoms),
        ((atom.position, -atom.weight) for atom in b.atoms),
        key=itemgetter(0),
    )
    points, values = [ZERO], []
    acc = ZERO
    # The sentinel after the merge, not inside it, keeps the heap at two
    # streams; a breakpoint already at 1 just absorbs its zero weight.
    for t, w in chain(signed, [(ONE, ZERO)]):
        if t != points[-1]:
            values.append(acc + slope * points[-1] if slope else acc)
            points.append(t)
        acc += w
    values.append(acc + slope)
    cumulative = [ZERO]
    g = ZERO
    for k, left in enumerate(points[:-1]):
        dx = points[k + 1] - left
        g += values[k] * dx + slope * dx * dx / 2
        cumulative.append(g)
    return DiffFunction(tuple(points), tuple(values), slope, tuple(cumulative))


# ---------------------------------------------------------------------------
# Crossing analysis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CrossingProfile:
    """Sign-change structure of D: crossing points x_1 < ... < x_n, the
    absolute areas A_0..A_n of D over the n+1 intervals they cut out of
    [0, 1], and the sign of D on the first interval.

    Every area is strictly positive: stretches where D vanishes are
    absorbed into a neighboring interval and never count as crossings.
    """

    crossing_points: tuple[Fraction, ...]
    areas: tuple[Fraction, ...]
    initial_sign: int

    @property
    def n(self) -> int:
        return len(self.crossing_points)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "points": [str(x) for x in self.crossing_points],
            "areas": [str(a) for a in self.areas],
            "initial_sign": self.initial_sign,
        }


def _sign_pieces(d: DiffFunction):
    """Maximal sub-intervals of constant nonzero sign of D, in order.

    Yields (start, end, sign, signed_area).  Segments are split at
    interior roots of their affine piece; stretches with D identically 0
    are skipped (their area is 0).  A whole segment's area comes from
    cumulative; G is evaluated only at interior roots.
    """
    bps, values, m, cumulative = d.breakpoints, d.values, d.slope, d.cumulative
    for i, left in enumerate(bps[:-1]):
        v = values[i]
        if v == 0 and m == 0:
            continue
        cuts = [(left, cumulative[i])]
        if m != 0:
            root = left - v / m
            if left < root < bps[i + 1]:
                cuts.append((root, d.g(root)))
        cuts.append((bps[i + 1], cumulative[i + 1]))
        for (start, g_start), (end, g_end) in zip(cuts, cuts[1:]):
            # pieces are cut at roots, so D is nonzero at the midpoint
            mid_value = v + m * ((start + end) / 2 - left)
            yield start, end, 1 if mid_value > 0 else -1, g_end - g_start


def crossing_profile(d: DiffFunction) -> CrossingProfile:
    """Crossings of D per the alternating-area convention.

    A sign change at a jump discontinuity is located at the jump itself;
    a sign change inside an affine piece at its exact rational root; a
    sign change across a zero stretch at the point where the new sign's
    interval begins.
    """
    points: list[Fraction] = []
    areas: list[Fraction] = []
    initial_sign = 0
    current_sign = 0
    current_area = ZERO
    for start, _end, sign, signed_area in _sign_pieces(d):
        if current_sign == 0:
            initial_sign = sign
        elif sign != current_sign:
            points.append(start)
            areas.append(abs(current_area))
            current_area = ZERO
        current_sign = sign
        current_area += signed_area
    if current_sign == 0:
        raise DegenerateDifference("difference is identically zero")
    areas.append(abs(current_area))
    return CrossingProfile(tuple(points), tuple(areas), initial_sign)


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------

HOLDS = "holds"
FAILS = "fails"
EQUAL = "equal"


@dataclass(frozen=True)
class LinearWitness:
    """direction=+1: f(t)=t separates A above B; direction=-1: f(t)=-t does."""

    direction: int


@dataclass(frozen=True)
class HingeWitness:
    """The hinge h_s violates the comparison by exactly gap > 0."""

    s: Fraction
    gap: Fraction


Witness = Union[LinearWitness, HingeWitness]


@dataclass(frozen=True)
class Verdict:
    outcome: str
    witness: Optional[Witness] = None
    crossings: Optional[CrossingProfile] = None
    lemma_outcome: Optional[str] = None

    @property
    def holds(self) -> bool:
        return self.outcome in (HOLDS, EQUAL)


def verdict_to_json(verdict: Verdict, diagnose: bool = False) -> dict:
    witness: Optional[dict]
    if isinstance(verdict.witness, HingeWitness):
        witness = {
            "kind": "hinge",
            "s": str(verdict.witness.s),
            "gap": str(verdict.witness.gap),
        }
    elif isinstance(verdict.witness, LinearWitness):
        witness = {"kind": "linear", "direction": f"{verdict.witness.direction:+d}"}
    else:
        witness = None
    out: dict = {"outcome": verdict.outcome, "witness": witness}
    if diagnose:
        out["crossings"] = verdict.crossings.to_json() if verdict.crossings else None
        out["paths"] = {
            "cumulative": verdict.outcome,
            "lemma": verdict.lemma_outcome,
        }
    return out


# ---------------------------------------------------------------------------
# Decision paths
# ---------------------------------------------------------------------------


def _cumulative_verdict(d: DiffFunction) -> Verdict:
    """Ground-truth path: A precedes B iff G(1) = 0 and max G <= 0.

    Fails with a LinearWitness when the barycenters differ, otherwise
    with the hinge at the (smallest) maximizer of G.
    """
    if d.is_zero():
        return Verdict(EQUAL)
    g_end = d.g_end()
    if g_end != 0:
        # G(1) = barycenter(b) - barycenter(a)
        direction = 1 if g_end < 0 else -1
        return Verdict(FAILS, LinearWitness(direction))
    s_star, g_max = d.max_g()
    if g_max <= 0:
        return Verdict(HOLDS)
    return Verdict(FAILS, HingeWitness(s_star, g_max))


def _lemma_verdict(profile: CrossingProfile) -> Verdict:
    """The crossing path's verdict from the profile of a nonzero D with
    G(1) = 0."""
    points, areas = profile.crossing_points, profile.areas
    if profile.initial_sign > 0:
        # G rises over the first interval: G(x_1) = A_0 > 0.
        witness = HingeWitness(points[0], areas[0])
        return Verdict(FAILS, witness, crossings=profile)
    if profile.n % 2 == 0:
        # Last interval has sign -1, so G(x_n) = G(1) + A_n = A_n > 0.
        witness = HingeWitness(points[-1], areas[-1])
        return Verdict(FAILS, witness, crossings=profile)
    partial = ZERO  # A_0 - A_1 + ... with alternating signs
    for m in range(1, (profile.n - 1) // 2 + 1):
        partial += areas[2 * m - 2]
        if partial < areas[2 * m - 1]:
            # G(x_{2m}) = A_{2m-1} - partial > 0
            witness = HingeWitness(points[2 * m - 1], areas[2 * m - 1] - partial)
            return Verdict(FAILS, witness, crossings=profile)
        partial -= areas[2 * m - 1]
    return Verdict(HOLDS, crossings=profile)


def decide_lemma(a: Functional, b: Functional) -> Verdict:
    """Cross-check path via the crossing profile.

    Requires equal barycenters and a nonzero difference.  With D first
    negative and an odd number n of crossings, the comparison holds iff
    every alternating partial sum A_0 - A_1 + ... + A_{2m-2} >= A_{2m-1}
    (m = 1 .. (n-1)/2).  A first positive stretch, or an even n, always
    fails; the witness is a crossing point where G is provably positive.
    """
    d = difference(a, b)
    if d.is_zero():
        raise DegenerateDifference("functionals are equal; nothing to cross")
    if d.g_end() != 0:
        raise MeansDiffer(
            f"barycenters differ: G(1) = {d.g_end()} != 0"
        )
    return _lemma_verdict(crossing_profile(d))


def verify_witness(a: Functional, b: Functional, verdict: Verdict) -> bool:
    """Re-check a Fails witness by direct evaluation, independent of how
    the verdict was produced.

    A hinge witness must reproduce its gap exactly; a linear witness
    must separate the barycenters, read through the hinge h_0(t) = t, in
    the claimed direction.  Verdicts without a witness verify iff they
    are not Fails.
    """
    if verdict.outcome != FAILS:
        return verdict.witness is None
    w = verdict.witness
    if isinstance(w, HingeWitness):
        h = Hinge(w.s)
        return w.gap > 0 and evaluate(a, h) - evaluate(b, h) == w.gap
    if isinstance(w, LinearWitness):
        h = Hinge(ZERO)
        return w.direction in (-1, 1) and w.direction * (evaluate(a, h) - evaluate(b, h)) > 0
    return False


def decide(a: Functional, b: Functional, diagnose: bool = False) -> Verdict:
    """Decide A before-or-equal B in the convex order.

    The verdict is the cumulative path's.  In diagnostic mode the
    crossing profile is attached and the crossing path is run as well
    whenever it applies; a mismatch raises InternalDisagreement (it
    would mean an implementation bug, not bad input).  Both paths read
    the same D, built once.
    """
    d = difference(a, b)
    verdict = _cumulative_verdict(d)
    if not diagnose or d.is_zero():
        return verdict
    profile = crossing_profile(d)
    lemma_outcome = None
    if d.g_end() == 0:
        lemma_outcome = _lemma_verdict(profile).outcome
        if lemma_outcome != verdict.outcome:
            raise InternalDisagreement(
                f"cumulative path says {verdict.outcome}, "
                f"crossing path says {lemma_outcome}"
            )
    return Verdict(verdict.outcome, verdict.witness, profile, lemma_outcome)
