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
an interior vertex, all of which are rational.  Both paths run on ints
over the common denominators T and W of the two functionals.  A failed
comparison comes with a machine-checkable witness: a hinge parameter s
whose gap evaluate(a, s) - evaluate(b, s) is exactly the reported amount,
or a linear map when the barycenters differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, repeat
from fractions import Fraction
from math import lcm
from operator import itemgetter
from typing import Iterator, Optional, Union

from .functionals import (
    Functional,
    FunctionalError,
    ZERO,
    _SHORT_T_BITS,
    _merge,
    _sum_pairs,
    as_fraction,
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
    """The difference D of two distribution functions and its
    antiderivative G, exactly, on integers over common denominators.

    Breakpoint i is positions[i] in lowest terms, running from 0 to 1.
    jumps[i] is the atom mass difference at breakpoint i (A's atoms count
    +, B's -) as (numerator, denominator) in lowest terms; every such
    denominator divides W = w_scale.  Both distribution functions rise
    with slope equal to their uniform weight, so D has one slope,
    slope_w / W, everywhere.  With M_i the atom mass difference up to and
    including breakpoint b_i, on [b_i, b_{i+1})

        D(t) = M_i + slope * t,
        G(s) = G(b_i) + D(b_i) (s - b_i) + slope * (s - b_i)^2 / 2,

    and G(0) = 0.  max_g and crossing_profile each walk the jumps once,
    carrying W M_i and reading D's sign exactly over W (with a slope, also
    b_i's denominator), and form G only where they need it: max_g at 1 and
    where D turns from > 0 to <= 0, at a breakpoint or at the vertex of a
    piece (the same walk gives g_end); crossing_profile at 1 and at each
    crossing.  Both grow Mom, the sum of W T w_j t_j, by one rule.  While
    T = t_scale fits _SHORT_T_BITS, short_points holds each breakpoint
    over T, p_i = b_i T, and each jump adds W w_j p_j to Mom as it comes.
    Past it, short_points is None: each jump's moment waits as the small
    pair (num t_n, den t_d), and only where G is formed are the pairs
    since the last G summed pairwise into Mom and a breakpoint scaled to
    T.  Past the cut, too, the walks scale each jump to W through
    _quotients, one W // den per distinct jump denominator, and decide
    first tries _linear_direction, a floor sum on small ints that settles
    most unequal barycenters (every |G(1)| >= 2^-64) with no walk at all.
    Below the cut neither pays: the walks divide W as they go, and the
    short walk costs little more than the sum would.  decide reads signs
    of _peak's ints, so Fractions are built only for what is returned: a
    hinge witness, g_end, max_g; breakpoints and cumulative when read.
    """

    t_scale: int
    w_scale: int
    slope_w: int
    positions: tuple[tuple[int, int], ...]
    jumps: tuple[tuple[int, int], ...]
    short_points: Optional[tuple[int, ...]]

    def _g_scale(self) -> int:
        """The denominator of the G numerators that _level returns."""
        if self.slope_w:
            return 2 * self.w_scale * self.t_scale**2
        return self.w_scale * self.t_scale

    def _level(self, p: int, g: int) -> int:
        """G(p / T) over _g_scale(), from g, the atoms' part of W T G(p / T)."""
        if self.slope_w:
            return 2 * self.t_scale * g + self.slope_w * p * p
        return g

    def _walk(self) -> Iterator[tuple[Optional[int], tuple[int, int], tuple[int, int]]]:
        """(p_i or None past the cut, position, jump) at each breakpoint."""
        points = self.short_points
        return zip(repeat(None) if points is None else points, self.positions, self.jumps)

    @cached_property
    def _quotients(self) -> dict[int, int]:
        """Past the cut, W // den for each distinct jump denominator: a
        spread's two atoms share one, so the walks divide W about a third
        as often.  While T is short the walks divide as they go: on
        thousands of jumps this table would hold megabytes of W-sized ints."""
        w_scale = self.w_scale
        return {den: w_scale // den for den in set(map(itemgetter(1), self.jumps))}

    @property
    def breakpoints(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(*pair) for pair in self.positions)

    @property
    def cumulative(self) -> tuple[Fraction, ...]:
        # G(b_i) from g = W T sum_j w_j (b_i - t_j) over the atoms at or
        # before b_i, the part the slope does not add, grown piece by piece
        w_scale, scale, points = self.w_scale, self._g_scale(), self.short_points
        if points is None:
            points = [tn * (self.t_scale // td) for tn, td in self.positions]
        masses = accumulate(num * (w_scale // den) for num, den in self.jumps)
        steps = ((right - left) * mass for right, left, mass in zip(points[1:], points, masses))
        gs = accumulate(steps, initial=0)
        return tuple(Fraction(self._level(p, g), scale) for p, g in zip(points, gs))

    @cached_property
    def _peak(self) -> tuple[int, int, int, tuple[int, int]]:
        """(G(1), best, best_den, s*): G(1) and max G = best / best_den over
        _g_scale(), first reached at s* = (numerator, denominator)."""
        t_scale, w_scale, slope_w = self.t_scale, self.w_scale, self.slope_w
        # Mom, the sum of W T w_j t_j so far, grows by term p at each jump
        # while T is short; past the cut, adding it would be a T-by-W
        # product, so the moments w_j t_j since the last candidate are kept
        # as pairs and summed pairwise into Mom when G is formed
        wt_scale = w_scale * t_scale
        quotients = self._quotients if self.short_points is None else None
        moments: list[tuple[int, int]] = []
        mass = mom = d_at = 0
        best, best_den, s_star = 0, 1, (0, 1)
        for p, (tn, td), (num, den) in self._walk():
            # D at the last breakpoint, just before p and at p, times W (and,
            # with a slope, times that breakpoint's own denominator): exact
            # signs without T
            d_left, d_before = d_at, (mass * td + slope_w * tn if slope_w else mass)
            if p is None:
                term = num * quotients[den]
                moments.append((num * tn, den * td))
            else:
                term = num * (w_scale // den)
                mom += term * p
            mass += term
            d_at = d_before + term * td if slope_w else mass
            # candidates: where D turns from > 0 to <= 0 at p or inside the
            # piece before p (its vertex), and 1
            if d_left > 0 >= d_before or d_before > 0 >= d_at or tn == td:
                if p is None:
                    p = tn * (t_scale // td)
                    m_num, m_den = _sum_pairs(moments)
                    mom += m_num * (wt_scale // m_den)
                    moments.clear()
                # W T G(p / T) = p W M - Mom
                g = self._level(p, p * mass - mom)
                top, top_den, s = g, 1, (tn, td)
                if d_left > 0 > d_before:
                    # the vertex beats p: G there is G(p) + D(p-)^2 / (2 |slope|)
                    d_before *= t_scale // td
                    top, top_den = d_before * d_before - g * slope_w, -slope_w
                    s = (slope_w * p - d_before, slope_w * t_scale)
                if top * best_den > best * top_den:
                    best, best_den, s_star = top, top_den, s
        return g, best, best_den, s_star  # the last breakpoint is 1, so g is G(1)

    def _linear_direction(self) -> int:
        """The linear witness's direction, +1 or -1, when a floor sum
        settles the sign of G(1) without the walk; 0 when it cannot.

        Both masses are 1, so D(1) = 0 and S = -G(1) = sum_j w_j t_j +
        slope / 2, the barycenter of A minus that of B.  Each of the count
        terms of 2^k S that can be inexact is floored once, so total, their
        sum, lies in (2^k S - count, 2^k S]: total >= 1 means S > 0, total
        <= -count means S < 0.  With k = 64 + the bit length of the jump
        count, every |S| >= 2^-64 is settled; the terms are ints of about
        k bits, and W is read only for the slope."""
        k = 64 + len(self.jumps).bit_length()
        # the breakpoint 0 and a zero slope add exact zeros: left out of
        # count, they would loosen the bound on total by one each
        terms = [
            ((num * tn) << k) // (den * td)
            for (tn, td), (num, den) in zip(self.positions[1:], self.jumps[1:])
        ]
        if self.slope_w:
            terms.append((self.slope_w << k) // (2 * self.w_scale))
        total = sum(terms)
        if total >= 1:
            return 1
        if total <= -len(terms):
            return -1
        return 0

    def g_end(self) -> Fraction:
        """G(1), the barycenter of B minus that of A, from max_g's walk."""
        return Fraction(self._peak[0], self._g_scale())

    def is_zero(self) -> bool:
        return not self.slope_w and not any(num for num, _ in self.jumps)

    def max_g(self) -> tuple[Fraction, Fraction]:
        """(s*, G(s*)) with G(s*) maximal over [0, 1]; smallest s* under ties."""
        _, best, best_den, s_star = self._peak
        return Fraction(*s_star), Fraction(best, best_den * self._g_scale())


def difference(a: Functional, b: Functional) -> DiffFunction:
    """Exact D = F_a - F_b and G on the merged breakpoint set.

    T = lcm(T_a, T_b) and W = lcm(W_a, W_b) are taken once, and every
    weight is read over W, straight from the functionals' int pairs.  The
    signed atoms (+w from a, -w from b) are merged by make_functional's
    merge, one stable sort by position; atoms of both sides at one
    position become one jump.  The merge's keys are the breakpoints over T
    while T fits _SHORT_T_BITS, and are kept as short_points; past it no
    breakpoint is scaled to T here.
    """
    t_scale = lcm(a.t_scale, b.t_scale)
    w_scale = lcm(a.w_scale, b.w_scale)
    slope_w = (
        a.uniform_weight.numerator * (w_scale // a.uniform_weight.denominator)
        - b.uniform_weight.numerator * (w_scale // b.uniform_weight.denominator)
    )
    # 0 and 1 are always breakpoints, with zero-weight entries first and last
    signed = [
        ((0, 1), (0, 1)),
        *zip(a.position_pairs, a.weight_pairs),
        *[(t, (-wn, wd)) for t, (wn, wd) in zip(b.position_pairs, b.weight_pairs)],
        ((1, 1), (0, 1)),
    ]
    keys, positions, jumps = _merge(signed, t_scale)
    short_points = tuple(keys) if t_scale.bit_length() <= _SHORT_T_BITS else None
    return DiffFunction(t_scale, w_scale, slope_w, tuple(positions), tuple(jumps), short_points)


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


def crossing_profile(d: DiffFunction) -> CrossingProfile:
    """Crossings of D per the alternating-area convention.

    A sign change at a jump discontinuity is located at the jump itself;
    a sign change inside an affine piece at its exact rational root; a
    sign change across a zero stretch at the point where the new sign's
    interval begins.  G is continuous and constant across zero stretches,
    so the area between consecutive crossings x_k < x_{k+1} (with x_0 = 0
    and x_{n+1} = 1) is |G(x_{k+1}) - G(x_k)|.
    """
    # One walk over the jumps, like max_g's but independent of it: it
    # carries W M_i, reads D's sign at both ends of each piece without T,
    # and forms G only at crossings and at 1.  Mom grows by max_g's rule:
    # by term p at each jump while T is short; past the cut each jump's
    # moment waits as the pair (num t_n, den t_d), and the pairs since the
    # last G are summed pairwise into Mom, over W T, where G is formed
    t_scale, w_scale, slope_w = d.t_scale, d.w_scale, d.slope_w
    wt_scale = w_scale * t_scale
    moments: list[tuple[int, int]] = []  # past the cut, moments not yet in mom
    points: list[tuple[int, int]] = []  # crossing points as (numerator, denominator)
    # G(0), G at each crossing, then G(1), as ints over unit * _g_scale()
    unit = slope_w or 1
    levels = [0]
    current_sign = 0
    walk = d._walk()
    left, (ln, ld), (num, den) = next(walk)  # the breakpoint 0
    mass, mom = num * (w_scale // den), 0
    quotients = d._quotients if d.short_points is None else None

    def level(p: Optional[int], tn: int, td: int) -> int:
        # W T G(p / T) = p W M - Mom, Mom the sum of W T w_j t_j so far
        nonlocal mom
        if p is None:
            m_num, m_den = _sum_pairs(moments)
            mom += m_num * (wt_scale // m_den)
            moments.clear()
            p = tn * (t_scale // td)
        return d._level(p, p * mass - mom)

    for p, (tn, td), (num, den) in walk:
        # D at the left end of [left, p) and just before p, times W (and,
        # with a slope, times that end's own denominator)
        if slope_w:
            d_left, d_right = mass * ld + slope_w * ln, mass * td + slope_w * tn
        else:
            d_left = d_right = mass
        # D has one sign on the piece, that of its first nonzero end,
        # unless its ends have opposite signs: then a root lies inside
        first = d_left or d_right
        if first:
            sign = 1 if first > 0 else -1
            cross = current_sign and sign != current_sign
            root = d_right and (d_right > 0) != (first > 0)
            if cross or root:
                g = level(left, ln, ld)
                if cross:
                    points.append((ln, ld))
                    levels.append(g * unit)
                if root:
                    # a root inside, where G is G(left) - D(left)^2 / (2 slope)
                    d_left *= t_scale // ld
                    points.append((-mass, slope_w))
                    levels.append(g * slope_w - d_left * d_left)
                    sign = -sign
            current_sign = sign
        if p is None:
            term = num * quotients[den]
            moments.append((num * tn, den * td))
        else:
            term = num * (w_scale // den)
            mom += term * p
        mass += term
        left, ln, ld = p, tn, td
    if current_sign == 0:
        raise DegenerateDifference("difference is identically zero")
    levels.append(level(left, ln, ld) * unit)  # the last breakpoint is 1
    scale = abs(unit) * d._g_scale()
    areas = tuple(Fraction(abs(g2 - g1), scale) for g1, g2 in zip(levels, levels[1:]))
    # the sign flips at every crossing
    initial_sign = current_sign if len(points) % 2 == 0 else -current_sign
    return CrossingProfile(tuple(Fraction(n, m) for n, m in points), areas, initial_sign)


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

    def to_json(self) -> dict:
        return {"kind": "linear", "direction": f"{self.direction:+d}"}


@dataclass(frozen=True)
class HingeWitness:
    """The hinge h_s violates the comparison by exactly gap > 0."""

    s: Fraction
    gap: Fraction

    def to_json(self) -> dict:
        return {"kind": "hinge", "s": str(self.s), "gap": str(self.gap)}


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
    witness = verdict.witness.to_json() if verdict.witness else None
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
    # past the cut, a floor sum settles most unequal barycenters before the
    # walk; below it, the sum would be a large share of the short walk
    direction = d._linear_direction() if d.short_points is None else 0
    if direction:
        return Verdict(FAILS, LinearWitness(direction))
    # one walk yields G(1) = g_end and max G = best / best_den, both over
    # _g_scale() > 0; best_den is 1 or a vertex's -slope_w > 0 (D falls
    # from > 0 to < 0 there), so the ints' signs decide, and Fractions are
    # formed only for a hinge witness
    g_end, best, _, _ = d._peak
    if g_end:
        # G(1) = barycenter(b) - barycenter(a)
        return Verdict(FAILS, LinearWitness(1 if g_end < 0 else -1))
    if best <= 0:
        return Verdict(HOLDS)
    return Verdict(FAILS, HingeWitness(*d.max_g()))


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
    # a zero D has G(1) = 0, and crossing_profile refuses it
    if d._peak[0]:
        raise MeansDiffer(f"barycenters differ: G(1) = {d.g_end()} != 0")
    return _lemma_verdict(crossing_profile(d))


def verify_witness(a: Functional, b: Functional, verdict: Verdict) -> bool:
    """Re-check a Fails witness by direct evaluation, independent of how
    the verdict was produced.

    A hinge witness must name a hinge and reproduce its gap exactly, and
    one whose fields are not rationals is rejected; a linear witness
    must separate the barycenters, read through the hinge h_0(t) = t, in
    the claimed direction, the int +1 or -1.  Verdicts without a witness
    verify iff they are not Fails.
    """
    if verdict.outcome != FAILS:
        return verdict.witness is None
    w = verdict.witness
    if isinstance(w, HingeWitness):
        try:
            gap = as_fraction(w.gap)
            return gap > 0 and evaluate(a, w.s) - evaluate(b, w.s) == gap
        except FunctionalError:
            return False
    if isinstance(w, LinearWitness):
        # only the int +1 or -1 is a direction: True and 1.0 are not
        direction = w.direction if type(w.direction) is int else 0
        return direction in (-1, 1) and direction * (evaluate(a, 0) - evaluate(b, 0)) > 0
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
    # G(1) != 0 exactly when the cumulative path answered with a linear map
    if not isinstance(verdict.witness, LinearWitness):
        lemma_outcome = _lemma_verdict(profile).outcome
        if lemma_outcome != verdict.outcome:
            raise InternalDisagreement(
                f"cumulative path says {verdict.outcome}, "
                f"crossing path says {lemma_outcome}"
            )
    return Verdict(verdict.outcome, verdict.witness, profile, lemma_outcome)
