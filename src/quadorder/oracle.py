"""Deliberately simple second opinion on convex-order verdicts.

The oracle never looks at the decision engine's cumulative integral.  It
evaluates both functionals directly on a grid of hinge functions
h_s(t) = max(t - s, 0), plus the linear maps t and -t, straight from the
atom data and the closed form integral_0^1 h_s(t) dt = (1-s)^2 / 2, and
reports the worst violation it finds.  By the Levin-Steckin theorem the
hinges and +-t decide the convex order, and refine_grid builds a finite
grid that provably contains a violating hinge whenever one exists, so
"no violation on the refined grid" is a complete check, not a sampling
heuristic.

All arithmetic runs on plain ints, with its own code: every position of
both sides is scaled to one common denominator T, every weight (uniform
weights included) to one common denominator W, and each side becomes a
suffix table of mass and first moment.  A gap is carried as a numerator
over 2 q^2 W T for the grid point s = p/q, candidates are compared by
cross-multiplication, and one Fraction is built for the answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional

from .functionals import Functional, as_fraction

__all__ = ["OracleReport", "oracle_decide", "refine_grid"]


@dataclass(frozen=True)
class OracleReport:
    """Worst violation found.

    max_violation is over the hinges on the grid and the linear maps t
    and -t (the barycenter check); worst_s is the hinge parameter when a
    hinge is the worst offender, None when a linear map is.
    """

    tested_functions: int
    max_violation: Fraction
    worst_s: Optional[Fraction]


def _scales(a: Functional, b: Functional) -> tuple[int, int]:
    """T, the common denominator of every position of both sides, and W,
    that of every weight and uniform weight, from the atoms' int pairs."""
    t_scale = lcm(*{den for f in (a, b) for _, den in f.position_pairs})
    w_scale = lcm(
        a.uniform_weight.denominator,
        b.uniform_weight.denominator,
        *{den for f in (a, b) for _, den in f.weight_pairs},
    )
    return t_scale, w_scale


def _scaled(value: Fraction, scale: int) -> int:
    """value * scale, for a scale that value's denominator divides."""
    return value.numerator * (scale // value.denominator)


def _hinge_table(
    func: Functional, t_scale: int, w_scale: int
) -> tuple[list[int], list[int], list[int]]:
    """Positions in units of 1/T, then suffix sums over the atoms: mass
    above (units of 1/W) and first moment above (units of 1/(W T)).

    E max(X - s, 0) over the atoms equals moment[i] - s * mass[i] for the
    first row i whose position exceeds s.  A last position T + 1 lies
    above every s in [0, 1], so a walk over the rows needs no bound check.
    """
    positions = [num * (t_scale // den) for num, den in func.position_pairs]
    weights = func.weight_pairs
    mass = [0] * len(positions)
    moment = [0] * len(positions)
    total_mass = total_moment = 0
    for i in range(len(positions) - 1, -1, -1):
        num, den = weights[i]
        weight = num * (w_scale // den)
        total_mass += weight
        total_moment += weight * positions[i]
        mass[i] = total_mass
        moment[i] = total_moment
    positions.append(t_scale + 1)
    mass.append(0)
    moment.append(0)
    return positions, mass, moment


def _sorted_grid(s_grid: Iterable[Fraction]) -> list[Fraction]:
    """The grid as Fractions, strictly increasing; sorted and deduplicated
    only when it is not so already."""
    grid = [as_fraction(s) for s in s_grid]
    if not grid:
        raise ValueError("s_grid must be nonempty")
    for x, y in zip(grid, grid[1:]):
        if x.numerator * y.denominator >= y.numerator * x.denominator:
            grid = sorted(set(grid))
            break
    if grid[0].numerator < 0 or grid[-1].numerator > grid[-1].denominator:
        raise ValueError("s_grid values must lie in [0, 1]")
    return grid


def oracle_decide(
    a: Functional, b: Functional, s_grid: Iterable[Fraction]
) -> OracleReport:
    """Worst violation of A(f) <= B(f) over hinges on the grid plus the
    linear maps t and -t (barycenter check)."""
    grid = _sorted_grid(s_grid)
    t_scale, w_scale = _scales(a, b)
    pos_a, mass_a, mom_a = _hinge_table(a, t_scale, w_scale)
    pos_b, mass_b, mom_b = _hinge_table(b, t_scale, w_scale)
    # T (u_A - u_B), in units of 1/W
    du_t = t_scale * (
        _scaled(a.uniform_weight, w_scale) - _scaled(b.uniform_weight, w_scale)
    )
    # the worst gap so far is best / (2 best_q2 W T)
    best, best_q2 = 0, 1
    worst_s: Optional[Fraction] = None
    i = j = 0
    for s in grid:
        p, q = s.numerator, s.denominator
        pt = p * t_scale
        # hinges with positions <= s contribute nothing
        while pos_a[i] * q <= pt:
            i += 1
        while pos_b[j] * q <= pt:
            j += 1
        gap = 2 * q * (q * (mom_a[i] - mom_b[j]) - pt * (mass_a[i] - mass_b[j]))
        if du_t:
            gap += du_t * (q - p) ** 2
        q2 = q * q
        if gap * best_q2 > best * q2:
            best, best_q2, worst_s = gap, q2, s
    # t is the hinge at s = 0 (q = 1) and -t its negation
    mean_gap = abs(2 * (mom_a[0] - mom_b[0]) + du_t)
    if mean_gap * best_q2 > best:
        best, best_q2, worst_s = mean_gap, 1, None
    max_violation = Fraction(best, 2 * best_q2 * w_scale * t_scale)
    return OracleReport(len(grid) + 2, max_violation, worst_s)


def refine_grid(a: Functional, b: Functional) -> list[Fraction]:
    """Finite grid guaranteed to expose a violating hinge if one exists.

    Takes every breakpoint of F_A - F_B, the midpoint of every segment,
    and the exact vertex of the hinge-gap map on every segment where it
    has one.  The gap s -> A(h_s) - B(h_s) is piecewise quadratic with
    derivative F_B(s) - F_A(s) ... = (u_B - u_A)(1 - s) + M_B(s) - M_A(s),
    where M(s) is the atom mass strictly above s; its maximum over a
    segment sits at an endpoint or at that vertex.  The points come out
    sorted and unique.
    """
    t_scale, w_scale = _scales(a, b)
    pos_a, mass_a, _ = _hinge_table(a, t_scale, w_scale)
    pos_b, mass_b, _ = _hinge_table(b, t_scale, w_scale)
    # u_B - u_A, in units of 1/W
    du = _scaled(b.uniform_weight, w_scale) - _scaled(a.uniform_weight, w_scale)
    points = sorted({0, t_scale, *pos_a[:-1], *pos_b[:-1]})
    grid = []
    i = j = 0
    for left, right in zip(points, points[1:]):
        grid.append(Fraction(left, t_scale))
        mid = Fraction(left + right, 2 * t_scale)
        if not du:
            grid.append(mid)
            continue
        while pos_a[i] <= left:
            i += 1
        while pos_b[j] <= left:
            j += 1
        # vertex = 1 + (M_B - M_A) / du = num / den, with den > 0
        num, den = du + mass_b[j] - mass_a[i], du
        if den < 0:
            num, den = -num, -den
        vertex, twice_mid = t_scale * num, (left + right) * den
        if left * den < vertex < right * den and 2 * vertex != twice_mid:
            s = Fraction(num, den)
            grid += (s, mid) if 2 * vertex < twice_mid else (mid, s)
        else:
            grid.append(mid)
    grid.append(Fraction(1))
    return grid
