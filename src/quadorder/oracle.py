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

All arithmetic runs on plain ints, with its own code: positions are
scaled to one common denominator T, weights to one W, and each side
becomes a suffix table of mass and first moment.  oracle_decide(a, b)
builds the tables once and scores each point of the refined grid in the
walk that generates it; a gap is a numerator over 2 m^2 W T^2, and only
the answer is a Fraction.  evaluate(func, s) scores any other hinge.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

from .functionals import Functional

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


def _tables(a: Functional, b: Functional) -> tuple:
    """T, the common denominator of every position of both sides; W, that
    of every weight and uniform weight; the hinge tables of both sides; and
    u_A - u_B in units of 1/W."""
    t_scale = lcm(*{den for f in (a, b) for _, den in f.position_pairs})
    u_a, u_b = a.uniform_weight, b.uniform_weight
    w_scale = lcm(u_a.denominator, u_b.denominator, *{d for f in (a, b) for _, d in f.weight_pairs})
    du = u_a.numerator * (w_scale // u_a.denominator) - u_b.numerator * (w_scale // u_b.denominator)
    table_a, table_b = (_hinge_table(f, t_scale, w_scale) for f in (a, b))
    return t_scale, w_scale, table_a, table_b, du


def _refined(t_scale: int, table_a: tuple, table_b: tuple, du: int) -> list[tuple]:
    """The refined grid as (x, m, i, j), each the point s = x / (m T) and
    the first rows i and j of the two tables above it, strictly increasing.

    Takes every breakpoint of F_A - F_B, the midpoint of every segment,
    and the exact vertex of the hinge-gap map on every segment where it
    has one.  The gap s -> A(h_s) - B(h_s) is piecewise quadratic with
    derivative F_A(s) - F_B(s) = (u_B - u_A)(1 - s) + M_B(s) - M_A(s),
    where M(s) is the atom mass strictly above s; its maximum over a
    segment sits at an endpoint or at that vertex.  No atom lies inside a
    segment, so its left end, midpoint and vertex share rows; s = 1 takes
    the last rows, at T + 1.
    """
    (pos_a, mass_a, _), (pos_b, mass_b, _) = table_a, table_b
    points = sorted({0, t_scale, *pos_a[:-1], *pos_b[:-1]})
    grid = []
    i = j = 0
    sign, den = (1, du) if du > 0 else (-1, -du)
    for left, right in zip(points, points[1:]):
        while pos_a[i] <= left:
            i += 1
        while pos_b[j] <= left:
            j += 1
        grid.append((left, 1, i, j))
        mid = (left + right, 2, i, j)
        if not du:
            grid.append(mid)
            continue
        # vertex = 1 + (M_A - M_B) / (u_A - u_B), over den = |u_A - u_B|
        vertex = t_scale * (du + mass_a[i] - mass_b[j]) * sign
        twice_mid = (left + right) * den
        if left * den < vertex < right * den and 2 * vertex != twice_mid:
            at = (vertex, den, i, j)
            grid += (at, mid) if 2 * vertex < twice_mid else (mid, at)
        else:
            grid.append(mid)
    grid.append((t_scale, 1, len(pos_a) - 1, len(pos_b) - 1))
    return grid


def oracle_decide(a: Functional, b: Functional) -> OracleReport:
    """Worst violation of A(f) <= B(f) over the hinges on refine_grid(a, b)
    plus the linear maps t and -t (barycenter check)."""
    t_scale, w_scale, table_a, table_b, du = _tables(a, b)
    grid = _refined(t_scale, table_a, table_b, du)
    (_, mass_a, mom_a), (_, mass_b, mom_b) = table_a, table_b
    # the worst gap so far is best / (2 best_m2 W T^2)
    best, best_m2 = 0, 1
    worst = None
    for x, m, i, j in grid:
        mt = m * t_scale
        gap = 2 * mt * (m * (mom_a[i] - mom_b[j]) - x * (mass_a[i] - mass_b[j]))
        if du:
            gap += du * (mt - x) ** 2
        m2 = m * m
        if gap * best_m2 > best * m2:
            best, best_m2, worst = gap, m2, (x, m)
    # t is the hinge at s = 0 (m = 1) and -t its negation
    mean_gap = abs(2 * (mom_a[0] - mom_b[0]) + du * t_scale) * t_scale
    if mean_gap * best_m2 > best:
        best, best_m2, worst = mean_gap, 1, None
    max_violation = Fraction(best, 2 * best_m2 * w_scale * t_scale**2)
    worst_s = None if worst is None else Fraction(worst[0], worst[1] * t_scale)
    return OracleReport(len(grid) + 2, max_violation, worst_s)


def refine_grid(a: Functional, b: Functional) -> list[Fraction]:
    """Finite grid guaranteed to expose a violating hinge if one exists:
    the Fraction view of the one oracle_decide(a, b) walks (see _refined)."""
    t_scale, _, table_a, table_b, du = _tables(a, b)
    return [Fraction(x, m * t_scale) for x, m, _, _ in _refined(t_scale, table_a, table_b, du)]
