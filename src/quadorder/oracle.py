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
scaled to one common denominator T, weights to one W, and the atoms of
both sides become one signed suffix table of mass and first moment, A's
weights counted up and B's down.  oracle_decide(a, b) builds the table
once and scores each point of the refined grid, every one over the same
denominator S; a gap is a numerator over 2 W T S^2, and only the answer
is a Fraction.  evaluate(func, s) scores any other hinge.
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


def _tables(a: Functional, b: Functional) -> tuple:
    """T, the common denominator of every position of both sides; W, that
    of every weight and uniform weight; u_A - u_B in units of 1/W; and one
    table of both sides' atoms, each a row (p, +w) for A and (p, -w) for B
    with p in units of 1/T and w in units of 1/W.

    The table is positions in increasing order, then suffix sums over the
    rows: signed mass above (units of 1/W) and signed first moment above
    (units of 1/(W T)).  A(h_s) - B(h_s) over the atoms equals
    moment[k] - s * mass[k] for the first row k whose position exceeds s.
    A last position T + 1 lies above every s in [0, 1], so a walk over the
    rows needs no bound check.  Rows of both sides at one position stay
    two rows, and a walk skips both.
    """
    t_scale = lcm(*{den for f in (a, b) for _, den in f.position_pairs})
    u_a, u_b = a.uniform_weight, b.uniform_weight
    w_scale = lcm(u_a.denominator, u_b.denominator, *{d for f in (a, b) for _, d in f.weight_pairs})
    du = u_a.numerator * (w_scale // u_a.denominator) - u_b.numerator * (w_scale // u_b.denominator)
    rows = []
    for func, sign in ((a, 1), (b, -1)):
        for (num, den), (w_num, w_den) in zip(func.position_pairs, func.weight_pairs):
            rows.append((num * (t_scale // den), sign * w_num * (w_scale // w_den)))
    rows.sort(reverse=True)
    positions, mass, moment = [t_scale + 1], [0], [0]
    for p, w in rows:
        positions.append(p)
        mass.append(mass[-1] + w)
        moment.append(moment[-1] + p * w)
    return t_scale, w_scale, du, positions[::-1], mass[::-1], moment[::-1]


def _refined(t_scale: int, du: int, positions: list, mass: list) -> tuple[int, list]:
    """S and the refined grid as (x, k), each the point s = x / S and the
    first row k of the table above it, strictly increasing; S is
    2 |du| T, with du = u_A - u_B in units of 1/W, or 2 T when du = 0.

    Takes every breakpoint of F_A - F_B, the midpoint of every segment,
    and the exact vertex of the hinge-gap map on every segment where it
    has one.  The gap s -> A(h_s) - B(h_s) is piecewise quadratic with
    derivative F_A(s) - F_B(s) = (u_B - u_A)(1 - s) + M_B(s) - M_A(s),
    where M(s) is the atom mass strictly above s; its maximum over a
    segment sits at an endpoint or at that vertex.  No atom lies inside a
    segment, so its left end, midpoint and vertex share a row; s = 1 takes
    the last row, at T + 1.
    """
    den, sign = abs(du) or 1, (du > 0) - (du < 0)
    points = sorted({0, t_scale, *positions[:-1]})
    grid = []
    k = 0
    for left, right in zip(points, points[1:]):
        while positions[k] <= left:
            k += 1
        grid.append((2 * den * left, k))
        mid = den * (left + right)
        # vertex = 1 + (M_A - M_B) / (u_A - u_B); 0, never inside, when u_A = u_B
        vertex = 2 * t_scale * (du + mass[k]) * sign
        if 2 * den * left < vertex < 2 * den * right and vertex != mid:
            grid += ((vertex, k), (mid, k)) if vertex < mid else ((mid, k), (vertex, k))
        else:
            grid.append((mid, k))
    grid.append((2 * den * t_scale, len(positions) - 1))
    return 2 * den * t_scale, grid


def oracle_decide(a: Functional, b: Functional) -> OracleReport:
    """Worst violation of A(f) <= B(f) over the hinges on refine_grid(a, b)
    plus the linear maps t and -t (barycenter check)."""
    t_scale, w_scale, du, positions, mass, moment = _tables(a, b)
    s_scale, grid = _refined(t_scale, du, positions, mass)
    # a gap is a numerator over 2 W T S^2; the first worst point is kept
    best, worst = 0, None
    for x, k in grid:
        gap = 2 * s_scale * (s_scale * moment[k] - t_scale * x * mass[k])
        gap += du * t_scale * (s_scale - x) ** 2
        if gap > best:
            best, worst = gap, x
    # t is the hinge at s = 0 and -t its negation
    mean_gap = abs(2 * moment[0] + du * t_scale) * s_scale**2
    if mean_gap > best:
        best, worst = mean_gap, None
    max_violation = Fraction(best, 2 * w_scale * t_scale * s_scale**2)
    worst_s = None if worst is None else Fraction(worst, s_scale)
    return OracleReport(len(grid) + 2, max_violation, worst_s)


def refine_grid(a: Functional, b: Functional) -> list[Fraction]:
    """Finite grid guaranteed to expose a violating hinge if one exists:
    the Fraction view of the one oracle_decide(a, b) walks (see _refined)."""
    t_scale, _, du, positions, mass, _ = _tables(a, b)
    s_scale, grid = _refined(t_scale, du, positions, mass)
    return [Fraction(x, s_scale) for x, _ in grid]
