"""Deliberately simple second opinion on convex-order verdicts.

The oracle never looks at the decision engine's cumulative integral.  It
evaluates both functionals directly on a grid of hinge functions (plus
t, -t, and t^2) straight from the atom data and the closed form
integral_0^1 max(t-s, 0) dt = (1-s)^2 / 2, and reports the worst
violation it finds.  refine_grid builds a finite grid that provably
contains a violating hinge whenever one exists, so "no violation on the
refined grid" is a complete check, not a sampling heuristic.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .functionals import (
    Functional,
    Linear,
    Square,
    ONE,
    ZERO,
    as_fraction,
    evaluate,
)

__all__ = ["OracleReport", "oracle_decide", "refine_grid"]


@dataclass(frozen=True)
class OracleReport:
    """Worst violation found.

    max_violation is over the hinges on the grid and the linear maps t
    and -t (the barycenter check); worst_s is the hinge parameter when a
    hinge is the worst offender, None when a linear map is.  The square
    gap A(t^2) - B(t^2) is reported on its own: t^2 aggregates the whole
    hinge family (t^2 = 2 * integral of h_s over s), so its gap lives on
    a different scale than any single pointwise gap.  On a refined grid
    a positive square gap with clean hinges is impossible.
    """

    tested_functions: int
    max_violation: Fraction
    worst_s: Optional[Fraction]
    square_gap: Fraction = ZERO


def _hinge_table(func: Functional) -> tuple[list[Fraction], list[Fraction], list[Fraction]]:
    """Suffix sums over the atoms: positions, mass above, first moment above.

    E max(X - s, 0) over the atoms equals moment_above(s) - s * mass_above(s),
    cut at the first position > s."""
    positions = [atom.position for atom in func.atoms]
    n = len(positions)
    mass = [ZERO] * (n + 1)
    moment = [ZERO] * (n + 1)
    for i in range(n - 1, -1, -1):
        atom = func.atoms[i]
        mass[i] = mass[i + 1] + atom.weight
        moment[i] = moment[i + 1] + atom.weight * atom.position
    return positions, mass, moment


def oracle_decide(
    a: Functional, b: Functional, s_grid: Iterable[Fraction]
) -> OracleReport:
    """Worst violation of A(f) <= B(f) over hinges on the grid plus the
    linear maps t and -t (barycenter check) and the square t^2."""
    grid = sorted({as_fraction(s) for s in s_grid})
    if not grid:
        raise ValueError("s_grid must be nonempty")
    if grid[0] < 0 or grid[-1] > 1:
        raise ValueError("s_grid values must lie in [0, 1]")
    pos_a, mass_a, mom_a = _hinge_table(a)
    pos_b, mass_b, mom_b = _hinge_table(b)
    du = a.uniform_weight - b.uniform_weight
    max_violation = ZERO
    worst_s: Optional[Fraction] = None
    for s in grid:
        # hinges with positions <= s contribute nothing
        i = bisect.bisect_right(pos_a, s)
        j = bisect.bisect_right(pos_b, s)
        gap = (mom_a[i] - mom_b[j]) - s * (mass_a[i] - mass_b[j])
        if du:
            gap += du * (ONE - s) ** 2 / 2
        if gap > max_violation:
            max_violation, worst_s = gap, s
    for f in (Linear(ONE), Linear(-ONE)):
        gap = evaluate(a, f) - evaluate(b, f)
        if gap > max_violation:
            max_violation, worst_s = gap, None
    square = Square()
    square_gap = evaluate(a, square) - evaluate(b, square)
    return OracleReport(len(grid) + 3, max_violation, worst_s, square_gap)


def refine_grid(a: Functional, b: Functional) -> list[Fraction]:
    """Finite grid guaranteed to expose a violating hinge if one exists.

    Takes every breakpoint of F_A - F_B, the midpoint of every segment,
    and the exact vertex of the hinge-gap map on every segment where it
    has one.  The gap s -> A(h_s) - B(h_s) is piecewise quadratic with
    derivative F_B(s) - F_A(s) ... = (u_B - u_A)(1 - s) + M_B(s) - M_A(s),
    where M(s) is the atom mass strictly above s; its maximum over a
    segment sits at an endpoint or at that vertex.
    """
    points = sorted({ZERO, ONE, *a.positions(), *b.positions()})
    grid = list(points)
    du = b.uniform_weight - a.uniform_weight
    if du != 0:
        pos_a, mass_a, _ = _hinge_table(a)
        pos_b, mass_b, _ = _hinge_table(b)
    for left, right in zip(points[:-1], points[1:]):
        grid.append((left + right) / 2)
        if du != 0:
            mass_gap = (
                mass_b[bisect.bisect_right(pos_b, left)]
                - mass_a[bisect.bisect_right(pos_a, left)]
            )
            vertex = ONE + mass_gap / du
            if left <= vertex <= right:
                grid.append(vertex)
    return sorted(set(grid))
