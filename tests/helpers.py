"""Seeded generators for random functionals and structured pairs, and
independent reference implementations the tests compare against.

The generators draw exact rationals with small denominators and solve
the mass/barycenter constraints exactly, so generated pairs are valid by
construction (never by tolerance).
"""

from __future__ import annotations

import bisect
import random
from fractions import Fraction
from math import ceil, floor
from typing import Iterable, Optional

from quadorder import (
    DiffFunction,
    Functional,
    Hinge,
    OracleReport,
    as_fraction,
    barycenter,
    evaluate,
    make_functional,
)
from quadorder.functionals import ONE, ZERO

# The unit atom at 1.  Its distribution function is 0 on [0, 1), so
# difference(f, UNIT_AT_ONE) equals F_f on [0, 1).
UNIT_AT_ONE = make_functional([(1, 1)])


def d_value(d: DiffFunction, t: Fraction) -> Fraction:
    """D(t), right-continuous at breakpoints, read from the flat fields."""
    i = bisect.bisect_right(d.breakpoints, t) - 1
    return d.values[i] + d.slope * (t - d.breakpoints[i])


def d_left_limit(d: DiffFunction, t: Fraction) -> Fraction:
    """Limit of D from the left at t in (0, 1]."""
    i = bisect.bisect_left(d.breakpoints, t) - 1
    return d.values[i] + d.slope * (t - d.breakpoints[i])


def mix(a: Functional, b: Functional, lam: Fraction) -> Functional:
    """Convex mixture lam*a + (1-lam)*b, again a valid functional."""
    combined = [(atom.position, lam * atom.weight) for atom in a.atoms]
    combined += [(atom.position, (1 - lam) * atom.weight) for atom in b.atoms]
    uniform = lam * a.uniform_weight + (1 - lam) * b.uniform_weight
    return make_functional(combined, uniform)


def reference_refine_grid(a: Functional, b: Functional) -> list[Fraction]:
    """The oracle's refined hinge grid, built segment by segment with the
    mass above each left end summed from scratch (quadratic, but plain)."""

    def mass_above(func: Functional, s: Fraction) -> Fraction:
        return sum((atom.weight for atom in func.atoms if atom.position > s), start=Fraction(0))

    points = sorted({Fraction(0), Fraction(1), *a.positions(), *b.positions()})
    grid = set(points)
    du = b.uniform_weight - a.uniform_weight
    for left, right in zip(points[:-1], points[1:]):
        grid.add((left + right) / 2)
        if du != 0:
            vertex = 1 + (mass_above(b, left) - mass_above(a, left)) / du
            if left <= vertex <= right:
                grid.add(vertex)
    return sorted(grid)


def second_moment(func: Functional) -> Fraction:
    """The functional applied to f(t) = t^2: sum w_i t_i^2 + uniform/3."""
    atoms = sum((atom.weight * atom.position**2 for atom in func.atoms), start=ZERO)
    return atoms + func.uniform_weight / 3


def reference_oracle_decide(
    a: Functional, b: Functional, s_grid: Iterable[Fraction]
) -> OracleReport:
    """The oracle on Fractions: suffix tables of mass and first moment
    over the atoms, bisect for each grid point, and the barycenter check
    through evaluate on f(t) = t = h_0(t) and on -t."""

    def hinge_table(func: Functional) -> tuple[list, list, list]:
        positions = [atom.position for atom in func.atoms]
        mass = [ZERO] * (len(positions) + 1)
        moment = [ZERO] * (len(positions) + 1)
        for i in range(len(positions) - 1, -1, -1):
            atom = func.atoms[i]
            mass[i] = mass[i + 1] + atom.weight
            moment[i] = moment[i + 1] + atom.weight * atom.position
        return positions, mass, moment

    grid = sorted({as_fraction(s) for s in s_grid})
    if not grid:
        raise ValueError("s_grid must be nonempty")
    if grid[0] < 0 or grid[-1] > 1:
        raise ValueError("s_grid values must lie in [0, 1]")
    pos_a, mass_a, mom_a = hinge_table(a)
    pos_b, mass_b, mom_b = hinge_table(b)
    du = a.uniform_weight - b.uniform_weight
    max_violation = ZERO
    worst_s: Optional[Fraction] = None
    for s in grid:
        i = bisect.bisect_right(pos_a, s)
        j = bisect.bisect_right(pos_b, s)
        gap = (mom_a[i] - mom_b[j]) - s * (mass_a[i] - mass_b[j])
        if du:
            gap += du * (ONE - s) ** 2 / 2
        if gap > max_violation:
            max_violation, worst_s = gap, s
    linear_gap = evaluate(a, Hinge(ZERO)) - evaluate(b, Hinge(ZERO))
    for gap in (linear_gap, -linear_gap):
        if gap > max_violation:
            max_violation, worst_s = gap, None
    return OracleReport(len(grid) + 2, max_violation, worst_s)


def reference_difference(a: Functional, b: Functional) -> DiffFunction:
    """D = F_a - F_b and G built in two walks: first the sorted union of
    {0, 1} and both atom position lists, then the atom-mass difference
    accumulated at each merged breakpoint."""
    pa, pb = a.positions(), b.positions()
    points: list[Fraction] = [ZERO]
    i = j = 0
    while i < len(pa) or j < len(pb):
        if j >= len(pb) or (i < len(pa) and pa[i] <= pb[j]):
            p = pa[i]
            i += 1
        else:
            p = pb[j]
            j += 1
        if p != points[-1]:
            points.append(p)
    if points[-1] != ONE:
        points.append(ONE)
    slope = a.uniform_weight - b.uniform_weight
    values = []
    acc = ZERO
    i = j = 0
    for p in points:
        while i < len(a.atoms) and a.atoms[i].position == p:
            acc += a.atoms[i].weight
            i += 1
        while j < len(b.atoms) and b.atoms[j].position == p:
            acc -= b.atoms[j].weight
            j += 1
        values.append(acc + slope * p)
    cumulative = [ZERO]
    for k, left in enumerate(points[:-1]):
        dx = points[k + 1] - left
        cumulative.append(cumulative[-1] + values[k] * dx + slope * dx * dx / 2)
    return DiffFunction(tuple(points), tuple(values), slope, tuple(cumulative))


def simplest_between(lo: Fraction, hi: Fraction) -> Fraction:
    """The smallest-denominator rational in the closed interval [lo, hi]
    (ties broken toward zero), found by continued-fraction descent."""
    if lo > hi:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    if lo == hi:
        return lo
    if lo <= 0 <= hi:
        return ZERO
    if hi < 0:
        return -simplest_between(-hi, -lo)
    n = ceil(lo)
    if n <= hi:
        return Fraction(n)
    f = floor(lo)
    sub = simplest_between(1 / (hi - f), 1 / (lo - f))
    return f + 1 / sub


DENOMINATORS = (8, 9, 10, 12, 15, 16, 20, 24, 30, 32, 40, 60)


def rand_fraction(rng: random.Random, lo: Fraction, hi: Fraction) -> Fraction | None:
    """Random rational strictly inside (lo, hi), None if the drawn
    denominator has no lattice point there."""
    den = rng.choice(DENOMINATORS)
    kmin = lo.numerator * den // lo.denominator + 1
    kmax = -((-hi.numerator * den) // hi.denominator) - 1
    if kmin > kmax:
        return None
    return Fraction(rng.randint(kmin, kmax), den)


def rand_functional(
    rng: random.Random,
    min_atoms: int = 2,
    max_atoms: int = 6,
    allow_uniform: bool = True,
) -> Functional:
    """Random functional with min..max atoms and an optional uniform part."""
    while True:
        k = rng.randint(min_atoms, max_atoms)
        den = rng.choice(DENOMINATORS)
        positions = sorted({Fraction(rng.randint(0, den), den) for _ in range(k)})
        if len(positions) < min_atoms:
            continue
        uniform = Fraction(0)
        if allow_uniform and rng.random() < 0.4:
            uniform = Fraction(rng.randint(1, 4), 8)
        raw = [rng.randint(1, 8) for _ in positions]
        total = sum(raw)
        atom_mass = 1 - uniform
        atoms = [(p, Fraction(r, total) * atom_mass) for p, r in zip(positions, raw)]
        return make_functional(atoms, uniform)


def equal_mean_pair(rng: random.Random) -> tuple[Functional, Functional]:
    """Two functionals with exactly equal barycenters (2..6 atoms each,
    optional uniform part): the second one's two outermost weights are
    solved from the mass and barycenter equations."""
    first = rand_functional(rng)
    target = barycenter(first)
    while True:
        k = rng.randint(2, 6)
        den = rng.choice(DENOMINATORS)
        positions = sorted({Fraction(rng.randint(0, den), den) for _ in range(k)})
        if len(positions) < 2:
            continue
        uniform = Fraction(0)
        if rng.random() < 0.3:
            uniform = Fraction(rng.randint(1, 4), 8)
        inner = positions[1:-1]
        inner_weights = []
        if inner:
            raw = [rng.randint(1, 6) for _ in inner]
            # keep some mass in reserve for the two solved weights
            scale = Fraction(rng.randint(1, 3), 8) * (1 - uniform) / sum(raw)
            inner_weights = [r * scale for r in raw]
        p_lo, p_hi = positions[0], positions[-1]
        remaining = 1 - uniform - sum(inner_weights)
        moment = (
            target
            - uniform * Fraction(1, 2)
            - sum(w * p for w, p in zip(inner_weights, inner))
        )
        w_hi = (moment - remaining * p_lo) / (p_hi - p_lo)
        w_lo = remaining - w_hi
        if w_lo < 0 or w_hi < 0:
            continue
        atoms = list(zip(inner, inner_weights)) + [(p_lo, w_lo), (p_hi, w_hi)]
        second = make_functional(atoms, uniform)
        return first, second


def single_crossing_pair(rng: random.Random) -> tuple[Functional, Functional]:
    """(point mass at the barycenter of B, B): the distribution functions
    cross exactly once, at the barycenter, with equal means."""
    while True:
        spread = rand_functional(rng)
        if len(spread.atoms) < 2 and spread.uniform_weight == 0:
            continue
        center = barycenter(spread)
        point = make_functional([(center, 1)])
        if point != spread:
            return point, spread


def even_crossing_pair(rng: random.Random) -> tuple[Functional, Functional]:
    """A constructed pair with equal barycenters whose difference changes
    sign exactly twice (heights h0, h1, h2 over the three stretches, with
    h1 solved so the signed areas cancel)."""
    while True:
        den = rng.choice(DENOMINATORS)
        x1 = Fraction(rng.randint(1, den - 2), den)
        x2 = Fraction(rng.randint(1, den - 1), den)
        if x1 >= x2:
            continue
        h0 = Fraction(rng.randint(1, 6), 12)
        h2 = Fraction(rng.randint(1, 6), 12)
        h1 = (h0 * x1 + h2 * (1 - x2)) / (x2 - x1)
        total = h0 + h1 + h2
        first = make_functional([(x1, (h0 + h1) / total), (1, h2 / total)])
        second = make_functional([(0, h0 / total), (x2, (h1 + h2) / total)])
        return first, second
