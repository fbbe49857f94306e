"""Seeded generators for random functionals and structured pairs, and
independent reference implementations the tests compare against.

The generators draw exact rationals with small denominators and solve
the mass/barycenter constraints exactly, so generated pairs are valid by
construction (never by tolerance).
"""

from __future__ import annotations

import bisect
import heapq
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain
from math import ceil, floor
from operator import itemgetter
from typing import Iterable, Optional

from quadorder import (
    EQUAL,
    FAILS,
    HOLDS,
    Atom,
    CrossingProfile,
    DegenerateDifference,
    DiffFunction,
    DomainError,
    FourNodeUpperParams,
    Functional,
    HingeWitness,
    LinearWitness,
    MassError,
    MeansDiffer,
    NegativeWeightError,
    OracleReport,
    Rational,
    SIMPSON,
    TRAPEZOID,
    ThreeNodeLowerParams,
    TwoVsThreeParams,
    UNIFORM,
    Verdict,
    as_fraction,
    decide,
    evaluate,
    functional_pair,
    make_functional,
)
from quadorder.cli import MAX_DENOMINATOR, _SAMPLERS, CLIError, NonMonotoneRegion, ScanSpec
from quadorder.functionals import HALF, ONE, ZERO
from quadorder.ordering import _lemma_verdict

# The unit atom at 1.  Its distribution function is 0 on [0, 1), so
# difference(f, UNIT_AT_ONE) equals F_f on [0, 1).
UNIT_AT_ONE = make_functional([(1, 1)])


def d_slope(d: DiffFunction) -> Fraction:
    """D's one slope, slope_w / W."""
    return Fraction(d.slope_w, d.w_scale)


def d_points(d: DiffFunction) -> tuple[int, ...]:
    """Each breakpoint over T, p_i = b_i T."""
    return tuple(tn * (d.t_scale // td) for tn, td in d.positions)


def d_values(d: DiffFunction) -> tuple[Fraction, ...]:
    """D(b_i), the right limit at each breakpoint, from the int fields on
    Fractions: the jumps summed up to b_i, plus slope * b_i."""
    slope, mass, values = d_slope(d), ZERO, []
    for p, jump in zip(d_points(d), d.jumps):
        mass += Fraction(*jump)
        values.append(mass + slope * Fraction(p, d.t_scale))
    return tuple(values)


def d_value(d: DiffFunction, t: Fraction) -> Fraction:
    """D(t), right-continuous at breakpoints, read from the flat fields."""
    i = bisect.bisect_right(d.breakpoints, t) - 1
    return d_values(d)[i] + d_slope(d) * (t - d.breakpoints[i])


def d_left_limit(d: DiffFunction, t: Fraction) -> Fraction:
    """Limit of D from the left at t in (0, 1]."""
    i = bisect.bisect_left(d.breakpoints, t) - 1
    return d_values(d)[i] + d_slope(d) * (t - d.breakpoints[i])


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

    points = sorted({Fraction(0), Fraction(1), *(x.position for x in (*a.atoms, *b.atoms))})
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
    linear_gap = evaluate(a, 0) - evaluate(b, 0)
    for gap in (linear_gap, -linear_gap):
        if gap > max_violation:
            max_violation, worst_s = gap, None
    return OracleReport(len(grid) + 2, max_violation, worst_s)


def reference_make_functional(
    atoms: Iterable[tuple[Rational, Rational]], uniform_weight: Rational = 0
) -> tuple[tuple[Atom, ...], Fraction]:
    """make_functional on Fractions: a dict keyed by position, a Fraction
    sum for the mass, and a sort of the Fraction positions.  Returns the
    views a Functional gives, (atoms, uniform_weight)."""
    uniform = as_fraction(uniform_weight)
    if uniform < 0:
        raise NegativeWeightError(f"uniform weight {uniform} < 0")
    merged: dict[Fraction, Fraction] = {}
    for position, weight in atoms:
        t = as_fraction(position)
        w = as_fraction(weight)
        if not ZERO <= t <= ONE:
            raise DomainError(f"atom position {t} outside [0, 1]")
        if w < 0:
            raise NegativeWeightError(f"atom weight {w} < 0 at position {t}")
        merged[t] = merged.get(t, ZERO) + w
    total = sum(merged.values(), start=ZERO) + uniform
    if total != 1:
        raise MassError(f"total mass {total} != 1")
    return tuple(Atom(t, w) for t, w in sorted(merged.items()) if w != 0), uniform


# The number grammar, pinned: each string with the value as_fraction reads
# from it, or the reason it gives after "cannot parse rational <text>: ".
# The first three once depended on the Python version: "1_0/3" was refused
# before 3.11, "1 /2" is accepted by Fraction(str) from 3.12, and "1.dd"
# failed in int() on 3.11 and 3.12.
NUMBER_GRAMMAR: list[tuple[str, object]] = [
    ("1_0/3", Fraction(10, 3)),
    ("1 /2", "Invalid literal for Fraction: '1 /2'"),
    ("1.dd", "Invalid literal for Fraction: '1.dd'"),
    ("1.DD", "Invalid literal for Fraction: '1.DD'"),
    ("1/ 2", "Invalid literal for Fraction: '1/ 2'"),
    ("3/6", Fraction(1, 2)),
    ("-3/6", Fraction(-1, 2)),
    ("+7", Fraction(7)),
    (" \t1/2\n", Fraction(1, 2)),
    ("0.25", Fraction(1, 4)),
    (".5", Fraction(1, 2)),
    ("5.", Fraction(5)),
    ("-.5", Fraction(-1, 2)),
    ("1.2_5", Fraction(5, 4)),
    ("1_000_000", Fraction(10**6)),
    ("\u0661/\u0662", Fraction(1, 2)),  # Arabic-Indic digits
    ("\uff13.\uff15", Fraction(7, 2)),  # fullwidth digits
    ("1/0", "Fraction(1, 0)"),
    ("-3/0", "Fraction(-3, 0)"),
    ("-0/0", "Fraction(0, 0)"),
    ("1e3", "no exponent notation"),
    ("2E-1", "no exponent notation"),
    ("1.5/2", "Invalid literal for Fraction: '1.5/2'"),
    ("1/2.5", "Invalid literal for Fraction: '1/2.5'"),
    ("1/2/3", "Invalid literal for Fraction: '1/2/3'"),
    ("1._5", "Invalid literal for Fraction: '1._5'"),
    ("1__0", "Invalid literal for Fraction: '1__0'"),
    ("_1", "Invalid literal for Fraction: '_1'"),
    ("1_", "Invalid literal for Fraction: '1_'"),
    ("/2", "Invalid literal for Fraction: '/2'"),
    ("1/", "Invalid literal for Fraction: '1/'"),
    ("1/-2", "Invalid literal for Fraction: '1/-2'"),
    ("- 1", "Invalid literal for Fraction: '- 1'"),
    ("+-1", "Invalid literal for Fraction: '+-1'"),
    (".", "Invalid literal for Fraction: '.'"),
    ("", "Invalid literal for Fraction: ''"),
    ("0x10", "Invalid literal for Fraction: '0x10'"),
    ("\u00b2", "Invalid literal for Fraction: '\u00b2'"),  # a digit, but not a decimal one
]


@dataclass(frozen=True)
class ReferenceDiff:
    """D = F_A - F_B and G as Fraction tuples: on [b_i, b_{i+1}),
    D(t) = values[i] + slope * (t - b_i) and G(b_i) = cumulative[i]."""

    breakpoints: tuple[Fraction, ...]
    values: tuple[Fraction, ...]
    slope: Fraction
    cumulative: tuple[Fraction, ...]

    def g(self, s: Fraction) -> Fraction:
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
        """(s*, G(s*)) over every breakpoint and every interior vertex;
        smallest s* under ties."""
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


def reference_difference(a: Functional, b: Functional) -> ReferenceDiff:
    """D and G on Fractions, in one walk over the signed atoms merged by
    position: a breakpoint's value closes when the next position appears."""
    slope = a.uniform_weight - b.uniform_weight
    signed = heapq.merge(
        ((atom.position, atom.weight) for atom in a.atoms),
        ((atom.position, -atom.weight) for atom in b.atoms),
        key=itemgetter(0),
    )
    points, values = [ZERO], []
    acc = ZERO
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
    return ReferenceDiff(tuple(points), tuple(values), slope, tuple(cumulative))


def reference_crossing_profile(d: ReferenceDiff) -> CrossingProfile:
    """The crossing profile from the Fraction tuples: pieces of constant
    sign cut at interior roots, their signed areas summed per run."""

    def sign_pieces():
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
                mid_value = v + m * ((start + end) / 2 - left)
                yield start, 1 if mid_value > 0 else -1, g_end - g_start

    points: list[Fraction] = []
    areas: list[Fraction] = []
    initial_sign = current_sign = 0
    current_area = ZERO
    for start, sign, signed_area in sign_pieces():
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


def reference_decide(a: Functional, b: Functional, diagnose: bool = False) -> Verdict:
    """decide on the Fraction references: the cumulative verdict, and with
    diagnose the crossing profile and the crossing path's outcome."""
    d = reference_difference(a, b)
    if d.is_zero():
        return Verdict(EQUAL)
    g_end = d.g_end()
    if g_end != 0:
        verdict = Verdict(FAILS, LinearWitness(1 if g_end < 0 else -1))
    else:
        s_star, g_max = d.max_g()
        verdict = Verdict(HOLDS) if g_max <= 0 else Verdict(FAILS, HingeWitness(s_star, g_max))
    if not diagnose:
        return verdict
    profile = reference_crossing_profile(d)
    lemma = _lemma_verdict(profile).outcome if g_end == 0 else None
    return Verdict(verdict.outcome, verdict.witness, profile, lemma)


def reference_decide_lemma(a: Functional, b: Functional) -> Verdict:
    """decide_lemma on the Fraction references."""
    d = reference_difference(a, b)
    # a zero D has G(1) = 0, and reference_crossing_profile refuses it
    if d.g_end() != 0:
        raise MeansDiffer(f"barycenters differ: G(1) = {d.g_end()} != 0")
    return _lemma_verdict(reference_crossing_profile(d))


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



def reference_threshold(spec: ScanSpec, max_denominator: int = 10**6) -> dict:
    """run_threshold as a plain bisection: every probe is a decide, and the
    bracket is halved down to 1/(2 max_denominator^2) before the candidate
    and its confirming probe.  Where the holds-set inside the grid bracket
    is an interval, run_threshold must give the same dict or raise the same
    error."""
    if max_denominator < 1:
        raise CLIError(f"--max-denominator must be at least 1, got {max_denominator}")
    if max_denominator > MAX_DENOMINATOR:
        raise CLIError(f"--max-denominator must be at most {MAX_DENOMINATOR}")
    family, grid = spec.family, spec.grid

    def holds(v: Fraction) -> bool:
        return decide(*family.build(spec.params_at(v))[:2]).holds

    flags = [holds(v) for v in grid]
    switches = [i for i in range(len(flags) - 1) if flags[i] != flags[i + 1]]
    if len(switches) > 1:
        raise NonMonotoneRegion(
            f"holds/fails switches more than once along {spec.sweep}: "
            f"{['H' if f else 'F' for f in flags]}"
        )
    result = {
        "family": family.name,
        "sweep": spec.sweep,
        "fixed": {k: str(v) for k, v in sorted(spec.fixed.items())},
        "grid": {"start": str(spec.start), "stop": str(spec.stop), "step": str(spec.step)},
    }

    def report(u: Fraction, attained: bool, exact: bool, basis: str) -> dict:
        direction = "holds_below" if sign > 0 else "holds_above"
        result.update(direction=direction, threshold=str(sign * u), attained=attained,
                      exact=exact, basis=basis)
        return result

    if switches:
        i = switches[0]
        sign = 1 if flags[i] else -1
        lo, hi = sorted((sign * grid[i], sign * grid[i + 1]))
    else:
        if not any(flags):
            raise NonMonotoneRegion(f"no grid point holds; nothing to bracket along {spec.sweep}")
        param = family.params.get(spec.sweep)
        if param is None or param.fail_toward is None:
            raise NonMonotoneRegion(
                f"every grid point holds and family {family.name!r} declares no "
                f"fail direction for {spec.sweep!r}; widen the grid"
            )
        sign = 1 if param.fail_toward == "high" else -1
        bound, closed = max((sign * param.lo, param.lo_closed), (sign * param.hi, param.hi_closed))
        if closed and holds(sign * bound):
            return report(bound, True, True, "range-cap")
        edge = max(sign * v for v in grid)
        probe = bound - Fraction(1, 2 * max_denominator * bound.denominator)
        if probe <= edge:
            probe = (edge + bound) / 2
        if holds(sign * probe):
            return report(bound, False, True, "range-cap")
        lo, hi = edge, probe
    resolution = Fraction(1, 2 * max_denominator * max_denominator)
    while hi - lo > resolution:
        mid = (lo + hi) / 2
        if holds(sign * mid):
            lo = mid
        else:
            hi = mid
    candidate = ((lo + hi) / 2).limit_denominator(max_denominator)
    if not (lo <= candidate <= hi and holds(sign * candidate)):
        return report(lo, True, False, "refined")
    probe = (candidate + hi) / 2
    if holds(sign * probe):
        return report(probe, True, False, "refined")
    return report(candidate, True, True, "refined")

DENOMINATORS = (8, 9, 10, 12, 15, 16, 20, 24, 30, 32, 40, 60)


def rand_fraction(
    rng: random.Random, lo: Fraction, hi: Fraction, denominators: tuple = DENOMINATORS
) -> Fraction | None:
    """Random rational strictly inside (lo, hi), None if the drawn
    denominator has no lattice point there."""
    den = rng.choice(denominators)
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
    target = evaluate(first, 0)
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
        center = evaluate(spread, 0)
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


def first_primes_above(start: int, count: int) -> list[int]:
    primes: list[int] = []
    n = start
    while len(primes) < count:
        n += 1
        if all(n % d for d in range(2, int(n**0.5) + 1)):
            primes.append(n)
    return primes


def with_endpoint_atoms(rng: random.Random) -> Functional:
    """A random functional that also carries atoms at 0 and at 1."""
    inner = rand_functional(rng, min_atoms=1, max_atoms=4)
    share = Fraction(rng.randint(1, 6), 8)
    atoms = [(0, share * Fraction(rng.randint(1, 2), 4)), (1, share * Fraction(rng.randint(1, 2), 4))]
    rest = 1 - atoms[0][1] - atoms[1][1]
    atoms += [(x.position, rest * x.weight) for x in inner.atoms]
    return make_functional(atoms, rest * inner.uniform_weight)


def coprime_pair(rng: random.Random) -> tuple[Functional, Functional]:
    """Two functionals whose positions all have distinct prime
    denominators near 10^5, so their common denominator is huge, each
    with an optional uniform part."""
    primes = first_primes_above(10**5, 60)
    rng.shuffle(primes)
    sides = []
    for dens in (primes[:30], primes[30:]):
        uniform = rng.choice([Fraction(0), Fraction(1, 3), Fraction(2, 7)])
        raw = [rng.randint(1, 9) for _ in dens]
        total = sum(raw)
        atoms = [
            (Fraction(rng.randint(1, p - 1), p), Fraction(r, total) * (1 - uniform))
            for p, r in zip(dens, raw)
        ]
        sides.append(make_functional(atoms, uniform))
    return sides[0], sides[1]


def coprime_spread_pair(rng: random.Random, n: int = 12) -> tuple[Functional, Functional]:
    """A with n atoms in (1/4, 3/4) and B splitting each atom onto both
    sides of it, keeping its mean, so that A <= B; every position and
    offset has its own prime denominator near 10^5.  Both sides carry the
    same uniform part, and the pair is swapped half the time."""
    primes = first_primes_above(10**5, 3 * n)
    rng.shuffle(primes)
    uniform = rng.choice([Fraction(0), Fraction(1, 3)])
    raw = [rng.randint(1, 9) for _ in range(n)]
    a_atoms, b_atoms = [], []
    for i, r in enumerate(raw):
        p, q, s = primes[3 * i : 3 * i + 3]
        x = Fraction(rng.randint(p // 4 + 1, 3 * p // 4), p)
        d = Fraction(rng.randint(q // 10 + 1, q // 4), q)
        e = Fraction(rng.randint(s // 10 + 1, s // 4), s)
        w = Fraction(r, sum(raw)) * (1 - uniform)
        a_atoms.append((x, w))
        b_atoms += [(x - d, w * e / (d + e)), (x + e, w * d / (d + e))]
    a, b = make_functional(a_atoms, uniform), make_functional(b_atoms, uniform)
    return (a, b) if rng.random() < 0.5 else (b, a)


def pair_family(rng: random.Random, family: str, count: int) -> list[tuple[Functional, Functional]]:
    """count pairs of one kind, drawn from rng; the uniform-only,
    endpoint-atom and equal families add a few fixed pairs on top."""
    if family == "random":
        return [(rand_functional(rng), rand_functional(rng)) for _ in range(count)]
    if family == "equal-mean":
        return [equal_mean_pair(rng) for _ in range(count)]
    if family in _SAMPLERS:
        return [functional_pair(_SAMPLERS[family](rng)) for _ in range(count)]
    if family == "uniform-only":
        pairs = [(UNIFORM, UNIFORM)]
        for _ in range(count // 2):
            pairs += [(UNIFORM, rand_functional(rng)), (rand_functional(rng), UNIFORM)]
        return pairs
    if family == "endpoint-atoms":
        pairs = [(TRAPEZOID, SIMPSON), (SIMPSON, TRAPEZOID), (TRAPEZOID, UNIFORM)]
        for _ in range(count):
            other = rand_functional(rng) if rng.random() < 0.5 else with_endpoint_atoms(rng)
            pairs.append((with_endpoint_atoms(rng), other))
        return pairs
    if family == "coprime":
        return [coprime_pair(rng) for _ in range(count)]
    if family == "coprime-spread":
        return [coprime_spread_pair(rng) for _ in range(count)]
    if family == "coprime-spread-60":
        # bench-sized pairs; the second half is also mixed with the trapezoid
        # rule on one side and the uniform one on the other, every way round:
        # the barycenters stay equal and the uniform parts differ, so D has
        # a slope over large T and W
        pairs = [coprime_spread_pair(rng, 60) for _ in range(count)]
        lam = Fraction(1, 4)
        mixed = [
            (mix(x, TRAPEZOID, lam), mix(y, UNIFORM, lam))
            for a, b in pairs[count // 2 :]
            for x, y in ((a, b), (b, a))
        ]
        return pairs[: count // 2] + mixed + [(b, a) for a, b in mixed]
    if family == "shared-positions":
        pairs = []
        for _ in range(count // 2):
            # mix(a, c, lam) has every atom position of a
            a = rand_functional(rng)
            m = mix(a, rand_functional(rng), Fraction(rng.randint(1, 7), 8))
            pairs += [(a, m), (m, a)]
        return pairs
    assert family == "equal"
    # the same functional, once as built and once rebuilt from its atoms
    # split in two and shuffled, which make_functional merges back
    pairs = [(SIMPSON, SIMPSON), (UNIFORM, UNIFORM)]
    for _ in range(count):
        a = rand_functional(rng)
        halves = [(x.position, x.weight / 2) for x in a.atoms] * 2
        rng.shuffle(halves)
        pairs.append((a, make_functional(halves, a.uniform_weight)))
    return pairs


# ---------------------------------------------------------------------------
# The agree samplers on Fractions, the reference for cli._SAMPLERS: the
# same rng calls in the same order, so a seed draws the same tuples.
# ---------------------------------------------------------------------------

reference_rand_fraction = partial(
    rand_fraction, denominators=(8, 9, 10, 12, 16, 18, 20, 24, 30, 32, 40, 48, 60)
)


def reference_sample_three_node_lower(rng: random.Random) -> ThreeNodeLowerParams:
    while True:
        alpha1 = reference_rand_fraction(rng, HALF, ONE)
        alpha3 = reference_rand_fraction(rng, ZERO, HALF)
        alpha2 = reference_rand_fraction(rng, alpha3, alpha1)
        if alpha2 is None:
            continue
        a1 = reference_rand_fraction(rng, ZERO, min(ONE, (HALF - alpha3) / (alpha1 - alpha3)))
        if a1 is None:
            continue
        a2 = (HALF - a1 * (1 - alpha1) - (1 - a1) * (1 - alpha3)) / (alpha3 - alpha2)
        a3 = 1 - a1 - a2
        if 0 < a2 < 1 and 0 < a3 < 1:
            return ThreeNodeLowerParams(a1, a2, a3, alpha1, alpha2, alpha3)


def reference_sample_four_node_upper(rng: random.Random) -> FourNodeUpperParams:
    while True:
        alpha2 = reference_rand_fraction(rng, ZERO, ONE)
        alpha3 = reference_rand_fraction(rng, ZERO, alpha2)
        a1 = reference_rand_fraction(rng, ZERO, HALF)
        if alpha3 is None or a1 is None:
            continue
        a2 = reference_rand_fraction(rng, ZERO, min(1 - a1, (HALF - a1) / alpha2))
        if a2 is None:
            continue
        a3 = (HALF - a1 - a2 * alpha2) / alpha3
        a4 = 1 - a1 - a2 - a3
        if 0 < a3 < 1 and 0 < a4 < 1:
            return FourNodeUpperParams(a1, a2, a3, a4, alpha2, alpha3)


def reference_sample_two_vs_three(rng: random.Random) -> TwoVsThreeParams:
    while True:
        alpha1 = reference_rand_fraction(rng, ZERO, ONE)
        alpha2 = reference_rand_fraction(rng, ZERO, alpha1)
        beta = reference_rand_fraction(rng, ZERO, ONE)
        a = reference_rand_fraction(rng, ZERO, ONE)
        if alpha2 is None:
            continue
        mean = a * (1 - alpha1) + (1 - a) * (1 - alpha2)
        b2 = reference_rand_fraction(rng, ZERO, min(ONE, mean / (1 - beta), (1 - mean) / beta))
        if b2 is None:
            continue
        b3 = mean - b2 * (1 - beta)
        b1 = 1 - b2 - b3
        if 0 < b1 < 1 and 0 < b3 < 1:
            return TwoVsThreeParams(a, alpha1, alpha2, beta, b1, b2, b3)


REFERENCE_SAMPLERS = {
    "three-node-lower": reference_sample_three_node_lower,
    "four-node-upper": reference_sample_four_node_upper,
    "two-vs-three": reference_sample_two_vs_three,
}


class FullStdout:
    """A stdout whose write or flush fails as a full device does."""

    def __init__(self, failing):
        self.failing = failing

    def write(self, text):
        if self.failing == "write":
            raise OSError(28, "No space left on device")
        return len(text)

    def flush(self):
        if self.failing == "flush":
            raise OSError(28, "No space left on device")
