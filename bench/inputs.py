"""Seeded pair generators whose convex-order answer is known by construction.

A mean-preserving spread B of A (every atom of A split in two around
itself, weights chosen to keep its mean) satisfies A <= B, strictly, so
the pair holds, the swapped pair fails with a hinge witness, and shifting
one atom of B to the right makes the barycenters differ, which fails
with a linear witness.
"""

from __future__ import annotations

import random
from fractions import Fraction

from reference import ONE, Measure

GRID = 10**6
PRIME_LO, PRIME_HI = 100_000, 120_000


def _weights(rng: random.Random, n: int, total: Fraction) -> list[Fraction]:
    counts = [rng.randint(1, 1000) for _ in range(n)]
    scale = sum(counts)
    return [total * c / scale for c in counts]


def _spread(
    x: Fraction, w: Fraction, d: Fraction, e: Fraction
) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]:
    """Split the atom (x, w) onto x - d and x + e, keeping its mean."""
    return (x - d, w * e / (d + e)), (x + e, w * d / (d + e))


def smooth_pair(rng: random.Random, n: int, uniform: Fraction) -> tuple[Measure, Measure]:
    """A with n atoms on the 1e-6 grid, and B spreading each atom by up to
    2e-3 to either side; both carry the same uniform part."""
    ticks = rng.sample(range(2_000, GRID - 2_000), n)
    weights = _weights(rng, n, ONE - uniform)
    a_atoms, b_atoms = [], []
    for tick, w in zip(ticks, weights):
        x = Fraction(tick, GRID)
        d = Fraction(rng.randint(1, 2_000), GRID)
        e = Fraction(rng.randint(1, 2_000), GRID)
        a_atoms.append((x, w))
        b_atoms.extend(_spread(x, w, d, e))
    return Measure(tuple(a_atoms), uniform), Measure(tuple(b_atoms), uniform)


def primes_between(lo: int, hi: int) -> list[int]:
    sieve = bytearray([1]) * hi
    sieve[0:2] = b"\x00\x00"
    for p in range(2, int(hi**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, hi, p)))
    return [p for p in range(lo, hi) if sieve[p]]


PRIMES = primes_between(PRIME_LO, PRIME_HI)


def _prime_fraction(rng: random.Random, q: int, lo: Fraction, hi: Fraction) -> Fraction:
    """A fraction k/q strictly inside (lo, hi); q is prime, so k/q is in
    lowest terms."""
    k = rng.randint(int(lo * q) + 1, int(hi * q) - 1)
    return Fraction(k, q)


def bigden_pair(rng: random.Random, n: int) -> tuple[Measure, Measure]:
    """A with n atoms in (1/4, 3/4), B spreading each by 1/10 to 1/4 to
    either side.  Every position and every offset has its own prime
    denominator, so the spreads overlap many neighbours and G's
    denominators multiply up."""
    primes = rng.sample(PRIMES, 3 * n)
    weights = _weights(rng, n, ONE)
    a_atoms, b_atoms = [], []
    for i, w in enumerate(weights):
        x = _prime_fraction(rng, primes[3 * i], Fraction(1, 4), Fraction(3, 4))
        d = _prime_fraction(rng, primes[3 * i + 1], Fraction(1, 10), Fraction(1, 4))
        e = _prime_fraction(rng, primes[3 * i + 2], Fraction(1, 10), Fraction(1, 4))
        a_atoms.append((x, w))
        b_atoms.extend(_spread(x, w, d, e))
    return Measure(tuple(a_atoms)), Measure(tuple(b_atoms))


def shifted(rng: random.Random, m: Measure) -> Measure:
    """m with its leftmost atom moved right by a small step, which raises
    the barycenter."""
    atoms = list(m.atoms)
    i = min(range(len(atoms)), key=lambda k: atoms[k][0])
    t, w = atoms[i]
    atoms[i] = (t + (ONE - t) / rng.randint(2, 50), w)
    return Measure(tuple(atoms), m.uniform)

