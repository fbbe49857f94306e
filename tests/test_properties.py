"""Cross-cutting properties: path agreement, single/even crossing laws,
hinge completeness, and the classic refinement chain."""

from __future__ import annotations

import random
from fractions import Fraction as F

from quadorder import (
    EQUAL,
    FAILS,
    HOLDS,
    MIDPOINT,
    TRAPEZOID,
    UNIFORM,
    crossing_profile,
    decide,
    decide_lemma,
    difference,
    evaluate,
    make_functional,
    oracle_decide,
    refine_grid,
    verify_witness,
)
from helpers import (
    equal_mean_pair,
    even_crossing_pair,
    single_crossing_pair,
)


def test_paths_agree_on_equal_mean_pairs():
    rng = random.Random(101)
    degenerate = 0
    for _ in range(400):
        a, b = equal_mean_pair(rng)
        cumulative = decide(a, b)
        if cumulative.outcome == EQUAL:
            degenerate += 1
            continue
        lemma = decide_lemma(a, b)
        assert lemma.outcome == cumulative.outcome
        report = oracle_decide(a, b)
        assert (report.max_violation == 0) == cumulative.holds
    assert degenerate < 100  # the generator produces mostly distinct pairs


def test_single_crossing_equal_means_always_holds():
    rng = random.Random(202)
    for _ in range(400):
        a, b = single_crossing_pair(rng)
        profile = crossing_profile(difference(a, b))
        assert profile.n == 1
        assert decide(a, b).outcome == HOLDS
        assert decide_lemma(a, b).outcome == HOLDS


def test_constructed_even_crossing_pairs_always_fail():
    rng = random.Random(303)
    for _ in range(300):
        a, b = even_crossing_pair(rng)
        profile = crossing_profile(difference(a, b))
        assert profile.n == 2
        verdict = decide(a, b)
        assert verdict.outcome == FAILS
        assert verify_witness(a, b, verdict)
        lemma = decide_lemma(a, b)
        assert lemma.outcome == FAILS
        assert verify_witness(a, b, lemma)


def test_random_even_crossing_pairs_fail():
    rng = random.Random(404)
    seen = 0
    for _ in range(2000):
        a, b = equal_mean_pair(rng)
        d = difference(a, b)
        if d.is_zero():
            continue
        profile = crossing_profile(d)
        if profile.n % 2 == 0 and profile.n >= 2:
            assert decide(a, b).outcome == FAILS
            seen += 1
    assert seen >= 10


def test_hinge_completeness_on_structural_grid():
    # With equal barycenters, Holds is equivalent to A(h_s) <= B(h_s) on
    # the finite grid of breakpoints and gap vertices.
    rng = random.Random(505)
    for _ in range(250):
        a, b = equal_mean_pair(rng)
        clean = all(evaluate(a, s) <= evaluate(b, s) for s in refine_grid(a, b))
        assert clean == decide(a, b).holds


def test_classic_refinement_chain():
    # midpoint <= two inner nodes <= integral mean <= node-plus-endpoints
    # <= trapezoid, for each sampled mixing weight.
    for lam in (F(1, 4), F(1, 2), F(3, 4)):
        inner = make_functional([(lam / 2, lam), ((1 + lam) / 2, 1 - lam)])
        outer = make_functional(
            [(lam, F(1, 2)), (0, lam / 2), (1, (1 - lam) / 2)]
        )
        chain = [MIDPOINT, inner, UNIFORM, outer, TRAPEZOID]
        for left, right in zip(chain, chain[1:]):
            assert decide(left, right).holds


def test_decide_is_deterministic():
    rng = random.Random(606)
    for _ in range(50):
        a, b = equal_mean_pair(rng)
        first = decide(a, b, diagnose=True)
        second = decide(a, b, diagnose=True)
        assert first == second
