"""The independent hinge-grid verifier against the decision engine."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from quadorder import (
    HingeWitness,
    MIDPOINT,
    UNIFORM,
    decide,
    make_functional,
    oracle_decide,
    refine_grid,
)
from helpers import equal_mean_pair, rand_functional, reference_refine_grid

TWO_NEAR_EDGES = make_functional([(F(1, 10), F(1, 2)), (F(9, 10), F(1, 2))])


def test_midpoint_vs_uniform_clean_on_dense_grid():
    grid = [F(k, 100) for k in range(101)]
    report = oracle_decide(MIDPOINT, UNIFORM, grid)
    assert report.max_violation == 0
    assert report.worst_s is None
    assert report.tested_functions == 104


def test_two_near_edges_worst_hinge():
    report = oracle_decide(TWO_NEAR_EDGES, UNIFORM, [F(1, 4), F(1, 2), F(3, 4)])
    assert report.max_violation == F(3, 40)
    assert report.worst_s == F(1, 2)


def test_equal_pair_reports_zero():
    report = oracle_decide(TWO_NEAR_EDGES, TWO_NEAR_EDGES, [F(0), F(1, 3), F(1)])
    assert report.max_violation == 0
    assert report.square_gap == 0


def test_empty_or_out_of_range_grid_rejected():
    with pytest.raises(ValueError):
        oracle_decide(MIDPOINT, UNIFORM, [])
    with pytest.raises(ValueError):
        oracle_decide(MIDPOINT, UNIFORM, [F(3, 2)])


def test_refine_grid_midpoint_vs_uniform():
    assert refine_grid(MIDPOINT, UNIFORM) == [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]


def test_refine_grid_contains_atom_positions():
    thirds = make_functional([(F(1, 3), F(1, 2)), (F(2, 3), F(1, 2))])
    grid = refine_grid(thirds, UNIFORM)
    assert F(1, 3) in grid and F(2, 3) in grid


def test_refine_grid_is_sorted_and_unique():
    rng = random.Random(3)
    for _ in range(30):
        a, b = rand_functional(rng), rand_functional(rng)
        grid = refine_grid(a, b)
        assert grid == sorted(set(grid))
        assert grid[0] == 0 and grid[-1] == 1


def test_refine_grid_matches_the_segment_by_segment_reference():
    rng = random.Random(5)
    for _ in range(200):
        a, b = rand_functional(rng), rand_functional(rng)
        assert refine_grid(a, b) == reference_refine_grid(a, b)
    for _ in range(50):
        a, b = equal_mean_pair(rng)
        assert refine_grid(a, b) == reference_refine_grid(a, b)


def test_oracle_matches_decider_on_equal_mean_pairs():
    rng = random.Random(17)
    for _ in range(300):
        a, b = equal_mean_pair(rng)
        report = oracle_decide(a, b, refine_grid(a, b))
        assert (report.max_violation == 0) == decide(a, b).holds


def test_oracle_reproduces_hinge_witnesses_exactly():
    rng = random.Random(23)
    seen = 0
    while seen < 120:
        a, b = equal_mean_pair(rng)
        verdict = decide(a, b)
        if not isinstance(verdict.witness, HingeWitness):
            continue
        report = oracle_decide(a, b, refine_grid(a, b))
        # the decider's witness is the global maximizer, so equality holds
        assert report.max_violation == verdict.witness.gap
        assert report.worst_s == verdict.witness.s
        seen += 1


def test_oracle_flags_mean_mismatch_via_linear_maps():
    heavy_left = make_functional([(0, F(1, 2)), (F(1, 2), F(1, 2))])
    # A sits below B at every hinge; only f(t) = -t exposes the mean gap.
    report = oracle_decide(heavy_left, UNIFORM, refine_grid(heavy_left, UNIFORM))
    assert report.max_violation == F(1, 4)
    assert report.worst_s is None
    # with the means flipped, the hinge at s = 0 (which is f(t) = t) fires
    report = oracle_decide(UNIFORM, heavy_left, refine_grid(UNIFORM, heavy_left))
    assert report.max_violation == F(1, 4)
    assert report.worst_s == F(0)


def test_square_gap_never_fires_alone_on_refined_grid():
    rng = random.Random(29)
    for _ in range(300):
        a, b = rand_functional(rng), rand_functional(rng)
        report = oracle_decide(a, b, refine_grid(a, b))
        if report.square_gap > 0:
            assert report.max_violation > 0
