"""The independent hinge-grid verifier against the decision engine."""

from __future__ import annotations

import ast
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

import quadorder.functionals
import quadorder.oracle
import quadorder.ordering
import quadorder.theorems
from quadorder import (
    HingeWitness,
    MIDPOINT,
    UNIFORM,
    decide,
    make_functional,
    oracle_decide,
    refine_grid,
)
from quadorder.cli import _SAMPLERS
from helpers import (
    equal_mean_pair,
    pair_family,
    rand_functional,
    reference_oracle_decide,
    reference_refine_grid,
)

TWO_NEAR_EDGES = make_functional([(F(1, 10), F(1, 2)), (F(9, 10), F(1, 2))])


def test_midpoint_vs_uniform_clean_on_dense_grid():
    report = oracle_decide(MIDPOINT, UNIFORM)
    assert report.max_violation == 0
    assert report.worst_s is None
    # the five points 0, 1/4, 1/2, 3/4, 1 of the refined grid, and t and -t
    assert report.tested_functions == 7


def test_two_near_edges_worst_hinge():
    report = oracle_decide(TWO_NEAR_EDGES, UNIFORM)
    assert report.max_violation == F(3, 40)
    assert report.worst_s == F(1, 2)


def test_equal_pair_reports_zero():
    report = oracle_decide(TWO_NEAR_EDGES, TWO_NEAR_EDGES)
    assert report.max_violation == 0


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
        report = oracle_decide(a, b)
        assert (report.max_violation == 0) == decide(a, b).holds


def test_oracle_reproduces_hinge_witnesses_exactly():
    rng = random.Random(23)
    seen = 0
    while seen < 120:
        a, b = equal_mean_pair(rng)
        verdict = decide(a, b)
        if not isinstance(verdict.witness, HingeWitness):
            continue
        report = oracle_decide(a, b)
        # the decider's witness is the global maximizer, so equality holds
        assert report.max_violation == verdict.witness.gap
        assert report.worst_s == verdict.witness.s
        seen += 1


def test_oracle_flags_mean_mismatch_via_linear_maps():
    heavy_left = make_functional([(0, F(1, 2)), (F(1, 2), F(1, 2))])
    # A sits below B at every hinge; only f(t) = -t exposes the mean gap.
    report = oracle_decide(heavy_left, UNIFORM)
    assert report.max_violation == F(1, 4)
    assert report.worst_s is None
    # with the means flipped, the hinge at s = 0 (which is f(t) = t) fires
    report = oracle_decide(UNIFORM, heavy_left)
    assert report.max_violation == F(1, 4)
    assert report.worst_s == F(0)


def _imported_names(module) -> set[str]:
    """Every module and module.name a source file imports."""
    tree = ast.parse(Path(module.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert imported, "the import scan found nothing"
    return imported


def test_oracle_imports_nothing_from_the_engine_it_checks():
    imported = _imported_names(quadorder.oracle)
    assert not [name for name in imported if "ordering" in name.split(".")]


@pytest.mark.parametrize("module", [quadorder.ordering, quadorder.functionals])
def test_engine_imports_nothing_from_the_oracle(module):
    imported = _imported_names(module)
    assert not [name for name in imported if "oracle" in name.split(".")]


def test_case_checkers_import_nothing_from_the_routes_they_are_checked_against():
    # the checkers and their samplers stay a third, independent route
    imported = _imported_names(quadorder.theorems)
    routes = {"ordering", "oracle", "cli"}
    assert not [name for name in imported if routes & set(name.split("."))]


# pairs drawn per family; the uniform-only and endpoint-atom families add
# a few fixed pairs on top
PAIR_COUNTS = {
    "random": 500,
    "equal-mean": 500,
    **{name: 250 for name in _SAMPLERS},
    "uniform-only": 200,
    "endpoint-atoms": 100,
    "coprime": 8,
    "shared-positions": 200,
    "equal": 100,
}


@pytest.mark.parametrize("family", sorted(PAIR_COUNTS))
def test_integer_oracle_matches_the_fraction_reference(family):
    rng = random.Random(f"oracle-{family}")
    for a, b in pair_family(rng, family, PAIR_COUNTS[family]):
        grid = refine_grid(a, b)
        assert grid == reference_refine_grid(a, b)
        got, want = oracle_decide(a, b), reference_oracle_decide(a, b, grid)
        assert (got.max_violation, got.worst_s) == (want.max_violation, want.worst_s)
        assert got.tested_functions == want.tested_functions


@pytest.mark.parametrize("family", sorted(PAIR_COUNTS))
def test_oracle_agrees_with_the_decider_on_every_family(family):
    # the oracle is clean exactly when the decider holds, and a hinge
    # witness is the global maximizer: the oracle finds its gap at its s
    rng = random.Random(f"decider-{family}")
    for a, b in pair_family(rng, family, 150):
        verdict, report = decide(a, b), oracle_decide(a, b)
        assert (report.max_violation == 0) == verdict.holds
        if isinstance(verdict.witness, HingeWitness):
            witness = verdict.witness
            assert (report.max_violation, report.worst_s) == (witness.gap, witness.s)


def test_one_pass_oracle_builds_each_table_once_and_no_fraction_grid(monkeypatch):
    tables, fractions = [], []
    build_tables, fraction = quadorder.oracle._tables, quadorder.oracle.Fraction

    def counted_tables(*args):
        tables.append(args)
        return build_tables(*args)

    def counted_fraction(*args):
        fractions.append(args)
        return fraction(*args)

    monkeypatch.setattr(quadorder.oracle, "_tables", counted_tables)
    monkeypatch.setattr(quadorder.oracle, "Fraction", counted_fraction)
    rng = random.Random(29)
    pairs = pair_family(rng, "random", 40) + pair_family(rng, "equal-mean", 40)
    for a, b in pairs:
        tables.clear()
        fractions.clear()
        report = oracle_decide(a, b)
        # one table of both sides, and Fractions for max_violation and worst_s only
        assert tables == [(a, b)]
        assert len(fractions) == (1 if report.worst_s is None else 2)
