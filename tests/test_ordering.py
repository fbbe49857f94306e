"""Difference/antiderivative construction, crossing analysis, and the two
decision paths."""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from quadorder import (
    DegenerateDifference,
    EQUAL,
    FAILS,
    HOLDS,
    HingeWitness,
    LinearWitness,
    MIDPOINT,
    MeansDiffer,
    OrderingError,
    SIMPSON,
    TRAPEZOID,
    UNIFORM,
    Verdict,
    crossing_profile,
    decide,
    decide_lemma,
    difference,
    evaluate,
    make_functional,
    verify_witness,
)
from quadorder import ordering
from quadorder.cli import _SAMPLERS
from helpers import (
    UNIT_AT_ONE,
    d_slope,
    d_value,
    d_values,
    equal_mean_pair,
    first_primes_above,
    mix,
    pair_family,
    rand_functional,
    reference_crossing_profile,
    reference_decide,
    reference_decide_lemma,
    reference_difference,
    reference_make_functional,
)

seeds = st.integers(min_value=0, max_value=10**9)

TWO_NEAR_EDGES = make_functional([(F(1, 10), F(1, 2)), (F(9, 10), F(1, 2))])
TWO_AT_QUARTERS = make_functional([(F(1, 4), F(1, 2)), (F(3, 4), F(1, 2))])


# ---------------------------------------------------------------------------
# difference
# ---------------------------------------------------------------------------


def test_difference_midpoint_vs_uniform():
    d = difference(MIDPOINT, UNIFORM)
    # D = -t on [0, 1/2), 1 - t on [1/2, 1)
    assert d_value(d, F(1, 4)) == F(-1, 4)
    assert d_value(d, F(1, 2)) == F(1, 2)
    assert d_value(d, F(3, 4)) == F(1, 4)
    # G(s) = -s^2/2 on the first leg, back to 0 at 1
    assert d.cumulative == (0, F(-1, 8), 0)
    assert reference_difference(MIDPOINT, UNIFORM).g(F(1, 4)) == F(-1, 32)
    assert d.g_end() == 0


def test_difference_identical_is_zero():
    d = difference(SIMPSON, SIMPSON)
    assert d.is_zero()
    assert d.g_end() == 0


def test_difference_uniform_vs_trapezoid():
    d = difference(UNIFORM, TRAPEZOID)
    # D(t) = t - 1/2 on (0, 1)
    assert d_value(d, F(1, 4)) == F(-1, 4)
    assert d_value(d, F(3, 4)) == F(1, 4)
    assert d.g_end() == 0
    _, g_max = d.max_g()
    assert g_max <= 0


def test_difference_matches_the_fraction_reference():
    rng = random.Random(17)
    unit_at_zero = make_functional([(0, 1)])
    pairs = [(f, g) for f in (UNIFORM, SIMPSON, TRAPEZOID, UNIT_AT_ONE, unit_at_zero)
             for g in (UNIFORM, SIMPSON, TRAPEZOID, UNIT_AT_ONE, unit_at_zero)]
    for _ in range(200):
        a, c = rand_functional(rng), rand_functional(rng)
        # mix(a, c, 1/3) shares every atom position of a
        pairs += [(a, c), (a, a), (a, UNIFORM), (UNIFORM, a), (a, mix(a, c, F(1, 3)))]
    for a, b in pairs:
        d, ref = difference(a, b), reference_difference(a, b)
        assert (d.breakpoints, d_values(d), d_slope(d), d.cumulative) == (
            ref.breakpoints, ref.values, ref.slope, ref.cumulative
        )


def test_g_end_is_barycenter_gap():
    rng = random.Random(7)
    for _ in range(50):
        a, b = rand_functional(rng), rand_functional(rng)
        assert difference(a, b).g_end() == evaluate(b, 0) - evaluate(a, 0)


def test_g_is_continuous_at_breakpoints():
    rng = random.Random(13)
    for _ in range(25):
        a, b = rand_functional(rng), rand_functional(rng)
        d = difference(a, b)
        values = d_values(d)
        for i in range(1, len(d.breakpoints)):
            left, right = d.breakpoints[i - 1], d.breakpoints[i]
            dx = right - left
            reached = (
                d.cumulative[i - 1]
                + values[i - 1] * dx
                + d_slope(d) * dx * dx / 2
            )
            assert reached == d.cumulative[i]


# ---------------------------------------------------------------------------
# crossing_profile
# ---------------------------------------------------------------------------


def test_profile_midpoint_vs_uniform():
    p = crossing_profile(difference(MIDPOINT, UNIFORM))
    assert p.crossing_points == (F(1, 2),)
    assert p.areas == (F(1, 8), F(1, 8))
    assert p.initial_sign == -1


def test_profile_two_at_quarters():
    p = crossing_profile(difference(TWO_AT_QUARTERS, UNIFORM))
    assert p.crossing_points == (F(1, 4), F(1, 2), F(3, 4))
    assert p.areas == (F(1, 32),) * 4
    assert p.initial_sign == -1


def test_profile_two_near_edges():
    p = crossing_profile(difference(TWO_NEAR_EDGES, UNIFORM))
    assert p.crossing_points == (F(1, 10), F(1, 2), F(9, 10))
    assert p.areas == (F(1, 200), F(2, 25), F(2, 25), F(1, 200))
    assert p.initial_sign == -1


def test_profile_rejects_zero_difference():
    with pytest.raises(DegenerateDifference):
        crossing_profile(difference(MIDPOINT, MIDPOINT))


def test_profile_absorbs_zero_stretch():
    # D vanishes identically on (1/4, 3/4); the sign change over the gap is
    # charged to the start of the new sign's interval.
    a = make_functional([(F(1, 4), F(1, 2)), (F(3, 4), F(1, 2))])
    b = make_functional([(F(1, 8), F(1, 2)), (F(7, 8), F(1, 2))])
    p = crossing_profile(difference(a, b))
    assert p.crossing_points == (F(3, 4),)
    assert p.areas == (F(1, 16), F(1, 16))
    assert p.initial_sign == -1
    assert decide(a, b).outcome == HOLDS


def test_profile_touch_without_crossing():
    # F of the two-atom rule touches the ramp at t = 1/4 (atom weight equals
    # the position) without changing sign there: a single crossing remains.
    a = make_functional([(F(1, 4), F(1, 4)), (F(7, 12), F(3, 4))])
    assert evaluate(a, 0) == F(1, 2)
    p = crossing_profile(difference(a, UNIFORM))
    assert p.crossing_points == (F(7, 12),)
    assert p.initial_sign == -1
    assert decide(a, UNIFORM).outcome == HOLDS


@given(seeds)
def test_profile_signed_areas_telescope_to_g_end(seed):
    rng = random.Random(seed)
    a, b = rand_functional(rng), rand_functional(rng)
    d = difference(a, b)
    if d.is_zero():
        return
    p = crossing_profile(d)
    assert all(area > 0 for area in p.areas)
    signed = sum(
        sign * area
        for sign, area in zip(
            (p.initial_sign * (-1) ** i for i in range(len(p.areas))), p.areas
        )
    )
    assert signed == d.g_end()
    assert all(
        x < y for x, y in zip(p.crossing_points, p.crossing_points[1:])
    )


# ---------------------------------------------------------------------------
# decide: the cumulative path
# ---------------------------------------------------------------------------


def test_cumulative_classic_holds():
    assert decide(MIDPOINT, UNIFORM).outcome == HOLDS
    assert decide(UNIFORM, TRAPEZOID).outcome == HOLDS


def test_cumulative_reversal_gives_hinge_witness():
    v = decide(UNIFORM, MIDPOINT)
    assert v.outcome == FAILS
    assert v.witness == HingeWitness(F(1, 2), F(1, 8))


def test_cumulative_two_near_edges_witness():
    v = decide(TWO_NEAR_EDGES, UNIFORM)
    assert v.outcome == FAILS
    assert v.witness == HingeWitness(F(1, 2), F(3, 40))


def test_cumulative_mean_mismatch_gives_linear_witness():
    heavy_left = make_functional([(0, F(1, 2)), (F(1, 2), F(1, 2))])
    v = decide(UNIFORM, heavy_left)
    assert v.outcome == FAILS
    assert v.witness == LinearWitness(1)
    assert verify_witness(UNIFORM, heavy_left, v)
    v = decide(heavy_left, UNIFORM)
    assert v.witness == LinearWitness(-1)
    assert verify_witness(heavy_left, UNIFORM, v)


def test_unequal_barycenters_fail_before_max_g_is_formed(monkeypatch):
    # G(1) != 0 settles the verdict, so max G's Fractions are never built.
    def max_g(self):
        raise AssertionError("max G is not needed once G(1) != 0")

    monkeypatch.setattr(ordering.DiffFunction, "max_g", max_g)
    point_at_zero = make_functional([(0, 1)])
    assert decide(point_at_zero, UNIFORM) == Verdict(FAILS, LinearWitness(-1))


def test_verify_witness_rejects_forged_witnesses():
    # The linear witness is read through the hinge h_0(t) = t.  Both
    # directions occur, so dropping the direction factor rejects a genuine
    # witness or accepts a flipped one.
    heavy_left = make_functional([(0, F(1, 2)), (F(1, 2), F(1, 2))])
    for a, b, direction in ((UNIFORM, heavy_left, 1), (heavy_left, UNIFORM, -1)):
        assert decide(a, b) == Verdict(FAILS, LinearWitness(direction))
        assert verify_witness(a, b, Verdict(FAILS, LinearWitness(direction)))
        assert not verify_witness(a, b, Verdict(FAILS, LinearWitness(-direction)))
        assert not verify_witness(a, b, Verdict(FAILS, LinearWitness(2 * direction)))
    # A direction is the int +1 or -1: a bool or a float is not, as for
    # the hinge fields below.
    for forged in (True, 1.0, -1.0):
        assert not verify_witness(UNIFORM, heavy_left, Verdict(FAILS, LinearWitness(forged)))
    # A hinge witness must reproduce its gap exactly.
    assert decide(TRAPEZOID, MIDPOINT).witness == HingeWitness(F(1, 2), F(1, 4))
    assert verify_witness(TRAPEZOID, MIDPOINT, Verdict(FAILS, HingeWitness(F(1, 2), F(1, 4))))
    for gap in (F(1, 4) + F(1, 10**9), F(1, 4) - F(1, 10**9)):
        assert not verify_witness(TRAPEZOID, MIDPOINT, Verdict(FAILS, HingeWitness(F(1, 2), gap)))
    # A hinge parameter outside [0, 1] names no hinge: rejected, not raised.
    for s in (F(2), F(-1, 2)):
        assert not verify_witness(TRAPEZOID, MIDPOINT, Verdict(FAILS, HingeWitness(s, F(1, 4))))
    # So is a witness whose fields are not rationals.
    for forged in (HingeWitness("x", F(1)), HingeWitness(None, F(1)), HingeWitness(F(1, 2), "y")):
        assert not verify_witness(TRAPEZOID, MIDPOINT, Verdict(FAILS, forged))
    # Fields are read as as_fraction reads them: a string is a rational, a
    # float or a bool is not.
    for s, gap, verified in (
        ("1/2", F(1, 4), True),
        (F(1, 2), "1/4", True),
        ("1/2", "1/4", True),
        (0.5, F(1, 4), False),
        (F(1, 2), 0.25, False),
        (True, F(1, 4), False),
        (F(1, 2), True, False),
    ):
        assert verify_witness(TRAPEZOID, MIDPOINT, Verdict(FAILS, HingeWitness(s, gap))) is verified
    # A verdict that holds carries no witness; one that fails carries one.
    assert verify_witness(MIDPOINT, UNIFORM, Verdict(HOLDS))
    assert not verify_witness(MIDPOINT, UNIFORM, Verdict(HOLDS, HingeWitness(F(1, 2), F(1, 8))))
    assert not verify_witness(UNIFORM, heavy_left, Verdict(HOLDS, LinearWitness(1)))
    assert not verify_witness(TRAPEZOID, MIDPOINT, Verdict(FAILS))


def test_verify_witness_wants_a_strict_separation():
    # A hinge whose true gap is 0 reproduces a claimed gap of 0 exactly,
    # and is still no witness: the gap must be positive
    for a, b, s in ((TRAPEZOID, MIDPOINT, 0), (TRAPEZOID, MIDPOINT, 1), (MIDPOINT, UNIFORM, 0)):
        assert evaluate(a, s) == evaluate(b, s)
        assert not verify_witness(a, b, Verdict(FAILS, HingeWitness(F(s), F(0))))
    # On equal barycenters no linear map separates, in either direction
    assert evaluate(MIDPOINT, 0) == evaluate(UNIFORM, 0)
    for a, b in ((MIDPOINT, UNIFORM), (UNIFORM, MIDPOINT)):
        for direction in (1, -1):
            assert not verify_witness(a, b, Verdict(FAILS, LinearWitness(direction)))


# ---------------------------------------------------------------------------
# decide_lemma
# ---------------------------------------------------------------------------


def test_lemma_equality_boundary_holds():
    assert decide_lemma(MIDPOINT, UNIFORM).outcome == HOLDS


def test_lemma_three_node_instance_holds():
    rule = make_functional([(F(1, 4), F(1, 4)), (F(1, 2), F(1, 2)), (F(3, 4), F(1, 4))])
    assert decide_lemma(rule, UNIFORM).outcome == HOLDS


def test_lemma_two_near_edges_fails_at_first_sum():
    v = decide_lemma(TWO_NEAR_EDGES, UNIFORM)
    assert v.outcome == FAILS
    # A0 = 1/200 < A1 = 2/25; the first violated sum is bounded by x_2 = 1/2
    assert v.witness == HingeWitness(F(1, 2), F(2, 25) - F(1, 200))
    assert verify_witness(TWO_NEAR_EDGES, UNIFORM, v)


def test_lemma_requires_equal_means():
    heavy_left = make_functional([(0, F(1, 2)), (F(1, 2), F(1, 2))])
    with pytest.raises(MeansDiffer):
        decide_lemma(heavy_left, UNIFORM)


def test_lemma_rejects_equal_pair():
    with pytest.raises(DegenerateDifference):
        decide_lemma(SIMPSON, SIMPSON)


def test_lemma_first_positive_stretch_fails():
    v = decide_lemma(UNIFORM, MIDPOINT)
    assert v.outcome == FAILS
    assert v.witness == HingeWitness(F(1, 2), F(1, 8))


# ---------------------------------------------------------------------------
# decide facade
# ---------------------------------------------------------------------------


def test_decide_equal_pair():
    assert decide(SIMPSON, SIMPSON).outcome == EQUAL
    rearranged = make_functional(
        [(1, F(1, 6)), (0, F(1, 12)), (0, F(1, 12)), (F(1, 2), F(2, 3))]
    )
    assert decide(SIMPSON, rearranged).outcome == EQUAL


def test_decide_trapezoid_vs_midpoint():
    v = decide(TRAPEZOID, MIDPOINT)
    assert v.outcome == FAILS
    assert v.witness == HingeWitness(F(1, 2), F(1, 4))


def test_decide_diagnose_attaches_profile_and_paths():
    v = decide(TWO_NEAR_EDGES, UNIFORM, diagnose=True)
    assert v.crossings is not None
    assert v.crossings.n == 3
    assert v.lemma_outcome == FAILS
    v = decide(MIDPOINT, UNIFORM, diagnose=True)
    assert v.lemma_outcome == HOLDS
    v = decide(SIMPSON, SIMPSON, diagnose=True)
    assert v.outcome == EQUAL and v.crossings is None


def test_decide_diagnose_builds_the_difference_once(monkeypatch):
    calls = {"difference": 0, "crossing_profile": 0}
    for name in calls:
        original = getattr(ordering, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(ordering, name, counted)
    v = decide(TWO_NEAR_EDGES, UNIFORM, diagnose=True)
    assert v.lemma_outcome == v.outcome == FAILS
    assert calls == {"difference": 1, "crossing_profile": 1}


def test_decide_simpson_vs_thirds_consistent_both_paths():
    thirds = make_functional([(0, F(1, 3)), (F(1, 2), F(1, 3)), (1, F(1, 3))])
    v = decide(SIMPSON, thirds, diagnose=True)
    assert v.outcome in (HOLDS, FAILS)
    assert v.lemma_outcome == v.outcome


@given(seeds)
def test_antisymmetry(seed):
    rng = random.Random(seed)
    a, b = equal_mean_pair(rng)
    both = decide(a, b).holds and decide(b, a).holds
    assert both == difference(a, b).is_zero()


@given(seeds)
def test_fails_verdicts_carry_sound_witnesses(seed):
    rng = random.Random(seed)
    a, b = rand_functional(rng), rand_functional(rng)
    v = decide(a, b)
    assert verify_witness(a, b, v)


# ---------------------------------------------------------------------------
# The integer core against the Fraction reference
# ---------------------------------------------------------------------------

# pairs drawn per family; uniform-only, endpoint-atoms and equal add a few
# fixed pairs on top
ENGINE_PAIR_COUNTS = {
    "random": 500,
    "equal-mean": 500,
    **{name: 200 for name in _SAMPLERS},
    "uniform-only": 100,
    "endpoint-atoms": 100,
    "coprime": 8,
    "coprime-spread": 16,
    "coprime-spread-60": 2,
    "shared-positions": 200,
    "equal": 50,
}

# A vertex of G (B has a uniform part, A none, so the slope is negative)
# ties the maximum at a breakpoint: the breakpoint 7/32 comes first and
# wins.  Reflected (t -> 1 - t, which keeps G's values), the vertex 59/96
# comes first and wins over the breakpoint 25/32.
TIE_A = make_functional([(0, F(69, 256)), (F(1, 4), F(1, 6)), (F(5, 8), F(1, 12)), (1, F(123, 256))])
TIE_B = make_functional([(F(7, 32), F(7, 24)), (F(31, 32), F(1, 3))], F(3, 8))


def _reflected(f):
    return make_functional([(1 - x.position, x.weight) for x in f.atoms], f.uniform_weight)


def test_max_g_breaks_a_vertex_breakpoint_tie_toward_the_smaller_s():
    d, ref = difference(TIE_A, TIE_B), reference_difference(TIE_A, TIE_B)
    assert d_slope(d) < 0
    assert d.max_g() == (F(7, 32), F(819, 16384)) == ref.max_g()
    assert ref.g(F(37, 96)) == F(819, 16384)  # the vertex
    a, b = _reflected(TIE_A), _reflected(TIE_B)
    d = difference(a, b)
    assert d.max_g() == (F(59, 96), F(819, 16384)) == reference_difference(a, b).max_g()
    assert d.cumulative[d.breakpoints.index(F(25, 32))] == F(819, 16384)  # the breakpoint
    for a, b in ((TIE_A, TIE_B), (a, b)):
        assert decide(a, b, diagnose=True) == reference_decide(a, b, diagnose=True)


def test_decide_forms_fractions_only_for_a_hinge_witness(monkeypatch):
    # The verdict reads the signs of G(1) and max G from the walk's ints:
    # max G's denominator best_den is 1 or a vertex's -slope_w, positive
    # because D falls through 0 there, so best <= 0 means max G <= 0.
    # Only a hinge witness's s* and G(s*) become Fractions.
    fractions = []
    fraction = ordering.Fraction

    def counted_fraction(*args):
        fractions.append(args)
        return fraction(*args)

    counts = dict.fromkeys(["random", "equal-mean", "uniform-only", "equal", *_SAMPLERS], 40)
    counts["coprime-spread-60"] = 4
    pairs = [(TIE_A, TIE_B), (_reflected(TIE_A), _reflected(TIE_B))]
    for family, count in counts.items():
        pairs += pair_family(random.Random(f"fractions-{family}"), family, count)
    monkeypatch.setattr(ordering, "Fraction", counted_fraction)
    dens, kinds = set(), set()
    for a, b in pairs:
        d = difference(a, b)
        assert d._peak[2] > 0
        dens.add(d._peak[2] == 1)
        fractions.clear()
        verdict = decide(a, b)
        assert verdict == reference_decide(a, b)
        hinge = isinstance(verdict.witness, HingeWitness)
        assert len(fractions) == (2 if hinge else 0)
        kinds.add(type(verdict.witness).__name__ if verdict.witness else verdict.outcome)
    # every verdict kind, and maxima both at a breakpoint and at a vertex
    assert kinds == {HOLDS, EQUAL, "LinearWitness", "HingeWitness"}
    assert dens == {True, False}


def _peak_matches_the_reference(a, b):
    d, ref = difference(a, b), reference_difference(a, b)
    assert (d.max_g(), d.g_end()) == (ref.max_g(), ref.g_end())
    return d.max_g(), d.g_end()


def test_max_g_keeps_the_start_of_a_zero_stretch_after_the_peak():
    # D = 1/2 on [1/8, 1/4), 0 on [1/4, 3/4), -1/2 on [3/4, 7/8): G is 1/16
    # all over [1/4, 3/4], and the smallest s wins
    a = make_functional([(F(1, 8), F(1, 2)), (F(7, 8), F(1, 2))])
    b = make_functional([(F(1, 4), F(1, 2)), (F(3, 4), F(1, 2))])
    assert _peak_matches_the_reference(a, b) == ((F(1, 4), F(1, 16)), 0)
    assert decide(a, b) == Verdict(FAILS, HingeWitness(F(1, 4), F(1, 16)))


def test_max_g_at_a_vertex_that_falls_on_a_breakpoint():
    # D = 1/4 - t/2 on [0, 1/2) reaches 0 just before the atom of B at 1/2
    a = make_functional([(0, F(1, 4)), (F(2, 3), F(3, 4))])
    b = make_functional([(F(1, 2), F(1, 2))], F(1, 2))
    assert _peak_matches_the_reference(a, b) == ((F(1, 2), F(1, 16)), 0)
    # D = 1/2 - t reaches 0 at 1/2, jumps to 1/4 and falls to 0 at the
    # vertex 3/4, the maximum; then G(1) = 1/8
    a = make_functional([(0, F(1, 2)), (F(1, 2), F(1, 4)), (1, F(1, 4))])
    assert _peak_matches_the_reference(a, UNIFORM) == ((F(3, 4), F(5, 32)), F(1, 8))


def test_max_g_at_one_when_g_end_is_positive():
    assert _peak_matches_the_reference(UNIFORM, UNIT_AT_ONE) == ((1, F(1, 2)), F(1, 2))
    a = make_functional([(F(1, 3), F(1, 2)), (F(1, 2), F(1, 2))])
    b = make_functional([(F(1, 2), F(1, 2)), (1, F(1, 2))])
    assert _peak_matches_the_reference(a, b) == ((1, F(1, 3)), F(1, 3))


def test_max_g_is_zero_at_zero_when_g_never_rises_above_zero():
    unit_at_zero = make_functional([(0, 1)])
    for a, b in ((MIDPOINT, UNIFORM), (UNIFORM, TRAPEZOID), (UNIT_AT_ONE, unit_at_zero)):
        (s_star, g_max), _ = _peak_matches_the_reference(a, b)
        assert (s_star, g_max) == (0, 0)


def test_plain_decide_walks_only_the_candidates(monkeypatch):
    def crossing_walk(*args):
        raise AssertionError("the crossing walk is for the diagnose path")

    monkeypatch.setattr(ordering, "crossing_profile", crossing_walk)
    monkeypatch.setattr(ordering.DiffFunction, "cumulative", property(crossing_walk))
    for a, b in [(TWO_NEAR_EDGES, UNIFORM), *pair_family(random.Random(5), "coprime-spread", 2)]:
        assert decide(a, b) == reference_decide(a, b)


def _outcome(call, *args):
    """call(*args), or the type and message of the OrderingError it raises."""
    try:
        return call(*args)
    except OrderingError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("family", sorted(ENGINE_PAIR_COUNTS))
def test_integer_core_matches_the_fraction_reference(family):
    rng = random.Random(f"engine-{family}")
    for a, b in pair_family(rng, family, ENGINE_PAIR_COUNTS[family]):
        d, ref = difference(a, b), reference_difference(a, b)
        assert (d.breakpoints, d_values(d), d_slope(d), d.cumulative) == (
            ref.breakpoints, ref.values, ref.slope, ref.cumulative
        )
        assert (d.is_zero(), d.g_end()) == (ref.is_zero(), ref.g_end())
        assert d.max_g() == ref.max_g()
        assert _outcome(crossing_profile, d) == _outcome(reference_crossing_profile, ref)
        want = reference_decide(a, b, diagnose=True)
        assert decide(a, b, diagnose=True) == want
        assert decide(a, b) == replace(want, crossings=None, lemma_outcome=None)
        assert _outcome(decide_lemma, a, b) == _outcome(reference_decide_lemma, a, b)


# ---------------------------------------------------------------------------
# The crossing walk with T on either side of max_g's 64-bit cut
# ---------------------------------------------------------------------------

# Six increasing positions near i / 7: T is 7, 2^63 (64 bits, the last
# size at which max_g adds moments directly), 2^64, and a product of
# primes near 10^5
CUT_GRIDS = {
    "sevenths": [F(i, 7) for i in range(1, 7)],
    "2^63": [F(2**63 * i // 7 | 1, 2**63) for i in range(1, 7)],
    "2^64": [F(2**64 * i // 7 | 1, 2**64) for i in range(1, 7)],
    "primes": [F(p * i // 7, p) for i, p in zip(range(1, 7), first_primes_above(10**5, 6))],
}


def _cut_pairs(x):
    """D = 1/4, -1/4, 1/4, -1/4 between x0 .. x4 (crossings at three
    consecutive breakpoints), and D = 1/2, 0, -1/2 between x0, x1, x4, x5
    (a crossing after a zero stretch); each also with a uniform part on
    either side (a slope of either sign), and every pair both ways round."""
    alternating = (
        make_functional([(x[0], F(1, 4)), (x[2], F(1, 2)), (x[4], F(1, 4))]),
        make_functional([(x[1], F(1, 2)), (x[3], F(1, 2))]),
    )
    gap = (
        make_functional([(x[0], F(1, 2)), (x[5], F(1, 2))]),
        make_functional([(x[1], F(1, 2)), (x[4], F(1, 2))]),
    )
    half = F(1, 2)
    for a, b in (alternating, gap):
        for pair in ((a, b), (mix(a, UNIFORM, half), b), (a, mix(b, UNIFORM, half))):
            yield pair
            yield pair[::-1]


CUT_PAIRS = [pair for x in CUT_GRIDS.values() for pair in _cut_pairs(x)]


@pytest.mark.parametrize("grid", sorted(CUT_GRIDS))
def test_crossing_walk_matches_the_reference_on_either_side_of_the_cut(grid):
    seen = set()
    for a, b in _cut_pairs(CUT_GRIDS[grid]):
        d, ref = difference(a, b), reference_difference(a, b)
        assert (d.t_scale.bit_length() <= 64) == (grid in ("sevenths", "2^63"))
        profile = crossing_profile(d)
        assert profile == reference_crossing_profile(ref)
        assert decide(a, b, diagnose=True) == reference_decide(a, b, diagnose=True)
        at = [d.breakpoints.index(x) for x in profile.crossing_points if x in d.breakpoints]
        seen.add(("slope", (d.slope_w > 0) - (d.slope_w < 0)))
        seen.add(("root", len(at) < profile.n))
        seen.add(("consecutive", any(j == i + 1 for i, j in zip(at, at[1:]))))
        seen.add(("zero stretch", not d.slope_w and 0 in d_values(d)[1 : at[-1]]))
    assert seen >= {
        ("slope", 1), ("slope", -1), ("root", True), ("consecutive", True), ("zero stretch", True)
    }


def test_crossing_walk_matches_the_reference_on_coprime_pairs():
    for a, b in CUT_PAIRS + pair_family(random.Random(14), "coprime", 2):
        d = difference(a, b)
        assert crossing_profile(d) == reference_crossing_profile(reference_difference(a, b))
    for a, b in pair_family(random.Random(14), "coprime-spread", 4):
        assert decide_lemma(a, b) == reference_decide_lemma(a, b)


def test_past_the_cut_the_2_64_grid_matches_the_reference():
    # The grid's first pair, built again from unsorted atoms with one
    # position given twice
    x = CUT_GRIDS["2^64"]
    raw_a = [(x[4], F(1, 4)), (x[0], F(1, 8)), (x[2], F(1, 2)), (x[0], F(1, 8))]
    raw_b = [(x[3], F(1, 2)), (x[1], F(1, 2))]
    assert (make_functional(raw_a), make_functional(raw_b)) == next(_cut_pairs(x))
    for raw in (raw_a, raw_b):
        f = make_functional(raw)
        assert (f.atoms, f.uniform_weight) == reference_make_functional(raw)
    for a, b in _cut_pairs(x):
        d, ref = difference(a, b), reference_difference(a, b)
        assert d.short_points is None
        assert (d.breakpoints, d_values(d), d_slope(d), d.cumulative) == (
            ref.breakpoints, ref.values, ref.slope, ref.cumulative
        )
        assert (d.g_end(), d.max_g()) == (ref.g_end(), ref.max_g())


def test_past_the_cut_the_walks_scale_no_breakpoint_to_t(monkeypatch):
    def scaled(*args):
        raise AssertionError("a breakpoint over T was read")

    monkeypatch.setattr(ordering.DiffFunction, "cumulative", property(scaled))
    rng = random.Random(16)
    pairs = CUT_PAIRS + pair_family(rng, "coprime", 2) + pair_family(rng, "coprime-spread", 4)
    pairs = [(a, b) for a, b in pairs if difference(a, b).short_points is None]
    assert len(pairs) == 30  # the 2^64 and primes grids, and every coprime pair
    for a, b in pairs:
        assert decide(a, b) == reference_decide(a, b)
        want = reference_crossing_profile(reference_difference(a, b))
        assert crossing_profile(difference(a, b)) == want


def test_below_the_cut_the_walks_sum_no_moment_pairs(monkeypatch):
    def summed(pairs):
        raise AssertionError("moments were summed pairwise below the cut")

    monkeypatch.setattr(ordering, "_sum_pairs", summed)
    rng = random.Random(17)
    pairs = [pair for grid in ("sevenths", "2^63") for pair in _cut_pairs(CUT_GRIDS[grid])]
    pairs += pair_family(rng, "random", 40) + pair_family(rng, "equal-mean", 40)
    for a, b in pairs:
        assert difference(a, b).short_points is not None
        assert decide(a, b, diagnose=True) == reference_decide(a, b, diagnose=True)


def test_crossing_walk_forms_g_only_at_crossings_and_at_one(monkeypatch):
    formed = []
    level = ordering.DiffFunction._level

    def counted(self, p, g):
        formed.append(p)
        return level(self, p, g)

    monkeypatch.setattr(ordering.DiffFunction, "_level", counted)
    rng = random.Random(14)
    pairs = list(CUT_PAIRS)
    for family in ("random", "equal-mean", "coprime", "coprime-spread"):
        pairs += pair_family(rng, family, 20 if family in ("random", "equal-mean") else 2)
    for a, b in pairs:
        d = difference(a, b)
        if d.is_zero():
            continue
        formed.clear()
        profile = crossing_profile(d)
        assert 1 <= len(formed) <= profile.n + 1
        assert "_peak" not in d.__dict__  # the cross-check never reads max_g's walk


# ---------------------------------------------------------------------------
# Past the cut, a floor sum settles G(1)'s sign before the walk
# ---------------------------------------------------------------------------


def _moved(f, delta):
    """f with its heaviest atom moved toward 1/2 by delta / weight, so that
    its barycenter moves by exactly delta, one way or the other."""
    atoms = [(atom.position, atom.weight) for atom in f.atoms]
    i = max(range(len(atoms)), key=lambda k: atoms[k][1])
    t, w = atoms[i]
    atoms[i] = (t + delta / w if t < F(1, 2) else t - delta / w, w)
    return make_functional(atoms, f.uniform_weight)


@pytest.mark.parametrize("bits", [10, 60, 70, 200])
def test_past_the_cut_the_floor_sum_settles_g_end_only_when_it_can(bits):
    # |G(1)| = 2^-bits: the sum settles every |G(1)| >= 2^-64, and 2^-200
    # is left to the walk, which still names the direction
    delta = F(1, 2**bits)
    signs = set()
    for a, b in pair_family(random.Random(bits), "coprime-spread", 3):
        for x, y in ((_moved(a, delta), b), (a, _moved(b, delta))):
            for pair in ((x, y), (y, x)):
                d = difference(*pair)
                g_end = reference_difference(*pair).g_end()
                assert d.short_points is None and abs(g_end) == delta
                direction = d._linear_direction()
                if bits <= 64:
                    assert direction == (1 if g_end < 0 else -1)
                    assert "_peak" not in d.__dict__
                elif bits == 200:
                    assert direction == 0
                assert decide(*pair) == reference_decide(*pair)
                signs.add(g_end > 0)
    assert signs == {True, False}


def test_past_the_cut_equal_barycenters_always_walk():
    # Positions over 2^70.  In the first pair every floor is exact and the
    # sum is 0: only total >= 1, not >= 0, defers.  A filler of 64 shared
    # atoms (zero jumps) makes k = 71, so the atom 1/2 at x floors exactly.
    # In the second, A = delta_x and B spreads it onto 0 and 1, each of the
    # two floors is off by a half and the sum is -1 = 1 - count: only
    # total <= -count, not <= 1 - count, defers.
    x = F(2**69 + 1, 2**70)
    filler = [(F(2 * j - 1, 256), F(1, 128)) for j in range(1, 65)]
    exact = (
        make_functional([(x, F(1, 2)), *filler]),
        make_functional([(F(0), (1 - x) / 2), (F(1), x / 2), *filler]),
    )
    halves = (make_functional([(x, F(1))]), make_functional([(F(0), 1 - x), (F(1), x)]))
    pairs = [exact, halves]
    pairs += pair_family(random.Random(19), "coprime-spread", 6)
    outcomes = set()
    for a, b in pairs + [pair[::-1] for pair in pairs]:
        d = difference(a, b)
        assert d.short_points is None and reference_difference(a, b).g_end() == 0
        assert d._linear_direction() == 0
        assert decide(a, b, diagnose=True) == reference_decide(a, b, diagnose=True)
        outcomes.add(decide(a, b).outcome)
    assert outcomes == {HOLDS, FAILS}


def test_below_the_cut_there_is_no_floor_sum_and_no_quotient_table(monkeypatch):
    def floored(self):
        raise AssertionError("the floor sum ran below the cut")

    monkeypatch.setattr(ordering.DiffFunction, "_linear_direction", floored)
    rng = random.Random(20)
    pairs = [pair for grid in ("sevenths", "2^63") for pair in _cut_pairs(CUT_GRIDS[grid])]
    pairs += pair_family(rng, "random", 40) + pair_family(rng, "equal-mean", 40)
    for a, b in pairs:
        d = difference(a, b)
        assert d.short_points is not None
        assert ordering._cumulative_verdict(d) == reference_decide(a, b)
        if not d.is_zero():
            crossing_profile(d)
        assert "_quotients" not in d.__dict__
