"""Closed-form case checkers against the generic decider."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from quadorder import (
    FourNodeUpperParams,
    ParamError,
    ThreeNodeLowerParams,
    TwoVsThreeParams,
    UNIFORM,
    check_four_node_upper,
    check_params,
    check_three_node_lower,
    check_two_vs_three,
    crossing_profile,
    decide,
    difference,
    evaluate,
    functional_pair,
    params_from_json,
    params_to_json,
)
from quadorder import cli, theorems
from quadorder.cli import _SAMPLERS, run_agreement
from helpers import REFERENCE_SAMPLERS


# ---------------------------------------------------------------------------
# three interior nodes below the integral mean
# ---------------------------------------------------------------------------


def test_three_node_first_case_fires():
    r = check_three_node_lower(
        ThreeNodeLowerParams(F(1, 4), F(1, 2), F(1, 4), F(3, 4), F(1, 2), F(1, 4))
    )
    assert (r.holds, r.mean_ok, r.case) == (True, True, "i")


def test_three_node_wide_symmetric_fails():
    r = check_three_node_lower(
        ThreeNodeLowerParams(F(3, 10), F(2, 5), F(3, 10), F(9, 10), F(1, 2), F(1, 10))
    )
    assert (r.holds, r.mean_ok, r.case) == (False, True, None)


def test_three_node_boundary_holds():
    r = check_three_node_lower(
        ThreeNodeLowerParams(F(1, 3), F(1, 3), F(1, 3), F(5, 6), F(1, 2), F(1, 6))
    )
    assert r.holds and r.mean_ok


def test_three_node_mean_violation_reported():
    r = check_three_node_lower(
        ThreeNodeLowerParams(F(1, 4), F(1, 2), F(1, 4), F(4, 5), F(1, 2), F(1, 4))
    )
    assert not r.mean_ok and not r.holds


def test_three_node_rejects_degenerate_params():
    with pytest.raises(ParamError):
        ThreeNodeLowerParams(F(1, 2), F(1, 4), F(1, 4), 1, F(1, 2), F(1, 4))
    with pytest.raises(ParamError):
        ThreeNodeLowerParams(F(1, 2), F(1, 4), F(1, 4), F(1, 2), F(1, 2), F(1, 4))
    with pytest.raises(ParamError):
        ThreeNodeLowerParams(F(1, 2), F(1, 4), F(1, 2), F(3, 4), F(1, 2), F(1, 4))


def test_node_order_ties_are_refused():
    # Equal nodes are refused and nodes a hair apart are not, so each
    # strict node-order check is pinned on both sides
    hair = F(1, 10**9)
    three = (F(1, 4), F(1, 2), F(1, 4), F(3, 4), F(1, 2))  # all but alpha3
    ThreeNodeLowerParams(*three, F(1, 2) - hair)
    with pytest.raises(ParamError) as caught:
        ThreeNodeLowerParams(*three, F(1, 2))
    assert str(caught.value) == "need alpha1 > alpha2 > alpha3"
    right = (F(1, 2), F(1, 6), F(2, 3), F(1, 6))  # beta, b1, b2, b3
    TwoVsThreeParams(F(1, 2), F(1, 2) + hair, F(1, 2), *right)
    with pytest.raises(ParamError) as caught:
        TwoVsThreeParams(F(1, 2), F(1, 2), F(1, 2), *right)
    assert str(caught.value) == "need alpha1 > alpha2 (distinct left-side nodes)"


def test_param_records_report_the_first_bad_field():
    # Fields are read in declaration order, each coerced and then checked
    # against (0, 1), before the sum and ordering checks.
    q, h, out = F(1, 4), F(1, 2), "must lie strictly inside (0, 1)"
    left = (h, F(3, 5), F(2, 5))  # a, alpha1, alpha2 of a valid two-vs-three record
    cases = [
        (ThreeNodeLowerParams, (h, q, q, 1, h, q), f"alpha1 = 1 {out}"),
        (ThreeNodeLowerParams, (h, 0, q, q, h, 2), f"a2 = 0 {out}"),
        (ThreeNodeLowerParams, ("x", 0, q, q, h, q),
         "cannot parse rational 'x': Invalid literal for Fraction: 'x'"),
        (ThreeNodeLowerParams, (h, q, h, F(3, 4), h, 5), f"alpha3 = 5 {out}"),
        (ThreeNodeLowerParams, (h, q, h, F(3, 4), h, q), "weights a1 + a2 + a3 must equal 1"),
        (ThreeNodeLowerParams, (h, q, q, h, h, q), "need alpha1 > alpha2 > alpha3"),
        (FourNodeUpperParams, (q, q, q, 0, h, q), f"a4 = 0 {out}"),
        (FourNodeUpperParams, (q, q, q, h, h, q), "weights a1 + a2 + a3 + a4 must equal 1"),
        (FourNodeUpperParams, (q, q, q, q, q, h), "need 1 > alpha2 > alpha3 > 0"),
        (TwoVsThreeParams, (*left, 0.5, q, h, q),
         "not an exact rational: 0.5 (floats are rejected; use 'p/q' strings)"),
        (TwoVsThreeParams, (*left, h, q, h, 1), f"b3 = 1 {out}"),
        (TwoVsThreeParams, (*left, h, q, h, h), "weights b1 + b2 + b3 must equal 1"),
        (TwoVsThreeParams, (h, F(2, 5), F(3, 5), h, q, h, q),
         "need alpha1 > alpha2 (distinct left-side nodes)"),
        (ThreeNodeLowerParams, (h, F(-1, 3), q, h, h, q), f"a2 = -1/3 {out}"),
        (FourNodeUpperParams, (q, q, q, q, "4/3", q), f"alpha2 = 4/3 {out}"),
        (TwoVsThreeParams, (*left, "1", q, h, q), f"beta = 1 {out}"),
    ]
    for record, args, message in cases:
        with pytest.raises(ValueError) as caught:  # ParamError, or FunctionalError from as_fraction
            record(*args)
        assert str(caught.value) == message, (record.__name__, args)


# ---------------------------------------------------------------------------
# four nodes with both endpoints above the integral mean
# ---------------------------------------------------------------------------


def test_four_node_quarter_points_hold():
    r = check_four_node_upper(
        FourNodeUpperParams(F(1, 4), F(1, 4), F(1, 4), F(1, 4), F(3, 4), F(1, 4))
    )
    assert r.holds and r.mean_ok and r.case == "iii"


def test_four_node_boundary_holds():
    r = check_four_node_upper(
        FourNodeUpperParams(F(1, 10), F(2, 5), F(2, 5), F(1, 10), F(4, 5), F(1, 5))
    )
    assert r.holds and r.mean_ok


def test_four_node_below_boundary_fails():
    r = check_four_node_upper(
        FourNodeUpperParams(F(1, 20), F(9, 20), F(9, 20), F(1, 20), F(4, 5), F(1, 5))
    )
    assert (r.holds, r.mean_ok, r.case) == (False, True, None)


# ---------------------------------------------------------------------------
# two nodes vs three nodes
# ---------------------------------------------------------------------------


def test_two_vs_three_simpson_boundary():
    r = check_two_vs_three(
        TwoVsThreeParams(F(1, 2), F(2, 3), F(1, 3), F(1, 2), F(1, 6), F(2, 3), F(1, 6))
    )
    assert r.holds and r.case == "iv"


def test_two_vs_three_thirds_boundary():
    r = check_two_vs_three(
        TwoVsThreeParams(F(1, 2), F(5, 6), F(1, 6), F(1, 2), F(1, 3), F(1, 3), F(1, 3))
    )
    assert r.holds and r.case == "iv"


def test_two_vs_three_wide_fails():
    r = check_two_vs_three(
        TwoVsThreeParams(F(1, 2), F(9, 10), F(1, 10), F(1, 2), F(1, 6), F(2, 3), F(1, 6))
    )
    assert (r.holds, r.mean_ok, r.case) == (False, True, None)


# ---------------------------------------------------------------------------
# functional_pair
# ---------------------------------------------------------------------------


def test_pair_three_node_lower():
    rule, mean = functional_pair(
        ThreeNodeLowerParams(F(1, 4), F(1, 2), F(1, 4), F(3, 4), F(1, 2), F(1, 4))
    )
    assert [x.position for x in rule.atoms] == [F(1, 4), F(1, 2), F(3, 4)]
    assert mean == UNIFORM


def test_pair_four_node_upper_includes_endpoints():
    mean, rule = functional_pair(
        FourNodeUpperParams(F(1, 4), F(1, 4), F(1, 4), F(1, 4), F(3, 4), F(1, 4))
    )
    assert mean == UNIFORM
    assert [x.position for x in rule.atoms] == [F(0), F(1, 4), F(3, 4), F(1)]


def test_pair_two_vs_three_simpson_shape():
    two, three = functional_pair(
        TwoVsThreeParams(F(1, 2), F(2, 3), F(1, 3), F(1, 2), F(1, 6), F(2, 3), F(1, 6))
    )
    assert [x.position for x in two.atoms] == [F(1, 3), F(2, 3)]
    assert [a.weight for a in three.atoms] == [F(1, 6), F(2, 3), F(1, 6)]


@pytest.mark.parametrize("theorem", sorted(_SAMPLERS))
def test_samplers_draw_the_fraction_reference_stream(theorem):
    # The int-pair samplers make the reference's rng calls in its order,
    # so a seed draws the same tuples and leaves the same state.
    for seed in range(200):
        rng, reference_rng = random.Random(seed), random.Random(seed)
        for _ in range(50):
            assert _SAMPLERS[theorem](rng) == REFERENCE_SAMPLERS[theorem](reference_rng), seed
            assert rng.getstate() == reference_rng.getstate(), seed


def test_cli_reads_the_samplers_from_the_theorem_table():
    assert cli._SAMPLERS is theorems._SAMPLERS
    assert cli.THEOREM_IDS == tuple(name for name, *_ in theorems._FAMILIES.values())


def test_mean_ok_iff_barycenters_match():
    rng = random.Random(5)
    for name, sampler in _SAMPLERS.items():
        from quadorder import check_params

        for _ in range(60):
            params = sampler(rng)
            a, b = functional_pair(params)
            assert check_params(params).mean_ok == (evaluate(a, 0) == evaluate(b, 0))


# ---------------------------------------------------------------------------
# transcription agreement and case-label soundness
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("theorem", ["three-node-lower", "four-node-upper", "two-vs-three"])
def test_checker_decider_oracle_agree(theorem):
    summary = run_agreement(theorem, samples=1500, seed=20240817)
    assert summary.disagreements == []


def test_deterministic_grid_agreement():
    # A lattice sweep of the three-node family, case boundaries included.
    grid = [F(k, 12) for k in range(1, 12)]
    checked = 0
    for alpha1 in grid:
        for alpha3 in grid:
            if not alpha3 < alpha1:
                continue
            for a1 in grid:
                # solve the barycenter condition for a2
                num = F(1, 2) - a1 * (1 - alpha1) - (1 - a1) * (1 - alpha3)
                for alpha2 in grid:
                    if not alpha3 < alpha2 < alpha1:
                        continue
                    a2 = num / (alpha3 - alpha2)
                    a3 = 1 - a1 - a2
                    if not (0 < a2 < 1 and 0 < a3 < 1):
                        continue
                    p = ThreeNodeLowerParams(a1, a2, a3, alpha1, alpha2, alpha3)
                    rule, mean = functional_pair(p)
                    assert check_three_node_lower(p).holds == decide(rule, mean).holds
                    checked += 1
    assert checked > 300


def test_case_iv_of_two_vs_three_crosses_three_times():
    # In the proof geometry (alpha2 < beta < alpha1) case iv means the
    # distribution functions cross exactly at 1-alpha1, 1-beta, 1-alpha2.
    rng = random.Random(99)
    sampler = _SAMPLERS["two-vs-three"]
    seen = 0
    while seen < 40:
        p = sampler(rng)
        check = check_two_vs_three(p)
        if check.case != "iv" or not p.beta < p.alpha1:
            continue
        two, three = functional_pair(p)
        profile = crossing_profile(difference(two, three))
        assert profile.n == 3
        assert profile.crossing_points == (1 - p.alpha1, 1 - p.beta, 1 - p.alpha2)
        seen += 1


def test_three_node_symmetric_threshold_is_two_minus_two_alpha():
    for alpha in (F(11, 20), F(3, 5), F(4, 5), F(9, 10)):
        boundary = 2 - 2 * alpha
        for a, expected in ((boundary, True), (boundary + F(1, 120), False)):
            if not 0 < a < F(1, 2):
                continue
            p = ThreeNodeLowerParams(a, 1 - 2 * a, a, alpha, F(1, 2), 1 - alpha)
            assert check_three_node_lower(p).holds is expected
            rule, mean = functional_pair(p)
            assert decide(rule, mean).holds is expected


def test_four_node_symmetric_threshold_is_half_one_minus_alpha():
    for alpha in (F(3, 5), F(7, 10), F(4, 5), F(9, 10)):
        boundary = (1 - alpha) / 2
        for a, expected in ((boundary, True), (boundary - F(1, 120), False)):
            p = FourNodeUpperParams(a, F(1, 2) - a, F(1, 2) - a, a, alpha, 1 - alpha)
            assert check_four_node_upper(p).holds is expected
            mean, rule = functional_pair(p)
            assert decide(mean, rule).holds is expected


def test_two_vs_three_alpha_thresholds():
    for weights, boundary in (
        ((F(1, 3), F(1, 3), F(1, 3)), F(5, 6)),
        ((F(1, 6), F(2, 3), F(1, 6)), F(2, 3)),
    ):
        for alpha, expected in ((boundary, True), (boundary + F(1, 120), False)):
            p = TwoVsThreeParams(F(1, 2), alpha, 1 - alpha, F(1, 2), *weights)
            assert check_two_vs_three(p).holds is expected
            two, three = functional_pair(p)
            assert decide(two, three).holds is expected


# ---------------------------------------------------------------------------
# JSON form of parameter records
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("theorem", sorted(_SAMPLERS))
def test_params_json_round_trip(theorem):
    rng = random.Random(7)
    for _ in range(200):
        q = _SAMPLERS[theorem](rng)
        assert params_from_json(params_to_json(q)) == q


def test_params_from_json_rejects_what_is_not_a_record():
    q = TwoVsThreeParams(F(1, 2), F(3, 5), F(2, 5), F(1, 2), F(1, 6), F(2, 3), F(1, 6))
    good = params_to_json(q)
    for bad in (
        dict(good, family="no-such-theorem"),
        {k: v for k, v in good.items() if k != "b3"},
        dict(good, extra="1"),
        dict(good, b3="1/3"),  # weights no longer sum to 1
    ):
        with pytest.raises(ParamError):
            params_from_json(bad)


@pytest.mark.parametrize("call", [check_params, functional_pair, params_to_json])
def test_a_non_record_is_a_type_error(call):
    for bad in (None, {"family": "two-vs-three"}, UNIFORM):
        with pytest.raises(TypeError, match="unknown parameter record"):
            call(bad)
