"""The public names of quadorder.

They are the union of the __all__ lists of functionals, oracle, ordering
and theorems, which quadorder/__init__.py re-exports; each name is listed
once, in its module.  The pinned list makes adding or dropping a public
name a visible change."""

from __future__ import annotations

import inspect

import quadorder
from quadorder import functionals, oracle, ordering, theorems

PUBLIC_NAMES = [
    "Atom", "CaseCheck", "CrossingProfile", "DegenerateDifference", "DiffFunction",
    "DomainError", "EQUAL", "FAILS", "FourNodeUpperParams", "Functional",
    "FunctionalError", "HOLDS", "HingeWitness", "InternalDisagreement",
    "LinearWitness", "MIDPOINT", "MassError", "MeansDiffer", "NegativeWeightError",
    "OracleReport", "OrderingError", "PRESETS", "ParamError", "Rational", "SIMPSON",
    "TRAPEZOID", "TheoremParams", "ThreeNodeLowerParams", "TwoVsThreeParams", "UNIFORM",
    "Verdict", "as_fraction",
    "check_four_node_upper", "check_params", "check_three_node_lower",
    "check_two_vs_three", "crossing_profile", "decide", "decide_lemma", "difference",
    "evaluate", "from_paper_convention", "functional_from_json", "functional_pair",
    "make_functional", "oracle_decide", "params_from_json",
    "params_to_json", "record_pair", "refine_grid", "verdict_to_json", "verify_witness",
]


def test_public_names_are_pinned():
    exported = sorted(
        name
        for name, value in vars(quadorder).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    )
    assert exported == PUBLIC_NAMES


def test_each_public_name_is_listed_once_in_its_module():
    listed = [name for m in (functionals, oracle, ordering, theorems) for name in m.__all__]
    assert sorted(listed) == PUBLIC_NAMES
    for module in (functionals, oracle, ordering, theorems):
        for name in module.__all__:
            assert getattr(quadorder, name) is getattr(module, name)
