"""Exact decision engine for convex-order inequalities between quadrature
functionals on [0, 1], with closed-form case checkers for three classic
parametric families and an independent hinge-grid oracle."""

from .functionals import (
    Atom,
    DomainError,
    Functional,
    FunctionalError,
    Hinge,
    Linear,
    MIDPOINT,
    MassError,
    NegativeWeightError,
    PRESETS,
    SIMPSON,
    TRAPEZOID,
    UNIFORM,
    UnsupportedTestFunction,
    as_fraction,
    barycenter,
    evaluate,
    from_paper_convention,
    functional_from_json,
    functional_to_json,
    make_functional,
)
from .oracle import OracleReport, oracle_decide, refine_grid
from .ordering import (
    EQUAL,
    FAILS,
    HOLDS,
    CrossingProfile,
    DegenerateDifference,
    DiffFunction,
    HingeWitness,
    InternalDisagreement,
    LinearWitness,
    MeansDiffer,
    OrderingError,
    Verdict,
    crossing_profile,
    decide,
    decide_lemma,
    difference,
    verdict_to_json,
    verify_witness,
)
from .theorems import (
    CaseCheck,
    FourNodeUpperParams,
    ParamError,
    ThreeNodeLowerParams,
    TwoVsThreeParams,
    check_four_node_upper,
    check_params,
    check_three_node_lower,
    check_two_vs_three,
    functional_pair,
    params_from_json,
    params_to_json,
)

__version__ = "0.1.0"
