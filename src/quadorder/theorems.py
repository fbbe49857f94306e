"""Closed-form case checkers for three parametric families of comparisons.

Each checker answers the same question as the generic decider -- does the
comparison hold for every convex function on [0, 1]? -- but through an
explicit case list over the parameters instead of computing anything.
The three families, each with its `agree` sampler (see `_FAMILIES`):

* three interior nodes vs. the integral mean (rule below the mean),
* four nodes including both endpoints vs. the integral mean (rule above),
* a two-node rule vs. a three-node rule with both endpoints (no mean).

The case lists are transcribed verbatim, mixing strict and non-strict
inequalities exactly as stated; `holds` is the disjunction over all
cases (plus the barycenter condition), and the reported case label is
the first satisfied one, for diagnostics only.  Parameters must sit in
the open intervals the case analysis assumes; degenerate values are
rejected here but remain decidable through the generic path.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, NamedTuple, Optional, Union

from .functionals import (
    Functional,
    HALF,
    ONE,
    UNIFORM,
    _sum_pairs,
    as_fraction,
    from_paper_convention,
)

__all__ = [
    "ParamError",
    "CaseCheck",
    "ThreeNodeLowerParams",
    "FourNodeUpperParams",
    "TwoVsThreeParams",
    "TheoremParams",
    "check_three_node_lower",
    "check_four_node_upper",
    "check_two_vs_three",
    "check_params",
    "functional_pair",
    "record_pair",
    "params_to_json",
    "params_from_json",
]


class ParamError(ValueError):
    """Parameters violate the family's hypotheses (open intervals, ordering, mass)."""


def _read_open01(params: object) -> None:
    """Coerce each field of a parameter record to a Fraction, in field
    order, and check that it lies strictly inside (0, 1)."""
    for name in params.__dataclass_fields__:
        value = as_fraction(getattr(params, name))
        if not 0 < value.numerator < value.denominator:
            raise ParamError(f"{name} = {value} must lie strictly inside (0, 1)")
        object.__setattr__(params, name, value)


def _sums_to_one(*weights: Fraction) -> bool:
    total, scale = _sum_pairs([(w.numerator, w.denominator) for w in weights])
    return total == scale


@dataclass(frozen=True)
class CaseCheck:
    """Outcome of a closed-form check.

    holds:   barycenter condition and at least one case satisfied.
    mean_ok: the barycenter condition alone.
    case:    first satisfied case label in statement order, or None.
    """

    holds: bool
    mean_ok: bool
    case: Optional[str]


@dataclass(frozen=True)
class ThreeNodeLowerParams:
    """sum a_i f(alpha_i x + (1-alpha_i) y) <= integral mean, three interior
    nodes with alpha1 > alpha2 > alpha3."""

    a1: Fraction
    a2: Fraction
    a3: Fraction
    alpha1: Fraction
    alpha2: Fraction
    alpha3: Fraction

    def __post_init__(self) -> None:
        _read_open01(self)
        if not _sums_to_one(self.a1, self.a2, self.a3):
            raise ParamError("weights a1 + a2 + a3 must equal 1")
        if not self.alpha1 > self.alpha2 > self.alpha3:
            raise ParamError("need alpha1 > alpha2 > alpha3")


@dataclass(frozen=True)
class FourNodeUpperParams:
    """sum a_i f(alpha_i x + (1-alpha_i) y) >= integral mean, four nodes
    with alpha1 = 1 and alpha4 = 0 pinned to the endpoints."""

    a1: Fraction
    a2: Fraction
    a3: Fraction
    a4: Fraction
    alpha2: Fraction
    alpha3: Fraction

    def __post_init__(self) -> None:
        _read_open01(self)
        if not _sums_to_one(self.a1, self.a2, self.a3, self.a4):
            raise ParamError("weights a1 + a2 + a3 + a4 must equal 1")
        if not self.alpha2 > self.alpha3:
            raise ParamError("need 1 > alpha2 > alpha3 > 0")


@dataclass(frozen=True)
class TwoVsThreeParams:
    """a f(alpha1 x + (1-alpha1) y) + (1-a) f(alpha2 x + (1-alpha2) y)
    <= b1 f(x) + b2 f(beta x + (1-beta) y) + b3 f(y)."""

    a: Fraction
    alpha1: Fraction
    alpha2: Fraction
    beta: Fraction
    b1: Fraction
    b2: Fraction
    b3: Fraction

    def __post_init__(self) -> None:
        _read_open01(self)
        if not _sums_to_one(self.b1, self.b2, self.b3):
            raise ParamError("weights b1 + b2 + b3 must equal 1")
        if not self.alpha1 > self.alpha2:
            raise ParamError("need alpha1 > alpha2 (distinct left-side nodes)")


TheoremParams = Union[ThreeNodeLowerParams, FourNodeUpperParams, TwoVsThreeParams]


def _checked(mean_ok: bool, cases: list[tuple[str, bool]]) -> CaseCheck:
    """The outcome of a case list, labelled by its first satisfied case."""
    case = next((label for label, satisfied in cases if satisfied), None)
    return CaseCheck(mean_ok and case is not None, mean_ok, case)


def check_three_node_lower(p: ThreeNodeLowerParams) -> CaseCheck:
    a1, a2, a3 = p.a1, p.a2, p.a3
    c1, c2, c3 = ONE - p.alpha1, ONE - p.alpha2, ONE - p.alpha3
    mean_ok = a1 * c1 + a2 * c2 + a3 * c3 == HALF
    s12 = a1 + a2
    cases = [
        ("i", a1 <= c1 and s12 >= c3),
        ("ii", a1 >= c2 and s12 >= c3),
        ("iii", a1 <= c1 and s12 <= c2),
        ("iv", a1 <= c1 and c2 < s12 < c3 and 2 * p.alpha3 >= a3),
        ("v", a1 >= c2 and s12 < c3 and 2 * p.alpha3 >= a3),
        ("vi", a1 > c1 and s12 <= c2 and c1 >= a1 / 2),
        ("vii", c1 < a1 < c2 and s12 >= c3 and c1 >= a1 / 2),
        (
            "viii",
            c1 < a1 < c2
            and c2 < s12 < c3
            and c1 >= a1 / 2
            and 2 * a1 * c1 + 2 * a2 * c2 >= s12 * s12,
        ),
    ]
    return _checked(mean_ok, cases)


def check_four_node_upper(p: FourNodeUpperParams) -> CaseCheck:
    a1, a2, a3, a4 = p.a1, p.a2, p.a3, p.a4
    c2, c3 = ONE - p.alpha2, ONE - p.alpha3
    mean_ok = a2 * c2 + a3 * c3 + a4 == HALF
    s12 = a1 + a2
    s123 = a1 + a2 + a3
    cases = [
        ("i", a1 >= c2 and s12 >= c3),
        ("ii", s12 <= c2 and s123 <= c3),
        ("iii", c2 <= a1 and c3 >= s123),
        ("iv", c2 <= a1 and s12 < c3 < s123 and p.alpha3 <= 2 * a4),
        ("v", c2 >= s12 and s123 > c3 and p.alpha3 <= 2 * a4),
        ("vi", a1 < c2 and s12 >= c3 and 2 * a1 + p.alpha2 >= 1),
        ("vii", a1 < c2 and s12 > c2 and s123 <= c3 and 2 * a1 + p.alpha2 >= 1),
        (
            "viii",
            a1 < c2 < s12
            and s12 < c3 < s123
            and 2 * a1 + p.alpha2 >= 1
            and 2 * a1 * c3 + 2 * a2 * (p.alpha2 - p.alpha3) >= c3 * c3,
        ),
    ]
    return _checked(mean_ok, cases)


def check_two_vs_three(p: TwoVsThreeParams) -> CaseCheck:
    a, b1, b2, b3 = p.a, p.b1, p.b2, p.b3
    mean_ok = b2 * (ONE - p.beta) + b3 == a * (ONE - p.alpha1) + (ONE - a) * (
        ONE - p.alpha2
    )
    cases = [
        ("i", a <= b1),
        ("ii", a >= b1 + b2),
        ("iii", p.alpha2 >= p.beta),
        (
            "iv",
            b1 < a < b1 + b2
            and p.alpha2 < p.beta
            and (ONE - p.alpha1) * b1 >= (p.alpha1 - p.beta) * (a - b1),
        ),
    ]
    return _checked(mean_ok, cases)


# Each is at least 8, so (0, 1/2), (1/2, 1) and (0, 1) hold a lattice
# point for every one: a draw from those fixed intervals is never None.
_DENOMINATORS = (8, 9, 10, 12, 16, 18, 20, 24, 30, 32, 40, 48, 60)


def _rand_pair(rng: random.Random, lo: tuple, hi: tuple) -> Optional[tuple[int, int]]:
    """A random k/den strictly inside (lo, hi) as the pair (k, den), or
    None if the drawn denominator has no lattice point there.  Bounds are
    int pairs (numerator, denominator > 0), not necessarily reduced."""
    den = rng.choice(_DENOMINATORS)
    # floor/ceil of lo*den and hi*den in integer arithmetic
    kmin = lo[0] * den // lo[1] + 1
    kmax = -((-hi[0] * den) // hi[1]) - 1
    if kmin > kmax:
        return None
    return rng.randint(kmin, kmax), den


def _smaller(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    return y if y[0] * x[1] < x[0] * y[1] else x


# The samplers solve and range-check on int pairs, each side of a test
# over one positive denominator; only an accepted tuple becomes Fractions.


def _sample_three_node_lower(rng: random.Random) -> ThreeNodeLowerParams:
    # The barycenter condition needs 1-alpha1 < 1/2 < 1-alpha3; with the
    # alphas drawn, solving it with the mass constraint pins a2 and a3 in
    # terms of a1, and a2 > 0 caps a1 below (1/2-alpha3)/(alpha1-alpha3).
    while True:
        k1, d1 = alpha1 = _rand_pair(rng, (1, 2), (1, 1))
        k3, d3 = alpha3 = _rand_pair(rng, (0, 1), (1, 2))
        alpha2 = _rand_pair(rng, alpha3, alpha1)
        if alpha2 is None:
            continue
        cap = ((d3 - 2 * k3) * d1, 2 * (k1 * d3 - k3 * d1))  # (1/2-alpha3)/(alpha1-alpha3)
        a1 = _rand_pair(rng, (0, 1), _smaller((1, 1), cap))
        if a1 is None:
            continue
        (k2, d2), (n1, m1) = alpha2, a1
        # a2 = (1/2 - a1(1-alpha1) - (1-a1)(1-alpha3)) / (alpha3-alpha2)
        # and a3 = 1 - a1 - a2, both over one denominator
        scale = 2 * m1 * d1 * (k2 * d3 - k3 * d2)
        a2 = d2 * (2 * n1 * (d1 - k1) * d3 + 2 * (m1 - n1) * (d3 - k3) * d1 - m1 * d1 * d3)
        a3 = (m1 - n1) * (scale // m1) - a2
        if 0 < a2 < scale and 0 < a3 < scale:
            fields = map(Fraction, (n1, a2, a3, k1, k2, k3), (m1, scale, scale, d1, d2, d3))
            return ThreeNodeLowerParams(*fields)


def _sample_four_node_upper(rng: random.Random) -> FourNodeUpperParams:
    # a3 = (1/2 - a1 - a2*alpha2)/alpha3 must be positive, which caps a1
    # below 1/2 and a2 below (1/2 - a1)/alpha2.
    while True:
        k2, d2 = alpha2 = _rand_pair(rng, (0, 1), (1, 1))
        alpha3 = _rand_pair(rng, (0, 1), alpha2)
        n1, m1 = _rand_pair(rng, (0, 1), (1, 2))
        if alpha3 is None:
            continue
        a2 = _rand_pair(rng, (0, 1), _smaller((m1 - n1, m1), ((m1 - 2 * n1) * d2, 2 * m1 * k2)))
        if a2 is None:
            continue
        (k3, d3), (n2, m2) = alpha3, a2
        # a3 and a4 = 1 - a1 - a2 - a3 over one denominator
        scale = 2 * m1 * m2 * d2 * k3
        a3 = (m1 * m2 * d2 - 2 * n1 * m2 * d2 - 2 * n2 * k2 * m1) * d3
        a4 = scale - 2 * d2 * k3 * (n1 * m2 + n2 * m1) - a3
        if 0 < a3 < scale and 0 < a4 < scale:
            fields = map(Fraction, (n1, n2, a3, a4, k2, k3), (m1, m2, scale, scale, d2, d3))
            return FourNodeUpperParams(*fields)


def _sample_two_vs_three(rng: random.Random) -> TwoVsThreeParams:
    # With the left side and beta drawn, the shared barycenter M pins
    # b3 = M - b2*(1-beta); b3 > 0 and b1 > 0 together cap b2 below
    # min(M/(1-beta), (1-M)/beta).
    while True:
        k1, d1 = alpha1 = _rand_pair(rng, (0, 1), (1, 1))
        alpha2 = _rand_pair(rng, (0, 1), alpha1)
        kb, db = _rand_pair(rng, (0, 1), (1, 1))
        na, ma = _rand_pair(rng, (0, 1), (1, 1))
        if alpha2 is None:
            continue
        k2, d2 = alpha2
        # M = mean / scale
        scale = ma * d1 * d2
        mean = na * (d1 - k1) * d2 + (ma - na) * (d2 - k2) * d1
        cap = _smaller((mean * db, scale * (db - kb)), ((scale - mean) * db, scale * kb))
        b2 = _rand_pair(rng, (0, 1), _smaller((1, 1), cap))
        if b2 is None:
            continue
        n2, m2 = b2
        # b3 and b1 = 1 - b2 - b3 over one denominator
        b3 = mean * m2 * db - n2 * (db - kb) * scale
        scale *= m2 * db
        b1 = scale - b3 - n2 * (scale // m2)
        if 0 < b1 < scale and 0 < b3 < scale:
            fields = (na, k1, k2, kb, b1, n2, b3), (ma, d1, d2, db, scale, m2, scale)
            return TwoVsThreeParams(*map(Fraction, *fields))


# One row per theorem in the table below, keyed by record kind
class _Row(NamedTuple):
    name: str  # the family id, as params_to_json writes it
    check: Callable[..., CaseCheck]
    sample: Callable[[random.Random], TheoremParams]  # the agree sampler
    # rules(f) is the pair (A, B) whose comparison the checker
    # characterizes, read from the fields f by name, each rule written as
    # the paper writes it, as (a_i, alpha_i) pairs, with None for the mean
    rules: Callable[[Mapping[str, Fraction]], tuple]


_FAMILIES = {
    ThreeNodeLowerParams: _Row("three-node-lower", check_three_node_lower, _sample_three_node_lower,
        lambda f: ([(f["a1"], f["alpha1"]), (f["a2"], f["alpha2"]), (f["a3"], f["alpha3"])], None)),
    FourNodeUpperParams: _Row("four-node-upper", check_four_node_upper, _sample_four_node_upper,
        lambda f: (None, [(f["a1"], 1), (f["a2"], f["alpha2"]),
                          (f["a3"], f["alpha3"]), (f["a4"], 0)])),
    TwoVsThreeParams: _Row("two-vs-three", check_two_vs_three, _sample_two_vs_three,
        lambda f: ([(f["a"], f["alpha1"]), (ONE - f["a"], f["alpha2"])],
                   [(f["b1"], 1), (f["b2"], f["beta"]), (f["b3"], 0)])),
}

# record kinds by family id, and the agree samplers, in the table's order
_KINDS = {row.name: kind for kind, row in _FAMILIES.items()}
_SAMPLERS = {row.name: row.sample for row in _FAMILIES.values()}


def _family(p: TheoremParams) -> _Row:
    if type(p) not in _FAMILIES:
        raise TypeError(f"unknown parameter record {p!r}")
    return _FAMILIES[type(p)]


def _kind(record: object) -> type:
    """The kind of a record in the params_to_json shape, else ParamError."""
    family = record.get("family") if isinstance(record, Mapping) else None
    kind = _KINDS.get(family) if isinstance(family, str) else None
    if kind is None or set(record) != {"family", *kind.__dataclass_fields__}:
        raise ParamError(f"not a parameter record: {record!r}")
    return kind


def check_params(p: TheoremParams) -> CaseCheck:
    return _family(p).check(p)


def _pair(rules, fields: Mapping[str, Fraction]) -> tuple[Functional, Functional]:
    return tuple(UNIFORM if rule is None else from_paper_convention(rule) for rule in rules(fields))


def functional_pair(p: TheoremParams) -> tuple[Functional, Functional]:
    """The pair (A, B) whose convex-order comparison the case checker
    characterizes: holds(p) should coincide with decide(A, B)."""
    return _pair(_family(p).rules, vars(p))


def record_pair(record: Mapping[str, object]) -> tuple[Functional, Functional]:
    """The pair (A, B) of a record in the params_to_json shape with Fraction
    fields, not validated: a degenerate record gives its degenerate pair."""
    return _pair(_FAMILIES[_kind(record)].rules, record)


def params_to_json(p: TheoremParams) -> dict:
    out: dict = {"family": _family(p).name}
    for name in p.__dataclass_fields__:
        out[name] = str(getattr(p, name))
    return out


def params_from_json(obj: dict) -> TheoremParams:
    """Inverse of params_to_json; field values may be any rational."""
    return _kind(obj)(**{name: value for name, value in obj.items() if name != "family"})
