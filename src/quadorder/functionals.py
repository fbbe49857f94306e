"""Exact quadrature functionals on [0, 1].

A functional here is a convex combination of finitely many point
evaluations f(t_i) and the integral mean of f over [0, 1].  It is the
expectation operator of a probability measure made of atoms plus a
uniform component, and that measure's distribution function is a
piecewise-linear, right-continuous step/ramp mixture.

All arithmetic in this module is exact: values are fractions.Fraction,
and make_functional orders and sums them as integers over common
denominators.  Floats are rejected at the boundary: decisions
downstream hinge on sharp equalities, and a float that "looks like"
9/10 is not 9/10.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import itemgetter
from typing import Callable, Iterable, Union

__all__ = [
    "FunctionalError",
    "MassError",
    "DomainError",
    "NegativeWeightError",
    "UnsupportedTestFunction",
    "Rational",
    "as_fraction",
    "Hinge",
    "Atom",
    "Functional",
    "make_functional",
    "from_paper_convention",
    "barycenter",
    "evaluate",
    "functional_to_json",
    "functional_from_json",
    "UNIFORM",
    "MIDPOINT",
    "TRAPEZOID",
    "SIMPSON",
    "PRESETS",
]

Rational = Union[Fraction, int, str]

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)


class FunctionalError(ValueError):
    """A functional construction or evaluation contract was violated."""


class MassError(FunctionalError):
    """Total mass (atom weights plus uniform weight) is not 1."""


class DomainError(FunctionalError):
    """A position or hinge parameter lies outside [0, 1]."""


class NegativeWeightError(FunctionalError):
    """A weight is negative."""


class UnsupportedTestFunction(FunctionalError):
    """evaluate() was handed something other than a hinge."""


def as_fraction(value: Rational) -> Fraction:
    """Coerce an int, string, or Fraction to an exact Fraction.

    Floats are deliberately rejected: Fraction(0.9) is not 9/10.
    Strings accept "p/q", "p", and exact decimals like "0.9"; exponent
    notation is refused, since "1e-300000" would build 10**300000.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise FunctionalError(f"not a rational value: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if "e" in value or "E" in value:
            raise FunctionalError(f"cannot parse rational {value!r}: no exponent notation")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise FunctionalError(f"cannot parse rational {value!r}: {exc}") from None
    raise FunctionalError(
        f"not an exact rational: {value!r} (floats are rejected; use 'p/q' strings)"
    )


# ---------------------------------------------------------------------------
# The test family.  Hinges h_s(t) = max(t - s, 0) are the extreme convex
# directions: by the Levin-Steckin theorem they decide the convex order
# together with +/- t, and on [0, 1] the map t is itself the hinge h_0.
# Each hinge has an exact closed-form uniform mean.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Hinge:
    """h_s(t) = max(t - s, 0) with s in [0, 1]; uniform mean (1-s)^2 / 2."""

    s: Fraction

    def __post_init__(self) -> None:
        if not isinstance(self.s, Fraction):
            object.__setattr__(self, "s", as_fraction(self.s))
        if not ZERO <= self.s <= ONE:
            raise DomainError(f"hinge parameter {self.s} outside [0, 1]")

    def __call__(self, t: Fraction) -> Fraction:
        return max(t - self.s, ZERO)

    def uniform_mean(self) -> Fraction:
        return (ONE - self.s) ** 2 / 2


# ---------------------------------------------------------------------------
# Functionals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Atom:
    """A point evaluation: weight * f(position)."""

    position: Fraction
    weight: Fraction


@dataclass(frozen=True)
class Functional:
    """Atoms (strictly increasing positions, positive weights) plus a
    uniform component; total mass is exactly 1.

    Build through make_functional / from_paper_convention, which enforce
    the invariants and normalize (merge coincident atoms, drop zeros).
    """

    atoms: tuple[Atom, ...]
    uniform_weight: Fraction

    def positions(self) -> tuple[Fraction, ...]:
        return tuple(a.position for a in self.atoms)


def make_functional(
    atoms: Iterable[tuple[Rational, Rational]],
    uniform_weight: Rational = 0,
) -> Functional:
    """Validate and normalize a functional.

    Coincident atom positions are merged, zero weights dropped, atoms
    sorted.  Raises DomainError / NegativeWeightError / MassError; the
    first bad atom, in input order, is the one reported.

    Each scalar is parsed once.  Atoms are ordered by an exact integer
    key, the position over the common denominator of all positions, and
    the mass is summed as one int over the common denominator of all
    weights.
    """
    uniform = as_fraction(uniform_weight)
    if uniform.numerator < 0:
        raise NegativeWeightError(f"uniform weight {uniform} < 0")
    parsed = []
    for position, weight in atoms:
        t = as_fraction(position)
        w = as_fraction(weight)
        if t.numerator < 0 or t.numerator > t.denominator:
            raise DomainError(f"atom position {t} outside [0, 1]")
        if w.numerator < 0:
            raise NegativeWeightError(f"atom weight {w} < 0 at position {t}")
        if w.numerator:
            parsed.append((t, w))
    t_scale = lcm(*{t.denominator for t, _ in parsed})
    w_scale = lcm(uniform.denominator, *{w.denominator for _, w in parsed})
    # one running int: W can have thousands of bits, so no scaled weight
    # outlives its step of the loop
    total = uniform.numerator * (w_scale // uniform.denominator)
    for _, w in parsed:
        total += w.numerator * (w_scale // w.denominator)
    if total != w_scale:
        raise MassError(f"total mass {Fraction(total, w_scale)} != 1")
    keyed = sorted(
        ((t.numerator * (t_scale // t.denominator), t, w) for t, w in parsed),
        key=itemgetter(0),
    )
    merged: list[Atom] = []
    last_key = -1
    for key, t, w in keyed:
        if key == last_key:
            merged[-1] = Atom(t, merged[-1].weight + w)
        else:
            merged.append(Atom(t, w))
            last_key = key
    return Functional(tuple(merged), uniform)


def from_paper_convention(
    pairs: Iterable[tuple[Rational, Rational]],
    uniform_weight: Rational = 0,
) -> Functional:
    """Build a functional from (weight, coefficient) pairs.

    A pair (a, alpha) stands for the term a * f(alpha*x + (1-alpha)*y);
    on the canonical interval (x=0, y=1) that is an atom of weight a at
    position 1 - alpha.
    """
    mapped = []
    for weight, alpha in pairs:
        c = as_fraction(alpha)
        if not ZERO <= c <= ONE:
            raise DomainError(f"coefficient {c} outside [0, 1]")
        mapped.append((ONE - c, as_fraction(weight)))
    return make_functional(mapped, uniform_weight)


def barycenter(func: Functional) -> Fraction:
    """First moment: sum w_i t_i + uniform/2."""
    return (
        sum((a.weight * a.position for a in func.atoms), start=ZERO)
        + func.uniform_weight * HALF
    )


def evaluate(func: Functional, f: Hinge) -> Fraction:
    """Apply the functional to a hinge, exactly."""
    if not isinstance(f, Hinge):
        raise UnsupportedTestFunction(f"{f!r} is not a hinge, the built-in test family")
    total = sum((a.weight * f(a.position) for a in func.atoms), start=ZERO)
    return total + func.uniform_weight * f.uniform_mean()


# ---------------------------------------------------------------------------
# JSON form
# ---------------------------------------------------------------------------


def functional_to_json(func: Functional) -> dict:
    return {
        "atoms": [{"t": str(a.position), "w": str(a.weight)} for a in func.atoms],
        "uniform": str(func.uniform_weight),
    }


# Reads one scalar of functional JSON: (field, value) -> value.
ScalarMap = Callable[[str, object], object]


def _as_given(field: str, value: object) -> object:
    return value


def _scalar(field: str, value: object, scalar: ScalarMap) -> object:
    """scalar(field, value); a list or an object is refused by its type and
    never printed, since it may nest too deep to print."""
    if isinstance(value, (dict, list)):
        raise FunctionalError(f"{field!r} must be a rational, got {type(value).__name__}")
    return scalar(field, value)


def _json_entries(obj: dict, key: str, fields: tuple[str, str], scalar: ScalarMap) -> list:
    """The (fields[0], fields[1]) values, read through _scalar, of every
    entry of obj[key], which must be a list of objects carrying both fields."""
    entries = obj[key]
    if not isinstance(entries, list):
        raise FunctionalError(f"'{key}' must be a list, got {type(entries).__name__}")
    out = []
    for entry in entries:
        if not isinstance(entry, dict):
            name = type(entry).__name__
            raise FunctionalError(f"each '{key}' entry must be an object, got {name}")
        for field in fields:
            if field not in entry:
                raise FunctionalError(f"a '{key}' entry has no {field!r} key")
        out.append([_scalar(field, entry[field], scalar) for field in fields])
    return out


def functional_from_json(obj: object, scalar: ScalarMap = _as_given) -> Functional:
    """Parse {"atoms": [{"t","w"},...], "uniform"} or the paper-convention
    form {"pairs": [{"alpha","a"},...], "uniform"}.

    This is the one walk over functional JSON and its one shape check:
    anything else raises FunctionalError, never KeyError or TypeError;
    keys outside the shape are ignored.  Each scalar is read as
    scalar(field, value), field being "t", "w", "a", "alpha" or "uniform"."""
    if not isinstance(obj, dict):
        raise FunctionalError(f"functional JSON must be an object, got {type(obj).__name__}")
    uniform = _scalar("uniform", obj.get("uniform", 0), scalar)
    if "atoms" in obj and "pairs" in obj:
        raise FunctionalError("functional JSON cannot carry both 'atoms' and 'pairs'")
    if "atoms" in obj:
        return make_functional(_json_entries(obj, "atoms", ("t", "w"), scalar), uniform)
    if "pairs" in obj:
        pairs = _json_entries(obj, "pairs", ("a", "alpha"), scalar)
        return from_paper_convention(pairs, uniform)
    raise FunctionalError("functional JSON needs an 'atoms' or 'pairs' key")


# ---------------------------------------------------------------------------
# Classic rules
# ---------------------------------------------------------------------------

UNIFORM = make_functional([], 1)
MIDPOINT = make_functional([(HALF, 1)])
TRAPEZOID = make_functional([(0, HALF), (1, HALF)])
SIMPSON = make_functional([(0, Fraction(1, 6)), (HALF, Fraction(2, 3)), (1, Fraction(1, 6))])

PRESETS: dict[str, Functional] = {
    "uniform": UNIFORM,
    "midpoint": MIDPOINT,
    "trapezoid": TRAPEZOID,
    "simpson": SIMPSON,
}
