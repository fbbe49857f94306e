"""Exact quadrature functionals on [0, 1].

A functional here is a convex combination of finitely many point
evaluations f(t_i) and the integral mean of f over [0, 1].  It is the
expectation operator of a probability measure made of atoms plus a
uniform component, and that measure's distribution function is a
piecewise-linear, right-continuous step/ramp mixture.

All arithmetic in this module is exact.  A Functional holds each atom
position and weight as a (numerator, denominator) int pair in lowest
terms, with T and W, the common denominators of its positions and of
its weights, computed once; make_functional orders atoms by an exact
integer key (the position over T while T fits _SHORT_T_BITS, else the
position scaled by a power of two only as large as its own denominators
need) and sums their weights pairwise (_sum_pairs), one term per
distinct weight denominator, which yields W.  Every input string is
read straight to such a pair by one number grammar (see
_read_rational), whatever the Python version.  Floats are rejected at
the boundary: decisions downstream hinge on sharp equalities, and a
float that "looks like" 9/10 is not 9/10.

Functional JSON is read in one pass per atom: functional_from_json walks
the shape once and hands the raw values to make_functional or, for
(a, alpha) pairs, from_paper_convention.  Both run one loop, which reads
each entry, checks its range and sign, drops a zero weight, collects the
position denominators and adds up the weight numerators per
denominator.  Both forms report a bad input in one order: the shape of
every entry first, then the uniform weight, then entry by entry the
first value's text (t or alpha), the second's (w or a), the first's
range and the second's sign, and the mass last.  A scalar map given to
functional_from_json reads the values in that same order.

The test functions are the hinges h_s(t) = max(t - s, 0), s in [0, 1]:
by the Levin-Steckin theorem they decide the convex order together with
+/- t, and on [0, 1] the map t is h_0, so a hinge is named by s alone.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import gcd, lcm
from operator import itemgetter
from typing import Callable, Iterable, Optional, Union

__all__ = [
    "FunctionalError",
    "MassError",
    "DomainError",
    "NegativeWeightError",
    "Rational",
    "as_fraction",
    "Atom",
    "Functional",
    "make_functional",
    "from_paper_convention",
    "evaluate",
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


# The number grammar: Python 3.11's Fraction(str) grammar without the
# exponent.  Optional whitespace, an optional sign, then "p", "p/q" or a
# decimal "p.d", ".d" or "p."; digit runs may be split by single
# underscores and may use any Unicode decimal digits.  It is written out
# here because Fraction(str) accepts more on later versions ("1 /2" from
# 3.12) and less on earlier ones ("1_0/3" before 3.11).
_NUMBER = re.compile(
    r"""\s*(?P<sign>[-+]?)(?=\d|\.\d)
    (?P<num>(?:\d+(?:_\d+)*)?)
    (?:/(?P<den>\d+(?:_\d+)*)|(?:\.(?P<decimal>(?:\d+(?:_\d+)*)?))?)
    \s*""",
    re.VERBOSE,
)


def _read_rational(text: str) -> tuple[int, int]:
    """text read by the number grammar, as (numerator, denominator) in
    lowest terms.  The one reader of every number written as text.

    Exponent notation is refused, since "1e-300000" would build
    10**300000; a digit run longer than int() accepts is refused as
    int() refuses it.  Every refusal reads "cannot parse rational
    <text>: <reason>"."""
    num, _, den = text.partition("/")
    try:
        # digits "/" digits is in the grammar and needs no regex; anything
        # else is matched in full
        if num.isdecimal() and den.isdecimal():
            numerator, denominator = int(num), int(den)
        elif match := _NUMBER.fullmatch(text):
            sign, num, den, decimal = match.groups()
            numerator = int(num or "0")
            if den:
                denominator = int(den)
            elif decimal:
                digits = decimal.replace("_", "")
                denominator = 10 ** len(digits)
                numerator = numerator * denominator + int(digits)
            else:
                denominator = 1
            if sign == "-":
                numerator = -numerator
        elif "e" in text or "E" in text:
            raise ValueError("no exponent notation")
        else:
            raise ValueError(f"Invalid literal for Fraction: {text!r}")
        if not denominator:
            raise ValueError(f"Fraction({numerator}, 0)")
    except ValueError as exc:
        raise FunctionalError(f"cannot parse rational {text!r}: {exc}") from None
    common = gcd(numerator, denominator)
    if common == 1:
        return numerator, denominator
    return numerator // common, denominator // common


def _as_pair(value: Rational) -> tuple[int, int]:
    """An int, string or Fraction as (numerator, denominator) in lowest
    terms.  Floats and bools are refused; None, a list or a dict is
    refused by its type, and a list or a dict is never printed, since it
    may nest too deep to print."""
    if isinstance(value, str):
        return _read_rational(value)
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    if isinstance(value, bool):
        raise FunctionalError(f"not a rational value: {value!r}")
    if isinstance(value, int):
        return int(value), 1
    if value is None or isinstance(value, (dict, list)):
        raise FunctionalError(f"not a rational: got {type(value).__name__}")
    raise FunctionalError(
        f"not an exact rational: {value!r} (floats are rejected; use 'p/q' strings)"
    )


def as_fraction(value: Rational) -> Fraction:
    """Coerce an int, string, or Fraction to an exact Fraction.

    Floats are deliberately rejected: Fraction(0.9) is not 9/10.
    Strings follow the number grammar: "p/q", "p", and exact decimals
    like "0.9"; exponent notation is refused.
    """
    if isinstance(value, Fraction):
        return value
    return Fraction(*_as_pair(value))


def _balanced(op: Callable, empty, items: Iterable):
    """items folded by op pairwise in a balanced tree, or empty if none.
    lcm's and _add_pairs' results grow with each distinct denominator, so a
    one-at-a-time fold pairs a large total with each small item and is
    several times slower on thousands of them.  Two take one op call."""
    row = list(items)
    while len(row) > 2:
        row = [*map(op, row[::2], row[1::2]), *row[len(row) & ~1 :]]
    return op(*row) if len(row) == 2 else row[0] if row else empty


def _add_pairs(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """x + y for (numerator, denominator) pairs, over the lcm; not reduced."""
    (n1, d1), (n2, d2) = x, y
    common = gcd(d1, d2)
    return n1 * (d2 // common) + n2 * (d1 // common), d1 // common * d2


# The lcm of the denominators, and the sum of (numerator, denominator) pairs
# over exactly the lcm of their denominators, whatever the tree's shape.
_lcm = partial(_balanced, lcm, 1)
_sum_pairs = partial(_balanced, _add_pairs, (0, 1))


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

    Atom i sits at position_pairs[i] and weighs weight_pairs[i], each a
    (numerator, denominator) int pair in lowest terms, in position order.
    t_scale (T) is the lcm of the position denominators and w_scale (W)
    that of the weight denominators and uniform_weight's.  atoms is a
    Fraction view, built on each read.

    Build through make_functional / from_paper_convention, which enforce
    the invariants and normalize (merge coincident atoms, drop zeros).
    """

    position_pairs: tuple[tuple[int, int], ...]
    weight_pairs: tuple[tuple[int, int], ...]
    uniform_weight: Fraction
    t_scale: int
    w_scale: int

    @property
    def atoms(self) -> tuple[Atom, ...]:
        return tuple(
            Atom(Fraction(*t), Fraction(*w)) for t, w in zip(self.position_pairs, self.weight_pairs)
        )


# Up to this size of T a position's key is the position over T, and the
# walks over D carry breakpoints as ints over T; past it, no T-sized number
# is formed per atom
_SHORT_T_BITS = 64


def _merge(atoms: Iterable[tuple[tuple[int, int], tuple[int, int]]], t_scale: int) -> tuple:
    """(keys, positions, weights) of (position pair, weight pair) atoms:
    each keyed by an exact integer key, in one stable sort, with the
    weights that share a key added and reduced.  A key keeps the position
    pair of its first atom.

    While T fits _SHORT_T_BITS the key is the position over T.  Past it,
    the key of t is floor(t 2^s), s twice the bit length of the largest
    position denominator D: two distinct positions differ by at least
    1 / D^2 > 2^-s, so the keys keep their order and equal positions,
    however written, share one, at a cost of the denominator's size."""
    if t_scale.bit_length() <= _SHORT_T_BITS:
        keyed = [(t[0] * (t_scale // t[1]), t, w) for t, w in atoms]
    else:
        shift = 2 * max(t[1] for t, _ in atoms).bit_length()
        keyed = [((t[0] << shift) // t[1], t, w) for t, w in atoms]
    keyed.sort(key=itemgetter(0))
    keys, positions, weights = [], [], []
    last = -1
    for key, t, w in keyed:
        if key == last:
            num, den = _add_pairs(weights[-1], w)
            common = gcd(num, den)
            weights[-1] = (num // common, den // common)
        else:
            keys.append(key)
            positions.append(t)
            weights.append(w)
            last = key
    return keys, positions, weights


def _functional(
    entries: Iterable[tuple[Rational, Rational]], uniform_weight: Rational, alphas: bool
) -> Functional:
    """The one loop behind make_functional and from_paper_convention: it
    reads and checks each entry, (t, w) or with alphas (a, alpha), whose
    alpha stands where t stands and becomes the position 1 - alpha once
    its range is checked; then it merges and checks the mass."""
    uniform = as_fraction(uniform_weight)
    if uniform.numerator < 0:
        raise NegativeWeightError(f"uniform weight {uniform} < 0")
    where = "coefficient" if alphas else "atom position"
    kept = []
    denominators = set()
    for t, w in entries:
        if alphas:
            t, w = w, t
        t = _read_rational(t) if type(t) is str else _as_pair(t)
        w = _read_rational(w) if type(w) is str else _as_pair(w)
        if t[0] < 0 or t[0] > t[1]:
            raise DomainError(f"{where} {Fraction(*t)} outside [0, 1]")
        if alphas:
            # 1 - num/den is in lowest terms when num/den is
            t = (t[1] - t[0], t[1])
        if w[0] < 0:
            raise NegativeWeightError(f"atom weight {Fraction(*w)} < 0 at position {Fraction(*t)}")
        if w[0]:
            kept.append((t, w))
            denominators.add(t[1])
    t_scale = _lcm(denominators)
    _, positions, weights = _merge(kept, t_scale)
    # the merged weights' numerators added up per denominator, so that the
    # pairwise mass sum makes one add per distinct denominator and ends
    # over exactly W, the lcm of the reduced weights' denominators
    masses: dict[int, int] = {uniform.denominator: uniform.numerator}
    for num, den in weights:
        masses[den] = masses.get(den, 0) + num
    total, w_scale = _sum_pairs((num, den) for den, num in masses.items())
    if total != w_scale:
        raise MassError(f"total mass {Fraction(total, w_scale)} != 1")
    return Functional(tuple(positions), tuple(weights), uniform, t_scale, w_scale)


def make_functional(
    atoms: Iterable[tuple[Rational, Rational]],
    uniform_weight: Rational = ZERO,
) -> Functional:
    """Validate and normalize a functional given as (t, w) atoms:
    coincident positions are merged, zero weights dropped, atoms sorted.
    Errors come in the order both forms share (after functional_from_json's
    shape check, for JSON): the uniform weight's value and sign, then atom
    by atom in input order t's value, w's value, t's range (DomainError)
    and w's sign (NegativeWeightError), and the mass (MassError) last; a
    value that is not a rational raises FunctionalError.
    """
    return _functional(atoms, uniform_weight, False)


def from_paper_convention(
    pairs: Iterable[tuple[Rational, Rational]],
    uniform_weight: Rational = ZERO,
) -> Functional:
    """Build a functional from (a, alpha) pairs.  A pair stands for the
    term a * f(alpha*x + (1-alpha)*y): on the canonical interval (x=0,
    y=1), an atom of weight a at position 1 - alpha.  Errors come in
    make_functional's order, alpha standing where t stands: the uniform
    weight, then pair by pair alpha's value, a's value, alpha's range and
    a's sign, and the mass last.
    """
    return _functional(pairs, uniform_weight, True)


def evaluate(func: Functional, s: Rational) -> Fraction:
    """func applied to the hinge h_s, exactly; s is a rational in [0, 1].
    The uniform mean of h_s is (1 - s)^2 / 2."""
    s = as_fraction(s)
    if not ZERO <= s <= ONE:
        raise DomainError(f"hinge parameter {s} outside [0, 1]")
    total = sum((a.weight * max(a.position - s, ZERO) for a in func.atoms), start=ZERO)
    return total + func.uniform_weight * (ONE - s) ** 2 / 2


# ---------------------------------------------------------------------------
# JSON form
# ---------------------------------------------------------------------------


# Reads one scalar of functional JSON: (field, value) -> value.
ScalarMap = Callable[[str, object], object]


def functional_from_json(obj: object, scalar: Optional[ScalarMap] = None) -> Functional:
    """Parse {"atoms": [{"t","w"},...], "uniform"} or the paper-convention
    form {"pairs": [{"alpha","a"},...], "uniform"}.

    This is the one walk over functional JSON and its one shape check:
    anything else raises FunctionalError, never KeyError or TypeError;
    keys outside the shape are ignored.  The shape of every entry is
    checked before any value is read, and the raw values go to
    make_functional or from_paper_convention, which read and check them.
    A scalar map, when given, reads each value as scalar(field, value),
    field being "t", "w", "a", "alpha" or "uniform", in the order those
    read them: uniform's first, then entry by entry, t or alpha first."""
    if not isinstance(obj, dict):
        raise FunctionalError(f"functional JSON must be an object, got {type(obj).__name__}")
    if "atoms" in obj and "pairs" in obj:
        raise FunctionalError("functional JSON cannot carry both 'atoms' and 'pairs'")
    key = "atoms" if "atoms" in obj else "pairs"
    if key not in obj:
        raise FunctionalError("functional JSON needs an 'atoms' or 'pairs' key")
    if not isinstance(obj[key], list):
        raise FunctionalError(f"'{key}' must be a list, got {type(obj[key]).__name__}")
    # the (t, w) or (a, alpha) values of every entry, as they stand
    first, second = ("t", "w") if key == "atoms" else ("a", "alpha")
    entries = []
    for entry in obj[key]:
        if not isinstance(entry, dict):
            name = type(entry).__name__
            raise FunctionalError(f"each '{key}' entry must be an object, got {name}")
        if first not in entry or second not in entry:
            missing = second if first in entry else first
            article = "an" if key == "atoms" else "a"
            raise FunctionalError(f"{article} '{key}' entry has no {missing!r} key")
        entries.append((entry[first], entry[second]))
    uniform = obj.get("uniform", 0)
    if scalar is not None:
        uniform = scalar("uniform", uniform)
        # read one entry at a time, as the building loop pulls them, t or
        # alpha first
        if key == "atoms":
            entries = ((scalar("t", t), scalar("w", w)) for t, w in entries)
        else:
            alphas = ((a, scalar("alpha", alpha)) for a, alpha in entries)
            entries = ((scalar("a", a), alpha) for a, alpha in alphas)
    return (make_functional if key == "atoms" else from_paper_convention)(entries, uniform)


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
