"""Reference arithmetic of the benchmark, independent of quadorder.

Every check the benchmark makes on the program's output goes through
this module.  It never imports quadorder: hinge gaps are re-evaluated
straight from the atoms the benchmark wrote, barycenters are summed
directly, and the sweep families are judged by their closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


@dataclass(frozen=True)
class Measure:
    """Atoms (position, weight) plus a uniform part, as the benchmark
    generated them (positions need not be sorted or distinct)."""

    atoms: tuple[tuple[Fraction, Fraction], ...]
    uniform: Fraction = ZERO

    @staticmethod
    def from_json(obj: dict) -> "Measure":
        atoms = tuple((Fraction(e["t"]), Fraction(e["w"])) for e in obj["atoms"])
        return Measure(atoms, Fraction(obj["uniform"]))

    def to_json(self) -> dict:
        return {
            "atoms": [{"t": str(t), "w": str(w)} for t, w in self.atoms],
            "uniform": str(self.uniform),
        }

    def mass(self) -> Fraction:
        return sum((w for _, w in self.atoms), start=ZERO) + self.uniform


def barycenter(m: Measure) -> Fraction:
    return sum((w * t for t, w in m.atoms), start=ZERO) + m.uniform * HALF


def hinge_value(m: Measure, s: Fraction) -> Fraction:
    """E max(X - s, 0) under m, exactly."""
    atoms = sum((w * (t - s) for t, w in m.atoms if t > s), start=ZERO)
    return atoms + m.uniform * (ONE - s) ** 2 / 2


def hinge_gap(a: Measure, b: Measure, s: Fraction) -> Fraction:
    """A(h_s) - B(h_s); positive means h_s violates A <= B."""
    return hinge_value(a, s) - hinge_value(b, s)


def _merged(m: Measure) -> dict[Fraction, Fraction]:
    out: dict[Fraction, Fraction] = {}
    for t, w in m.atoms:
        out[t] = out.get(t, ZERO) + w
    return {t: w for t, w in out.items() if w}


def reference_outcome(a: Measure, b: Measure) -> str:
    """'equal', 'holds' or 'fails' for A <= B in the convex order.

    Quadratic in the atom count, so it serves small pairs only.  With
    equal barycenters the order holds iff the hinge gap is <= 0 for all
    s; the gap is piecewise quadratic between atom positions, so its
    maximum sits at a position or at the vertex of a segment.
    """
    if a.uniform == b.uniform and _merged(a) == _merged(b):
        return "equal"
    if barycenter(a) != barycenter(b):
        return "fails"
    points = sorted({ZERO, ONE, *(t for t, _ in a.atoms), *(t for t, _ in b.atoms)})
    candidates = list(points)
    du = b.uniform - a.uniform
    if du:
        for left, right in zip(points[:-1], points[1:]):
            above_a = sum((w for t, w in a.atoms if t > left), start=ZERO)
            above_b = sum((w for t, w in b.atoms if t > left), start=ZERO)
            vertex = ONE - (above_a - above_b) / du
            if left < vertex < right:
                candidates.append(vertex)
    worst = max(hinge_gap(a, b, s) for s in candidates)
    return "fails" if worst > 0 else "holds"


# ---------------------------------------------------------------------------
# Sweep families: the pairs `scan`/`threshold` build, and the closed forms
# of their holds-regions asserted by acceptance criteria 2-5.
# ---------------------------------------------------------------------------


def family_pair(family: str, p: dict[str, Fraction]) -> tuple[Measure, Measure]:
    uniform = Measure((), ONE)
    if family == "symmetric3":
        a, alpha = p["a"], p["alpha"]
        return Measure(((ONE - alpha, a), (HALF, 1 - 2 * a), (alpha, a))), uniform
    if family == "endpoint4":
        a, alpha = p["a"], p["alpha"]
        b = HALF - a
        return uniform, Measure(((ZERO, a), (ONE - alpha, b), (alpha, b), (ONE, a)))
    if family == "twoVsThree":
        alpha = p["alpha"]
        two = Measure(((ONE - alpha, HALF), (alpha, HALF)))
        three = Measure(((ZERO, p["b1"]), (HALF, p["b2"]), (ONE, p["b3"])))
        return two, three
    if family == "bp1":
        x = p["x"]
        return uniform, Measure(((ZERO, QUARTER), (x, QUARTER), (ONE - x, QUARTER), (ONE, QUARTER)))
    raise ValueError(f"unknown family {family!r}")


def closed_form_holds(family: str, p: dict[str, Fraction]) -> bool:
    if family == "symmetric3":
        return p["a"] <= 2 - 2 * p["alpha"]
    if family == "endpoint4":
        return p["a"] >= (1 - p["alpha"]) / 2
    if family == "twoVsThree":
        return p["alpha"] <= _two_vs_three_boundary(p)
    if family == "bp1":
        return True
    raise ValueError(f"unknown family {family!r}")


def closed_form_threshold(family: str, p: dict[str, Fraction]) -> tuple[Fraction, bool]:
    """(threshold, attained) that `threshold` must report; p holds the
    fixed parameters."""
    if family == "symmetric3":
        boundary = 2 - 2 * p["alpha"]
        return (boundary, True) if boundary < HALF else (HALF, False)
    if family == "endpoint4":
        return (1 - p["alpha"]) / 2, True
    if family == "twoVsThree":
        return _two_vs_three_boundary(p), True
    if family == "bp1":
        return HALF, True
    raise ValueError(f"unknown family {family!r}")


def _two_vs_three_boundary(p: dict[str, Fraction]) -> Fraction:
    weights = (p["b1"], p["b2"], p["b3"])
    if weights == (Fraction(1, 3),) * 3:
        return Fraction(5, 6)
    if weights == (Fraction(1, 6), Fraction(2, 3), Fraction(1, 6)):
        return Fraction(2, 3)
    raise ValueError(f"no closed form for twoVsThree weights {weights}")
