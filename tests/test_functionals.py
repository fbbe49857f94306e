"""Construction, distribution functions, and exact evaluation.

Distribution functions are read through difference(f, UNIT_AT_ONE),
which equals F_f on [0, 1) and F_f - 1 at 1."""

from __future__ import annotations

from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, strategies as st

from quadorder import (
    DomainError,
    Functional,
    FunctionalError,
    MIDPOINT,
    MassError,
    NegativeWeightError,
    SIMPSON,
    TRAPEZOID,
    UNIFORM,
    as_fraction,
    difference,
    evaluate,
    from_paper_convention,
    functional_from_json,
    make_functional,
)
from quadorder.cli import eval_rational_expr
from quadorder.functionals import _SHORT_T_BITS, _lcm, _merge, _sum_pairs
from helpers import (
    NUMBER_GRAMMAR,
    UNIT_AT_ONE,
    d_left_limit,
    d_slope,
    d_value,
    d_values,
    mix,
    rand_functional,
    reference_make_functional,
    second_moment,
)
import random
import sys


# ---------------------------------------------------------------------------
# make_functional
# ---------------------------------------------------------------------------


def test_single_atom_round_trip():
    f = make_functional([(F(1, 2), 1)])
    assert [x.position for x in f.atoms] == [F(1, 2)]
    assert f.atoms[0].weight == 1
    assert f.uniform_weight == 0


def test_coincident_atoms_merge_and_sort():
    f = make_functional([(F(3, 4), F(1, 2)), (F(1, 4), F(1, 3)), (F(1, 4), F(1, 6))])
    assert [x.position for x in f.atoms] == [F(1, 4), F(3, 4)]
    assert [a.weight for a in f.atoms] == [F(1, 2), F(1, 2)]


# Positions with coprime denominators above 2^40 that differ by exactly
# 1 / (D1 D2), the least gap two such positions can have; their T is past
# the 64-bit cut, where the merge keys a position by floor(t 2^s)
D1, D2 = 2**41 + 1, 2**41 + 3
K2 = pow(D1, -1, D2)
X1, X2 = F((K2 * D1 - 1) // D2, D1), F(K2, D2)


def test_the_merge_key_past_the_cut_orders_and_merges_exactly():
    assert X2 - X1 == F(1, D1 * D2)
    # 2/4 and 1/2 are one position, and so are X1 and 3 X1.num / 3 D1
    positions = [
        (X2.numerator, D2), (2, 4), (X1.numerator, D1), (0, 1),
        (1, 2), (3 * X1.numerator, 3 * D1), (1, 1), (X2.numerator - 1, D2),
    ]
    t_scale = _lcm(den for _, den in positions)
    assert t_scale.bit_length() > _SHORT_T_BITS
    rng = random.Random(16)
    for _ in range(20):
        atoms = [(t, (i + 1, 64)) for i, t in enumerate(positions)]
        rng.shuffle(atoms)
        keys, merged, weights = _merge(atoms, t_scale)
        want: dict = {}
        for t, w in atoms:
            want[F(*t)] = want.get(F(*t), 0) + F(*w)
        # sorted as Fractions sort, one entry per distinct position
        assert [F(*t) for t in merged] == sorted(want)
        assert [F(*w) for w in weights] == [want[t] for t in sorted(want)]
        assert keys == sorted(set(keys))
        # each merged entry keeps the pair of its first atom
        firsts = {}
        for t, _ in atoms:
            firsts.setdefault(F(*t), t)
        assert merged == [firsts[F(*t)] for t in merged]


def test_make_functional_past_the_cut_matches_the_fraction_reference():
    raw = [(X2, F(1, 4)), ("2/4", F(1, 8)), (X1, F(1, 4)), ("1/2", F(1, 8)), (X1, F(1, 4))]
    f = make_functional(raw)
    assert f.t_scale.bit_length() > _SHORT_T_BITS
    assert (f.atoms, f.uniform_weight) == reference_make_functional(raw)
    assert [x.position for x in f.atoms] == sorted([F(1, 2), X1, X2])


def test_zero_weights_dropped():
    f = make_functional([(F(1, 3), 0), (F(1, 2), 1)])
    assert [x.position for x in f.atoms] == [F(1, 2)]


def test_simpson_preset_shape():
    assert SIMPSON == make_functional(
        [(0, F(1, 6)), (F(1, 2), F(2, 3)), (1, F(1, 6))]
    )


def test_mass_error():
    with pytest.raises(MassError):
        make_functional([(F(1, 2), F(1, 2))])
    with pytest.raises(MassError):
        make_functional([(F(1, 2), 1)], uniform_weight=F(1, 10))


def test_mass_error_names_the_exact_total():
    # off by 1/W, W the lcm of the weight denominators: 1/2 + 1/3 + 1/7 = 41/42
    for weights in ((F(1, 2), F(1, 3), F(1, 7)), (F(1, 2), F(1, 3), F(1, 5))):
        total = sum(weights)
        with pytest.raises(MassError, match=f"^total mass {total} != 1$"):
            make_functional([(F(k, 3), w) for k, w in enumerate(weights)])
    rng = random.Random("mass-4000")
    weights = [F(1, 16 * rng.randint(100, 999)) for _ in range(3999)]
    w_scale = lcm(*(w.denominator for w in weights))
    for off in (F(-1, w_scale), F(1, w_scale)):
        atoms = [(F(k, 4000), w) for k, w in enumerate([*weights, 1 - sum(weights) + off])]
        with pytest.raises(MassError, match=f"^total mass {1 + off} != 1$"):
            make_functional(atoms)


def test_sum_pairs_matches_the_fraction_sum():
    # every length from 0 to 70, so each carry of the binary counter at
    # 2^k - 1, 2^k and 2^k + 1 terms occurs, with distinct denominators
    # and with denominators that repeat
    rng = random.Random("sum-pairs")
    for n in range(71):
        for dens in (rng.sample(range(1, 200), n), [rng.randint(1, 12) for _ in range(n)]):
            pairs = [(rng.randint(-50, 50), d) for d in dens]
            num, den = _sum_pairs(iter(pairs))
            assert F(num, den) == sum((F(*p) for p in pairs), start=F(0))
            # make_functional reads W off this denominator
            assert den == lcm(*dens)


def test_domain_error():
    with pytest.raises(DomainError):
        make_functional([(F(3, 2), 1)])
    with pytest.raises(DomainError):
        make_functional([(F(-1, 2), 1)])
    with pytest.raises(DomainError, match=r"^coefficient 3/2 outside \[0, 1\]$"):
        from_paper_convention([(1, F(3, 2))])


def test_negative_weight_error():
    with pytest.raises(NegativeWeightError):
        make_functional([(F(1, 2), F(3, 2)), (F(3, 4), F(-1, 2))])
    with pytest.raises(NegativeWeightError):
        make_functional([(F(1, 2), F(3, 2))], uniform_weight=F(-1, 2))


def test_floats_rejected():
    with pytest.raises(ValueError):
        as_fraction(0.9)
    with pytest.raises(ValueError):
        make_functional([(0.5, 1)])
    # exact decimal strings are fine
    assert as_fraction("0.9") == F(9, 10)


def test_number_grammar_table():
    for text, expected in NUMBER_GRAMMAR:
        if isinstance(expected, F):
            assert as_fraction(text) == expected, text
            assert eval_rational_expr(text.replace("_", "")) == expected, text
        else:
            with pytest.raises(FunctionalError) as caught:
                as_fraction(text)
            assert str(caught.value) == f"cannot parse rational {text!r}: {expected}"


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="int() has no digit limit here"
)
def test_a_numerator_past_the_int_digit_limit_is_refused():
    for text in ("7" * 5000, "7" * 5000 + "/3"):
        with pytest.raises(FunctionalError) as caught:
            as_fraction(text)
        assert str(caught.value).startswith(f"cannot parse rational {text!r}: ")


# Pieces of number-like strings: ASCII and other Unicode decimal digits, a
# superscript digit (not decimal), the grammar's punctuation, spaces, and
# letters near it: e and E (exponents, refused) and d (once read in the
# decimal part on 3.11).
_PIECES = [*"0123456789", "12", "007", "\u0663", "\u096f", "\uff18", "\u00b2",
           "_", ".", "/", "+", "-", " ", "\t", "e", "E", "d", "D"]


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="the grammar is 3.11's Fraction(str)")
def test_number_reader_matches_fraction_of_str_on_3_11():
    rng = random.Random("number-grammar")
    kinds = set()
    for _ in range(20_000):
        text = "".join(rng.choice(_PIECES) for _ in range(rng.randint(0, 7)))
        try:
            got = as_fraction(text)
        except FunctionalError as exc:
            got = str(exc)
        if "e" in text or "E" in text:
            kind, expected = "exponent", f"cannot parse rational {text!r}: no exponent notation"
        else:
            try:
                kind, expected = "value", F(text)
            except (ValueError, ZeroDivisionError) as exc:
                kind, reason = type(exc).__name__, str(exc)
                if reason.startswith("invalid literal for int()"):
                    # 3.11 reads a run of d's as a decimal part, then fails in int()
                    kind, reason = "d", f"Invalid literal for Fraction: {text!r}"
                expected = f"cannot parse rational {text!r}: {reason}"
        assert got == expected, text
        kinds.add(kind)
    assert kinds == {"value", "exponent", "ValueError", "ZeroDivisionError", "d"}


def test_one_functional_however_its_numbers_are_written():
    forms = [
        [(F(1, 4), F(1, 3)), (F(3, 4), F(1, 3))],
        [("1/4", "1/3"), ("0.75", "2/6")],
        [(" 0.25 ", "1_0/30"), ("3/4", "+1/3")],
        [("\u0661/\u0664", "1/6"), ("3/4", "1/3"), ("1/4", "1/6")],  # merged at 1/4
        [("2/8", "1/3"), ("75/100", 0), ("6/8", "1/3")],
    ]
    built = [make_functional(atoms, "1/3") for atoms in forms]
    for f in built:
        assert f == built[0] and hash(f) == hash(built[0])
        assert f.position_pairs == ((1, 4), (3, 4)) and f.weight_pairs == ((1, 3), (1, 3))
        assert (f.t_scale, f.w_scale) == (4, 3)


def _as_written(rng: random.Random, value: F) -> object:
    """value as a Fraction, an int when whole, or one of its string forms."""
    forms = [value, f"{value.numerator}/{value.denominator}", f" {value} "]
    if value.denominator == 1:
        forms.append(value.numerator)
    if value.denominator in (2, 4, 5, 8, 10):
        forms.append(f"{float(value)!r}")  # an exact decimal string
    return rng.choice(forms)


BAD_SCALARS = ["abc", "1e-3", "1/0", 0.5, True, None, "", "1//2"]


def _raw_functional(rng: random.Random) -> tuple[list, object]:
    """Atoms and a uniform weight as make_functional may receive them:
    unsorted, repeated positions, zero weights, mixed scalar forms, and
    now and then a bad scalar, a position outside [0, 1], a negative
    weight or a mass that is not 1."""
    den = rng.choice([2, 3, 8, 10, 12, 97, 10**6])
    uniform = rng.choice([F(0), F(0), F(1, 4), F(1, 3)])
    positions = [F(rng.randint(0, den), den) for _ in range(rng.randint(0, 7))]
    positions += rng.sample(positions, rng.randint(0, len(positions)))
    raw = [rng.choice([0, 1, 2, 5]) for _ in positions]
    total = sum(raw)
    if total == 0:
        uniform = F(1)
        weights = [F(0)] * len(positions)
    else:
        weights = [F(r, total) * (1 - uniform) for r in raw]
    atoms = [[_as_written(rng, t), _as_written(rng, w)] for t, w in zip(positions, weights)]
    for _ in range(rng.choice([0, 0, 0, 1, 2, 3])):
        if not atoms:
            break
        k, field = rng.randrange(len(atoms)), rng.randrange(2)
        atoms[k][field] = rng.choice(
            BAD_SCALARS + [F(-1, 4), F(5, 4), F(-1, den), F(den + 1, den)]
        )
    if rng.random() < 0.1:
        uniform = rng.choice([F(-1, 8), "x", uniform + F(1, den)])
    return [tuple(atom) for atom in atoms], _as_written(rng, uniform) if isinstance(uniform, F) else uniform


def test_make_functional_matches_the_fraction_reference():
    def outcome(build, atoms, uniform):
        try:
            return build(iter(atoms), uniform)
        except ValueError as exc:  # FunctionalError is a ValueError
            return type(exc), str(exc)

    def views(result):
        """A Functional's Fraction views, after checking that its T and W
        are the lcms of its own denominators."""
        if not isinstance(result, Functional):
            return result
        assert result.t_scale == lcm(*(x.position.denominator for x in result.atoms))
        assert result.w_scale == lcm(
            result.uniform_weight.denominator, *(a.weight.denominator for a in result.atoms)
        )
        return result.atoms, result.uniform_weight

    rng = random.Random("make-functional")
    kinds = set()
    for _ in range(1500):
        atoms, uniform = _raw_functional(rng)
        got = views(outcome(make_functional, atoms, uniform))
        assert got == outcome(reference_make_functional, atoms, uniform)
        kinds.add(got[0].__name__ if isinstance(got[0], type) else "ok")
    # every exception type make_functional raises, and valid input, occurred
    assert kinds == {"ok", "FunctionalError", "DomainError", "NegativeWeightError", "MassError"}


# ---------------------------------------------------------------------------
# from_paper_convention: position = 1 - alpha
# ---------------------------------------------------------------------------


def test_paper_convention_endpoint():
    f = from_paper_convention([(1, 1)])
    assert [x.position for x in f.atoms] == [F(0)]


def test_paper_convention_three_nodes():
    f = from_paper_convention([(F(1, 4), F(3, 4)), (F(1, 2), F(1, 2)), (F(1, 4), F(1, 4))])
    assert [x.position for x in f.atoms] == [F(1, 4), F(1, 2), F(3, 4)]
    assert [a.weight for a in f.atoms] == [F(1, 4), F(1, 2), F(1, 4)]


def test_paper_convention_symmetric():
    f = from_paper_convention([(F(1, 2), F("0.9")), (F(1, 2), F(1, 10))])
    assert [x.position for x in f.atoms] == [F(1, 10), F(9, 10)]
    assert [a.weight for a in f.atoms] == [F(1, 2), F(1, 2)]


def test_paper_convention_reports_the_first_bad_pair_in_input_order():
    # the first pair's weight is read before the second pair's coefficient
    with pytest.raises(FunctionalError) as caught:
        from_paper_convention([("x", "1/2"), (1, "3/2")])
    assert str(caught.value).startswith("cannot parse rational 'x'")
    for alpha, shown in (("3/2", "3/2"), ("-1/4", "-1/4"), (2, "2")):
        with pytest.raises(DomainError) as caught:
            from_paper_convention([(1, alpha)])
        assert str(caught.value) == f"coefficient {shown} outside [0, 1]"


# good values, and values bad in each way a reader can refuse one
PAPER_VALUES = st.sampled_from(
    ["0", "1", "1/2", "1/3", "2/3", "2/4", F(1, 6), 1, "x", None, "3/2", "-1/3", 0.5, 2]
)


@given(
    st.lists(st.tuples(PAPER_VALUES, PAPER_VALUES), max_size=4),
    PAPER_VALUES | st.just(0),
)
def test_both_forms_build_and_refuse_alike(pairs, uniform):
    # the pairs form is the atoms form at t = 1 - alpha, down to the error
    # it reports: the same Functional, or the same exception class
    def build(make, entries):
        try:
            return make(entries, uniform)
        except FunctionalError as exc:
            return exc
    paper = build(from_paper_convention, pairs)
    atoms = []
    for a, alpha in pairs:
        try:
            t = 1 - as_fraction(alpha)
        except FunctionalError:
            t = alpha  # refused by make_functional as from_paper_convention refuses it
        atoms.append((t, a))
    direct = build(make_functional, atoms)
    if isinstance(paper, Functional):
        assert paper == direct
    else:
        assert type(paper) is type(direct)
        if isinstance(paper, DomainError):
            # "coefficient c outside [0, 1]" and "atom position 1 - c outside [0, 1]"
            _, alpha, *_ = str(paper).split()
            assert str(direct).split()[:3] == ["atom", "position", str(1 - F(alpha))]


# ---------------------------------------------------------------------------
# distribution functions
# ---------------------------------------------------------------------------


def cdf_value(f, t):
    return d_value(difference(f, UNIT_AT_ONE), F(t)) + (t == 1)


def cdf_left_limit(f, t):
    return d_left_limit(difference(f, UNIT_AT_ONE), F(t))


def test_cdf_midpoint_step():
    assert cdf_value(MIDPOINT, 0) == 0
    assert cdf_value(MIDPOINT, F(1, 3)) == 0
    assert cdf_value(MIDPOINT, F(1, 2)) == 1  # right-continuous jump
    assert cdf_left_limit(MIDPOINT, F(1, 2)) == 0
    assert cdf_value(MIDPOINT, 1) == 1


def test_cdf_uniform_ramp():
    for t in (0, F(1, 7), F(1, 2), F(9, 10), 1):
        assert cdf_value(UNIFORM, t) == t


def test_cdf_mixture_jump_on_ramp():
    f = make_functional([(F(1, 2), F(1, 2))], uniform_weight=F(1, 2))
    assert cdf_value(f, F(1, 4)) == F(1, 8)
    assert cdf_left_limit(f, F(1, 2)) == F(1, 4)
    assert cdf_value(f, F(1, 2)) == F(3, 4)
    assert cdf_value(f, 1) == 1


def test_cdf_atom_at_one():
    assert cdf_value(TRAPEZOID, 0) == F(1, 2)
    assert cdf_left_limit(TRAPEZOID, 1) == F(1, 2)
    assert cdf_value(TRAPEZOID, 1) == 1


# ---------------------------------------------------------------------------
# evaluate; the barycenter is evaluate(f, 0), through h_0(t) = t
# ---------------------------------------------------------------------------


def test_barycenters():
    assert evaluate(MIDPOINT, 0) == F(1, 2)
    assert evaluate(SIMPSON, 0) == F(1, 2)
    assert evaluate(make_functional([(F(1, 10), F(1, 2)), (F(9, 10), F(1, 2))]), 0) == F(1, 2)
    assert evaluate(UNIFORM, 0) == F(1, 2)


def test_evaluate_hinge():
    assert evaluate(MIDPOINT, F(1, 2)) == 0
    assert evaluate(UNIFORM, F(1, 2)) == F(1, 8)
    assert evaluate(TRAPEZOID, F(1, 2)) == F(1, 4)
    # s is any rational, read as as_fraction reads it
    assert evaluate(TRAPEZOID, "1/2") == evaluate(TRAPEZOID, "0.5") == F(1, 4)
    assert evaluate(TRAPEZOID, 1) == 0


def test_simpson_integrates_the_square_exactly():
    # Simpson integrates t^2 exactly: 1/6*0 + 2/3*(1/4) + 1/6*1 = 1/3
    assert second_moment(SIMPSON) == F(1, 3)
    assert second_moment(UNIFORM) == F(1, 3)


def test_evaluate_rejects_unknown_functions():
    # a hinge is named by a rational s; a callable or a float names none
    for f in (lambda t: t**3, 0.5, True):
        with pytest.raises(FunctionalError):
            evaluate(UNIFORM, f)


def test_hinge_parameter_domain():
    for s in (F(3, 2), F(-1, 2), "2"):
        with pytest.raises(DomainError):
            evaluate(UNIFORM, s)


def test_uniform_hinge_mean_matches_numeric_quadrature():
    # Independent check of the closed form (1-s)^2/2 by a midpoint sum.
    n = 4000
    for s in (F(0), F(1, 8), F(1, 3), F(1, 2), F(7, 9), F(1)):
        sf = float(s)
        total = sum(max((k + 0.5) / n - sf, 0.0) for k in range(n)) / n
        assert abs(total - float((1 - s) ** 2 / 2)) < 1e-6


def test_uniform_square_and_linear_means_match_numeric_quadrature():
    n = 4000
    mids = [(k + 0.5) / n for k in range(n)]
    assert abs(sum(t * t for t in mids) / n - 1 / 3) < 1e-6
    assert abs(sum(mids) / n - 1 / 2) < 1e-9
    assert evaluate(UNIFORM, 0) == F(1, 2)


# ---------------------------------------------------------------------------
# JSON codec
# ---------------------------------------------------------------------------


def test_json_round_trip():
    f = make_functional([(F(1, 4), F(1, 2)), (F(3, 4), F(1, 4))], F(1, 4))
    blob = {"atoms": [{"t": "1/4", "w": "1/2"}, {"t": "3/4", "w": "1/4"}], "uniform": "1/4"}
    assert functional_from_json(blob) == f


def test_json_paper_convention_form():
    blob = {"pairs": [{"alpha": "3/4", "a": "1/2"}, {"alpha": "1/4", "a": "1/2"}], "uniform": 0}
    f = functional_from_json(blob)
    assert [x.position for x in f.atoms] == [F(1, 4), F(3, 4)]


def test_json_integer_rationals_accepted():
    f = functional_from_json({"atoms": [{"t": "1/2", "w": 1}], "uniform": 0})
    assert f == MIDPOINT


def test_json_rejects_both_forms():
    with pytest.raises(ValueError):
        functional_from_json({"atoms": [], "pairs": [], "uniform": 1})
    for blob, message in [
        ([], "functional JSON must be an object, got list"),
        ({"uniform": 1}, "functional JSON needs an 'atoms' or 'pairs' key"),
        ({"atoms": [{"t": [[]], "w": 1}]}, "not a rational: got list"),
        ({"pairs": [{"a": 1, "alpha": {}}]}, "not a rational: got dict"),
        ({"atoms": [], "uniform": [1]}, "not a rational: got list"),
        # the error order of the atoms form: the shape of every entry, then
        # uniform, then atom by atom t's text, w's text, t's range and w's
        # sign, and the mass last
        ({"atoms": "x"}, "'atoms' must be a list, got str"),
        ({"atoms": [{"t": 0, "w": 1}, 1]}, "each 'atoms' entry must be an object, got int"),
        ({"atoms": [{"t": "x", "w": 1}, {"w": 1}]}, "an 'atoms' entry has no 't' key"),
        ({"atoms": [{"t": "x", "w": 1}], "uniform": "y"},
         "cannot parse rational 'y': Invalid literal for Fraction: 'y'"),
        ({"atoms": [{"t": "3/2", "w": "x"}]},
         "cannot parse rational 'x': Invalid literal for Fraction: 'x'"),
        ({"atoms": [{"t": "1/2", "w": 1}, {"t": "3/2", "w": 2}]}, "atom position 3/2 outside [0, 1]"),
        # null is refused by its type, as a list or an object is
        ({"atoms": [{"t": None, "w": 1}]}, "not a rational: got NoneType"),
        ({"atoms": [{"t": 0}]}, "an 'atoms' entry has no 'w' key"),
        ({"pairs": [{"a": 1}]}, "a 'pairs' entry has no 'alpha' key"),
        # the pairs form reports in the same order, alpha standing where t
        # stands: uniform first, a's text before alpha's range, and the
        # first bad pair wins
        ({"pairs": [{"a": "x", "alpha": "1/2"}], "uniform": "y"},
         "cannot parse rational 'y': Invalid literal for Fraction: 'y'"),
        ({"pairs": [{"a": "x", "alpha": "3/2"}]},
         "cannot parse rational 'x': Invalid literal for Fraction: 'x'"),
        ({"pairs": [{"a": "-1", "alpha": "1/2"}, {"a": "1", "alpha": "3/2"}]},
         "atom weight -1 < 0 at position 1/2"),
    ]:
        with pytest.raises(FunctionalError) as raised:
            functional_from_json(blob)
        assert str(raised.value) == message


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

seeds = st.integers(min_value=0, max_value=10**9)


@given(seeds)
def test_cdf_is_a_distribution_function(seed):
    f = rand_functional(random.Random(seed))
    d = difference(f, UNIT_AT_ONE)
    values = d_values(d)
    assert values[-1] == 0  # F_f(1) = 1
    assert d_slope(d) >= 0 and values[0] >= 0
    for t, value in zip(d.breakpoints[1:], values[1:-1]):
        assert value >= d_left_limit(d, t)
    assert d_left_limit(d, 1) <= 1


@given(seeds)
def test_barycenter_equals_linear_evaluation(seed):
    f = rand_functional(random.Random(seed))
    barycenter = sum((a.weight * a.position for a in f.atoms), start=F(0)) + f.uniform_weight / 2
    assert barycenter == evaluate(f, 0)


@given(seeds, st.integers(min_value=0, max_value=16))
def test_evaluate_is_affine_in_the_functional(seed, sixteenths):
    rng = random.Random(seed)
    f, g = rand_functional(rng), rand_functional(rng)
    lam = F(sixteenths, 16)
    blend = mix(f, g, lam)
    for s in (F(1, 3), 0):
        assert evaluate(blend, s) == lam * evaluate(f, s) + (1 - lam) * evaluate(g, s)
    assert second_moment(blend) == lam * second_moment(f) + (1 - lam) * second_moment(g)


@given(st.lists(st.tuples(st.integers(1, 30), st.integers(0, 30)), min_size=1, max_size=5))
def test_paper_convention_positions_are_one_minus_alpha(raw):
    pairs = []
    for num, alpha_num in raw:
        pairs.append((F(num, 100), F(alpha_num, 30)))
    total = sum(w for w, _ in pairs)
    pairs = [(w / total, alpha) for w, alpha in pairs]
    f = from_paper_convention(pairs)
    expected = sorted({1 - alpha for _, alpha in pairs})
    assert [x.position for x in f.atoms] == expected
