"""The names the benchmark harness traces and calls.

bench/tracer.py wraps, by name, the functions each quadorder module
defines and lists in its __all__, plus DiffFunction.max_g; its summary
looks up cli.run_threshold and ordering.decide, and its size counters
read attributes of what difference, decide, make_functional and
refine_grid take or return; they see JSON input through the one call of
make_functional or from_paper_convention that functional_from_json
makes.  bench/workloads.py calls cli.main, cli.run_agreement,
cli._SAMPLERS and cli.THEOREM_IDS, and reads fields of the agreement
summary.  The benchmark is not part of this suite, so a
rename here is the first place such a break shows.
"""

from __future__ import annotations

import inspect
import json
from pathlib import Path

import pytest

import quadorder
from quadorder import cli, difference, functionals, make_functional, refine_grid

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def test_per_layer_names_are_traceable_functions():
    per_layer = json.loads(BENCHMARK.read_text(encoding="utf-8"))["per_layer"]
    # <module>.<function>.<measure>; two-part names are module-wide counters
    traced = {tuple(m["name"].split(".")[:2]) for m in per_layer if m["name"].count(".") == 2}
    assert ("cli", "run_threshold") in traced and ("ordering", "decide") in traced
    missing = []
    for short, attr in sorted(traced):
        module = getattr(quadorder, short)
        if (short, attr) == ("ordering", "max_g"):
            fn = module.DiffFunction.__dict__.get(attr)
            ok = inspect.isfunction(fn)
        else:
            fn = getattr(module, attr, None)
            ok = (
                attr in module.__all__
                and inspect.isfunction(fn)
                and fn.__module__ == module.__name__
            )
        if not ok:
            missing.append(f"{short}.{attr}")
    assert missing == []


def test_workload_names_exist():
    assert inspect.isfunction(cli.main)
    assert inspect.isfunction(cli.run_agreement)
    assert set(cli._SAMPLERS) == set(cli.THEOREM_IDS)
    assert all(callable(sampler) for sampler in cli._SAMPLERS.values())


def test_the_attributes_the_benchmark_reads_exist():
    # each read below is one the tracer's size counters or the agree
    # workload's check makes, in the same form
    bits = lambda q: max(q.numerator.bit_length(), q.denominator.bit_length())
    a = make_functional([(0, "1/4"), ("1/2", "1/2"), (1, "1/4")])
    b = make_functional([("1/3", "1/2")], "1/2")
    assert len(a.atoms) == 3
    assert len(difference(a, b).breakpoints) >= 2
    assert max(bits(g) for g in difference(a, b).cumulative) >= 1
    assert [bits(func.uniform_weight) for func in (a, b)] == [1, 2]
    for func in (a, b):
        assert all(max(bits(t.position), bits(t.weight)) >= 1 for t in func.atoms)
    assert len(refine_grid(a, b)) >= 2
    s = cli.run_agreement("two-vs-three", 2, 0)
    assert (s.samples, s.holds_count + s.fails_count, len(s.disagreements)) == (2, 2, 0)


@pytest.mark.parametrize("scalar", [None, lambda _, v: v])
def test_json_input_reaches_the_traced_builders_once(monkeypatch, scalar):
    # the tracer wraps functionals.make_functional by name, and its size
    # counters read the atoms that call returns
    calls = []

    def counted(name):
        builder = getattr(functionals, name)

        def wrapper(*args):
            calls.append(name)
            return builder(*args)

        return wrapper

    for name in ("make_functional", "from_paper_convention"):
        monkeypatch.setattr(functionals, name, counted(name))
    atoms = {"atoms": [{"t": "1/2", "w": 1}]}
    pairs = {"pairs": [{"a": "1/2", "alpha": 0}, {"a": "1/2", "alpha": 1}]}
    for obj, name in ((atoms, "make_functional"), (pairs, "from_paper_convention")):
        calls.clear()
        functionals.functional_from_json(obj, scalar)
        assert calls == [name]
