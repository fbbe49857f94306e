"""The names the benchmark harness traces and calls.

bench/tracer.py wraps, by name, the functions each quadorder module
defines and lists in its __all__, plus DiffFunction.max_g; its summary
looks up cli.run_threshold and ordering.decide.  bench/workloads.py calls
cli.main, cli.run_agreement, cli._SAMPLERS and cli.THEOREM_IDS.  The
benchmark is not part of this suite, so a rename here is the first place
such a break shows.
"""

from __future__ import annotations

import inspect
import json
from pathlib import Path

import quadorder
from quadorder import cli

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
