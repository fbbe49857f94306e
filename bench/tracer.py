"""Span tracing of quadorder from outside the package.

`Tracer.install` replaces each public function of the five modules with
a wrapper that records a span (name, start, end, parent, op id), and
rebinds it under every name that refers to it in any quadorder module,
so that `cli.decide`, `ordering.difference` and the package re-exports
all go through the wrapper.  `DiffFunction.max_g` is wrapped on the
class.  Spans live in flat arrays until the run ends.

Per-value helpers (`as_fraction`, `parse_rational`, `format_rational`)
are left alone: they run once per rational, and wrapping them would
make the tracing cost dominate the layers that call them.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from time import perf_counter

MODULES = ("functionals", "ordering", "oracle", "theorems", "cli")
UNWRAPPED = {"as_fraction", "parse_rational", "format_rational"}
METHODS = (("ordering", "DiffFunction", "max_g"),)
ROOT = "op"

# Functions whose result or arguments feed a size counter.  The objects
# are kept until the op ends and measured between ops, outside every span.
OBSERVED = {
    "ordering.difference",
    "ordering.decide",
    "functionals.make_functional",
    "oracle.refine_grid",
}


def _package_modules() -> list:
    return [m for name, m in sys.modules.items() if name == "quadorder" or name.startswith("quadorder.")]


def _targets() -> list[tuple[str, object, str, object]]:
    """(span name, owner, attribute, original) for everything wrapped."""
    import quadorder

    out = []
    for short in MODULES:
        module = getattr(quadorder, short)
        for attr in module.__all__:
            fn = getattr(module, attr)
            if attr in UNWRAPPED or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            out.append((f"{short}.{attr}", module, attr, fn))
    for short, cls_name, attr in METHODS:
        cls = getattr(getattr(quadorder, short), cls_name)
        out.append((f"{short}.{attr}", cls, attr, cls.__dict__[attr]))
    return out


def assert_unpatched() -> None:
    """Raise if any quadorder name still points at a tracing wrapper."""
    for module in _package_modules():
        for attr, value in vars(module).items():
            if getattr(value, "__bench_span__", None):
                raise RuntimeError(f"{module.__name__}.{attr} is still traced")
    for _, owner, attr, _ in _targets():
        if getattr(getattr(owner, attr), "__bench_span__", None):
            raise RuntimeError(f"{owner.__name__}.{attr} is still traced")


def bits(q) -> int:
    return max(q.numerator.bit_length(), q.denominator.bit_length())


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = [ROOT]
        self.name_ids: array = array("l")
        self.parents: array = array("l")
        self.ops: array = array("l")
        self.starts: array = array("d")
        self.ends: array = array("d")
        self.stack: list[int] = [-1]
        self.op = -1
        self.observed: list[tuple[int, tuple, object]] = []
        self.sizes = dict.fromkeys(
            ("difference", "breakpoints", "g_bits", "input_bits", "make_functional",
             "atoms", "refine_grid", "grid_points"),
            0,
        )
        self._wrapped = [(owner, attr, fn, self._wrap(name, fn)) for name, owner, attr, fn in _targets()]
        self._bindings: list[tuple[object, str, object, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self.stack[-1])
        self.ops.append(self.op)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self.stack.pop()

    def _wrap(self, name: str, fn):
        self.names.append(name)
        name_id = len(self.names) - 1
        open_, close = self._open, self._close
        observed = self.observed if name in OBSERVED else None

        def wrapper(*args, **kwargs):
            idx = open_(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if observed is not None:
                observed.append((name_id, args, result))
            return result

        wrapper.__bench_span__ = name
        wrapper.__wrapped__ = fn
        return wrapper

    def begin_op(self) -> int:
        self.op += 1
        return self._open(0)

    def end_op(self, idx: int) -> None:
        self._close(idx)

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        if not self._bindings:
            modules = _package_modules()
            for owner, attr, fn, wrapper in self._wrapped:
                if isinstance(owner, type):
                    self._bindings.append((owner, attr, fn, wrapper))
                    continue
                for module in modules:
                    for alias, value in vars(module).items():
                        if value is fn:
                            self._bindings.append((module, alias, fn, wrapper))
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, fn, _ in self._bindings:
            setattr(owner, attr, fn)

    # -- results -----------------------------------------------------------

    def write(self, path) -> None:
        """One line per span: name, start and end in microseconds from the
        first span, parent index, op id."""
        origin = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name,start_us,end_us,parent,op\n")
            for i in range(len(self.starts)):
                handle.write(
                    f"{self.names[self.name_ids[i]]},{(self.starts[i] - origin) * 1e6:.1f},"
                    f"{(self.ends[i] - origin) * 1e6:.1f},{self.parents[i]},{self.ops[i]}\n"
                )

    def summary(self, op_count: int) -> dict[str, float]:
        """Per-layer metrics, normalised per op where they are sums."""
        n = len(self.starts)
        duration = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += duration[i]
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for i in range(n):
            name = self.names[self.name_ids[i]]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + duration[i] - child[i]
        out: dict[str, float] = {}
        for name in self.names[1:]:
            out[f"{name}.calls"] = calls.get(name, 0) / op_count
            out[f"{name}.self_ms"] = self_s.get(name, 0.0) * 1e3 / op_count
        out["trace.uncovered_ms"] = self_s.get(ROOT, 0.0) * 1e3 / op_count

        threshold_id = self.names.index("cli.run_threshold")
        decide_id = self.names.index("ordering.decide")
        under_threshold = 0
        for i in range(n):
            if self.name_ids[i] == decide_id:
                p = self.parents[i]
                while p >= 0 and self.name_ids[p] != threshold_id:
                    p = self.parents[p]
                under_threshold += p >= 0
        thresholds = calls.get("cli.run_threshold", 0)
        out["cli.run_threshold.decides_per_call"] = under_threshold / thresholds if thresholds else 0.0
        decides = calls.get("ordering.decide", 0)
        out["ordering.difference.per_decide"] = (
            calls.get("ordering.difference", 0) / decides if decides else 0.0
        )
        out.update(self._sizes())
        return out

    def absorb(self) -> None:
        """Fold the objects observed during the last op into the size
        counters, then drop them; called between ops, outside any span."""
        s = self.sizes
        for name_id, args, result in self.observed:
            name = self.names[name_id]
            if name == "ordering.difference":
                s["difference"] += 1
                s["breakpoints"] += len(result.breakpoints)
                s["g_bits"] = max(s["g_bits"], *(bits(g) for g in result.cumulative))
            elif name == "ordering.decide":
                for func in args[:2]:
                    s["input_bits"] = max(
                        s["input_bits"],
                        bits(func.uniform_weight),
                        *(max(bits(a.position), bits(a.weight)) for a in func.atoms),
                    )
            elif name == "functionals.make_functional":
                s["make_functional"] += 1
                s["atoms"] += len(result.atoms)
            elif name == "oracle.refine_grid":
                s["refine_grid"] += 1
                s["grid_points"] += len(result)
        self.observed.clear()

    def _sizes(self) -> dict[str, float]:
        s = self.sizes

        def mean(total: str, count: str) -> float:
            return s[total] / s[count] if s[count] else 0.0

        return {
            "ordering.difference.breakpoints": mean("breakpoints", "difference"),
            "ordering.g_bits_max": float(s["g_bits"]),
            "ordering.decide.input_bits_max": float(s["input_bits"]),
            "functionals.make_functional.atoms": mean("atoms", "make_functional"),
            "oracle.refine_grid.grid_points": mean("grid_points", "refine_grid"),
        }
