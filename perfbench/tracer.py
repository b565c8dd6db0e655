"""Per-layer tracing of jamgame from outside the package.

Wraps the public functions of the six modules (and the density methods of
the distribution classes) by replacing module attributes, so every call
path is seen, including names one module imported from another (for
example ``jamgame.reactive.expectation`` or ``jamgame.cli.solve_pga_ccp``).
Each call records a span (id, name, parent span, operation, start, end)
in a compact in-memory array; the spans are written out once, at the end of a
run. Self time is a span's duration minus the time covered by its child
spans, so the self times of all spans sum to the duration of the root
spans (one ``cli.main`` per operation), which ``run.py`` checks.
"""

from __future__ import annotations

import inspect
import itertools
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

MODULES = ("dist", "quadrature", "nonsensing", "reactive", "simulate", "cli")
DENSITY_METHODS = ("pdf", "cdf", "ppf", "tail_second_moment", "sample")
# Both reactive solvers report under one span name.
ALIASES = {"reactive.solve_pga_ccp": "reactive.solve", "reactive.solve_gda": "reactive.solve"}


def _points(args, kwargs):
    return int(np.size(args[1] if len(args) > 1 else next(iter(kwargs.values()))))


def _count_integrate(counters, args, kwargs, result):
    counters["quadrature.integrate.nodes"] += result.neval
    counters["quadrature.integrate.err_max"] = max(counters["quadrature.integrate.err_max"],
                                                   result.error)
    tol = kwargs.get("tol", args[1] if len(args) > 1 else None)
    if tol is None:
        tol = sys.modules["jamgame.quadrature"].DEFAULT_TOL
    warn = kwargs.get("warn", args[3] if len(args) > 3 else True)
    if warn and result.error > tol:
        counters["quadrature.accuracy_warnings"] += 1


def _count_solve(counters, args, kwargs, result):
    _, trace, cert = result
    counters["reactive.solve.iterations"] += trace.iterations
    counters["reactive.certified"] += bool(cert.certified)
    key = {"EpsilonFNE": "epsilon_fne", "MaxIters": "max_iters", "Stalled": "stalled"}
    counters["reactive.terminated." + key[trace.terminated_by.value]] += 1


def _count_simulate(counters, args, kwargs, result):
    counters["simulate.simulate.draws"] += result.n
    trace_path = kwargs.get("trace_path", args[4] if len(args) > 4 else None)
    if trace_path is not None:
        limit = sys.modules["jamgame.simulate"].TRACE_LIMIT
        counters["simulate.trace_rows"] += min(result.n, limit)


def _count_pdf(counters, args, kwargs, result):
    counters["dist.pdf.points"] += _points(args, kwargs)


def _count_ppf(counters, args, kwargs, result):
    counters["dist.ppf.points"] += _points(args, kwargs)


COUNTERS = {
    "quadrature.integrate": _count_integrate,
    "reactive.solve": _count_solve,
    "simulate.simulate": _count_simulate,
    "dist.pdf": _count_pdf,
    "dist.ppf": _count_ppf,
}


class Tracer:
    """Span recorder; ``install`` swaps the wrappers in, ``uninstall`` restores."""

    FIELDS = ("id", "name", "parent", "op", "start", "end")

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans = array("d")  # FIELDS, flattened, one row per finished span
        self._calls: list[int] = []
        self._self_s: list[float] = []
        self._total_s: list[float] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.op = -1
        self._next_id = itertools.count()
        self._stack: list[list] = []  # [span id, start, child seconds]
        self._patches: list[tuple[object, str, object]] = []

    def _ident(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._calls.append(0)
            self._self_s.append(0.0)
            self._total_s.append(0.0)
        return self._ids[name]

    def _wrap(self, name: str, fn):
        ident = self._ident(name)
        count = COUNTERS.get(name)
        stack, next_id, clock = self._stack, self._next_id, time.perf_counter
        record = self.spans.extend
        calls, self_s, total_s, counters = self._calls, self._self_s, self._total_s, self.counters

        def wrapper(*args, **kwargs):
            frame = [next(next_id), clock(), 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                record((frame[0], ident, parent, self.op, frame[1], end))
                calls[ident] += 1
                self_s[ident] += dur - frame[2]
                total_s[ident] += dur
                if stack:
                    stack[-1][2] += dur
            if count is not None:
                count(counters, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def calls(self, name: str) -> int:
        return self._calls[self._ids[name]] if name in self._ids else 0

    def self_seconds(self, name: str) -> float:
        return self._self_s[self._ids[name]] if name in self._ids else 0.0

    def total_seconds(self, name: str) -> float:
        """Time inside spans of ``name``, children included."""
        return self._total_s[self._ids[name]] if name in self._ids else 0.0

    def install(self) -> None:
        if self._patches:
            return
        mods = {short: sys.modules[f"jamgame.{short}"] for short in MODULES}
        originals: dict[int, object] = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    name = ALIASES.get(f"{short}.{attr}", f"{short}.{attr}")
                    originals[id(obj)] = self._wrap(name, obj)
        dist = mods["dist"]
        for cls in (dist.Gaussian, dist.Laplace, dist.Tabulated, dist.SourceDistribution):
            for attr in DENSITY_METHODS:
                fn = cls.__dict__.get(attr)
                if fn is None or (cls is dist.SourceDistribution and attr != "sample"):
                    continue
                self._patches.append((cls, attr, fn))
                setattr(cls, attr, self._wrap(f"dist.{attr}", fn))
        # Replace every reference to a wrapped function, wherever it was imported.
        for mod in list(mods.values()) + [sys.modules["jamgame"]]:
            for attr, obj in list(vars(mod).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._patches):
            setattr(owner, attr, obj)
        self._patches.clear()

    def module_self_seconds(self) -> dict[str, float]:
        out = {m: 0.0 for m in MODULES}
        for name, secs in zip(self.names, self._self_s):
            out[name.split(".", 1)[0]] += secs
        return out

    def save(self, path) -> None:
        t = np.array(self.spans, dtype=float).reshape(-1, len(self.FIELDS))
        np.savez_compressed(path, names=np.array(self.names),
                            **{f: t[:, i] for i, f in enumerate(self.FIELDS)})
