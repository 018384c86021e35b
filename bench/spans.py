"""Spans around calls into latrec's public functions, for the traced run.

``Tracer.install`` replaces each function named in ``SELF_TIME`` at every
latrec module attribute bound to it, which is the name its callers look it
up by (``latrec.closed_form.expand_stencil_power`` for ``closed_rows``,
``latrec.cli.closed_rows`` for the CLI, ...).  Each wrapper records a span
with its parent span, adds the counters ``COUNTERS`` derives from the call's
arguments and result, and keeps the result so value sizes can be measured
after timing.  ``Tracer.uninstall`` puts the original functions back; the
untraced run never installs anything.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass
from math import comb

# the pointwise evaluators the workloads reach
POINT_EVALUATORS = ("closed_value", "eval_nd", "eval_tridiagonal", "eval_implicit")

# metric -> (latrec module, functions whose self time the metric sums)
SELF_TIME = {
    "config.parse_s": ("config", ("load_config", "parse_config")),
    "combinatorics.expand_s": ("combinatorics", ("expand_stencil_power",)),
    "closed_form.rows_s": ("closed_form", ("closed_rows",)),
    "closed_form.point_s": ("closed_form", POINT_EVALUATORS),
    "oracle.step_s": ("oracle", ("oracle_evolve", "oracle_step")),
    "oracle.sweep_s": ("oracle", ("oracle_sweep_implicit",)),
    "oracle.window_s": ("oracle", ("auto_window", "sweep_window")),
    "oracle.verify_s": ("oracle", ("verify_closed_vs_oracle",)),
    "models.walk_s": ("models", ("random_walk_distribution",)),
    "models.heat_s": ("models", ("heat_profile",)),
    "cli.table_s": ("cli", ("main",)),
    "cli.format_s": ("cli", ("format_table",)),
}


@dataclass(frozen=True)
class Span:
    name: str
    parent: int  # index into the span list, -1 for a root span
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread and nest, so children never overlap and their
    durations add up."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


def _compositions(parts: int, total: int) -> int:
    """Number of compositions of `total` into `parts` nonnegative parts."""
    return comb(total + parts - 1, parts - 1)


def _implicit_terms(a, b, c, psi, i, j) -> int:
    # the differenced row psi - a*shift(psi) lives on supp(psi) and supp(psi)+1
    support = {k + d for (k,) in psi.values for d in (0, 1)}
    return sum(min(i - k, j) + 1 for k in support if k <= i)


def _step_updates(spec, state) -> int:
    return sum(len(state.rows[e.time_level].values) for e in spec.stencil)


def _sweep_updates(a, b, c, psi, window, j_max) -> int:
    if not psi.values or window is None:
        return 0
    return 3 * (window.hi[0] - window.lo[0]) * j_max


# function -> callable(result, *args, **kwargs) -> {counter: increment}
COUNTERS = {
    "combinatorics.expand_stencil_power": lambda terms, spec, j: {
        "combinatorics.expand_calls": 1,
        "combinatorics.compositions": _compositions(len(spec.stencil), j),
        "combinatorics.terms": len(terms)},
    "closed_form.closed_rows": lambda rows, *a, **k: {
        "closed_form.row_support": sum(len(r.values) for r in rows)},
    "closed_form.eval_nd": lambda v, spec, psi, query, time: {
        "closed_form.point_terms": _compositions(len(spec.stencil), time)},
    "closed_form.eval_tridiagonal": lambda v, a, b, c, psi, i, j, c_exponent="j-m": {
        "closed_form.point_terms": (j + 1) * (j + 2) // 2},
    "closed_form.eval_implicit": lambda v, *a: {
        "closed_form.point_terms": _implicit_terms(*a)},
    "oracle.oracle_step": lambda state, spec, prev: {
        "oracle.steps": 1, "oracle.cell_updates": _step_updates(spec, prev)},
    "oracle.oracle_sweep_implicit": lambda rows, *a: {
        "oracle.steps": a[-1], "oracle.cell_updates": _sweep_updates(*a)},
    "oracle.auto_window": lambda box, *a, **k: {
        "oracle.window_cells": box.size() if box is not None else 0},
    "oracle.sweep_window": lambda box, *a, **k: {"oracle.window_cells": box.size()},
    "oracle.verify_closed_vs_oracle": lambda report, *a, **k: {
        "oracle.values_checked": report.checked,
        "oracle.mismatches": len(report.mismatches)},
    "config.parse_config": lambda cfg, *a: {"config.docs": 1},
}

# the per-layer metrics that are times
TIMES = (*SELF_TIME, "bench.unattributed_s")

# every counter COUNTERS can increment, reported as 0 when no call did
COUNTED = ("combinatorics.expand_calls", "combinatorics.compositions",
           "combinatorics.terms", "closed_form.row_support", "closed_form.point_terms",
           "oracle.steps", "oracle.cell_updates", "oracle.window_cells",
           "oracle.values_checked", "oracle.mismatches", "config.docs")

# functions whose results are the exact values the program produced
VALUE_PRODUCERS = {"closed_form.closed_rows", "oracle.oracle_evolve",
                   "oracle.oracle_sweep_implicit", "models.random_walk_distribution",
                   "models.heat_profile"} | {f"closed_form.{f}" for f in POINT_EVALUATORS}


class Tracer:
    """Span and counter recorder for one traced phase."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: dict[str, int] = {}
        self.outputs: list = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans, self.counts, self.outputs = [], {}, []

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        keep = name in VALUE_PRODUCERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = Span(name, parent, start, end)
            if counter is not None:
                for key, inc in counter(result, *args, **kwargs).items():
                    self.counts[key] = self.counts.get(key, 0) + inc
            if keep:
                self.outputs.append(result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "latrec" or n.startswith("latrec.")]
        for layer, names in SELF_TIME.values():
            home = importlib.import_module(f"latrec.{layer}")
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    def layer_metrics(self, wall: float) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset;
        `wall` is the benchmark's own timing of the same calls."""
        spans = self.spans
        own = self_times(spans)
        by_name: dict[str, float] = {}
        for s, t in zip(spans, own):
            by_name[s.name] = by_name.get(s.name, 0.0) + t
        out = {metric: sum(by_name.get(f"{layer}.{f}", 0.0) for f in names)
               for metric, (layer, names) in SELF_TIME.items()}
        point = {f"closed_form.{f}" for f in POINT_EVALUATORS}
        out["closed_form.point_calls"] = sum(
            1 for s in spans
            if s.name in point and (s.parent < 0 or spans[s.parent].name not in point))
        for key in COUNTED:
            out[key] = self.counts.get(key, 0)
        comps = out["combinatorics.compositions"]
        out["combinatorics.terms_per_composition"] = (
            out["combinatorics.terms"] / comps if comps else 0.0)
        out["bench.unattributed_s"] = wall - sum(s.duration for s in spans if s.parent < 0)
        return out
