"""Layer timing from outside the package, by rebinding module attributes.

ldlab modules import each other's functions by name, so a call is traced by
replacing the attribute on the module that makes the call: ``scenarios``
calls ``forgetting_bound`` through ``ldlab.scenarios.forgetting_bound``,
while ``bound_series`` and ``eta_sweep`` call it through
``ldlab.bounds.forgetting_bound``. The wrappers are installed only for
traced passes and removed afterwards, so untraced passes run the package
as shipped.

A span's self time is its duration minus the union of its child spans'
intervals. The package runs work on thread pools (``monte_carlo_expectation``,
``eta_sweep``); a span that opens on a worker thread with no
open span of its own is the child of the innermost open span on the main
thread, which is the call that started the pool. Self times of spans that
ran in parallel therefore add up to more than wall time.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from collections import Counter, defaultdict


class _Span:
    __slots__ = ("layer", "children")

    def __init__(self, layer):
        self.layer = layer
        self.children = []


def _union_length(intervals):
    total, end = 0.0, -float("inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def dir_bytes(path):
    """Total size of the regular files under ``path``."""
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


class Tracer:
    """Self time and call counts per layer, plus exact work counters."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._installed = []
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def reset(self):
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()

    def span(self, module, attr, layer, count=None):
        """Time every call of ``module.attr`` as ``layer``.

        ``layer`` may be a function of the parent span's layer name (or None);
        ``count(args, kwargs, result)`` returns (counter, amount) pairs to add.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif stack is not self._main_stack and self._main_stack:
                parent = self._main_stack[-1]
            else:
                parent = None
            name = layer(parent.layer if parent else None) if callable(layer) else layer
            span = _Span(name)
            stack.append(span)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                with self._lock:
                    if parent is not None:
                        parent.children.append((start, end))
                    self.self_s[name] += (end - start) - _union_length(span.children)
                    self.calls[name] += 1
            if count is not None:
                extra = count(args, kwargs, result)
                with self._lock:
                    for key, amount in extra:
                        self.counts[key] += amount
            return result

        self._replace(module, attr, original, traced)

    def counter(self, module, attr, key):
        """Count calls of ``module.attr`` under ``key`` without timing them."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def counted(*args, **kwargs):
            with self._lock:
                self.counts[key] += 1
            return original(*args, **kwargs)

        self._replace(module, attr, original, counted)

    def _replace(self, module, attr, original, wrapper):
        self._installed.append((module, attr, original))
        setattr(module, attr, wrapper)

    def uninstall(self):
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)


def install_ldlab(tracer):
    """Wrap every layer boundary the per-layer metrics are defined on."""
    from ldlab import bounds, filtering, models, scenarios

    def replicate_or_run(parent):
        return "scenarios.replicate" if parent == "scenarios.mc" else "scenarios.run"

    def kernel_entries(args, kwargs, result):
        return [("filtering.kernel_entries", int(result.size))]

    def written(out_dir_index):
        def count(args, kwargs, result):
            return [("scenarios.bytes_written", dir_bytes(args[out_dir_index]))]
        return count

    for module in (models, scenarios):
        for attr in ("simulate_trajectory", "simulate_misspecified", "simulate_finite"):
            tracer.span(module, attr, "models.simulate")
    tracer.span(scenarios, "run_grid_pair", "filtering.pair")
    tracer.span(filtering, "grid_kernel", "filtering.kernel", count=kernel_entries)
    tracer.span(scenarios, "exact_filter_finite", "filtering.exact")
    tracer.span(filtering, "exact_filter_finite", "filtering.exact")
    tracer.span(filtering, "exhaustive_filter_finite", "filtering.oracle")
    tracer.span(bounds, "distance_series", "doeblin.distance")
    tracer.span(scenarios, "stability_diag_series", "doeblin.diag")
    tracer.span(scenarios, "misspec_diag_series", "doeblin.diag")
    tracer.span(bounds, "two_step_prior_mass", "bounds.phi")
    tracer.span(bounds, "set_likelihood_mass", "bounds.psi")
    tracer.counter(bounds, "quad", "bounds.quad_calls")
    tracer.counter(bounds, "transition_density", "bounds.density_calls")
    tracer.span(scenarios, "forgetting_bound", "bounds.fb")
    tracer.span(bounds, "forgetting_bound", "bounds.fb")
    tracer.span(scenarios, "bound_series", "bounds.series")
    tracer.span(scenarios, "forgetting_bound_finite", "bounds.finite")
    tracer.span(bounds, "numerator_gap", "bounds.gap")
    tracer.span(bounds, "denominator_gap", "bounds.gap")
    tracer.span(scenarios, "run_scenario", replicate_or_run)
    tracer.span(scenarios, "monte_carlo_expectation", "scenarios.mc")
    tracer.span(scenarios, "write_report", "scenarios.write", count=written(1))
    tracer.span(scenarios, "_write_mc", "scenarios.write", count=written(2))


# Layers timed by install_ldlab, in report order. Each yields <layer>_ms (self
# time per pass) and <layer>_calls.
TIMED_LAYERS = (
    "models.simulate",
    "filtering.pair", "filtering.kernel", "filtering.exact", "filtering.oracle",
    "doeblin.distance", "doeblin.diag",
    "bounds.phi", "bounds.psi", "bounds.fb", "bounds.series",
    "bounds.finite", "bounds.gap",
    "scenarios.run", "scenarios.replicate", "scenarios.mc", "scenarios.write",
)
COUNTERS = (
    "filtering.kernel_entries", "bounds.quad_calls", "bounds.density_calls",
    "scenarios.bytes_written",
)
