"""Spans, counters and per-layer metrics for the traced run.

``Tracer.install`` replaces each target function, in every chordscan module
(and every extra module given) that holds it, by a wrapper that records a
span -- name, start, end, parent span, phase -- and, for some targets,
counts taken from the arguments or the result. ``uninstall`` puts the
originals back. Nothing in chordscan itself is edited.

Evaluators handed to ``find_blind_spots`` and ``first_zero_along`` are
replaced by a counting proxy, so the evaluations each search makes are
counted where they happen.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np


class CountingEvaluator:
    """Evaluator proxy that counts calls under ``key``; other attributes pass through."""

    def __init__(self, evaluator, tracer, key: str):
        self._evaluator = evaluator
        self._tracer = tracer
        self._key = key

    def __call__(self, xi):
        self._tracer.count(self._key)
        return self._evaluator(xi)

    def __getattr__(self, name):
        return getattr(self._evaluator, name)


def _grid_chords(tracer, args, result):
    tracer.count("exact.grid_chords", len(args[1]) * len(args[2]))


def _node_request(tracer, args, result):
    tracer.maximum("quadrature.node_max", int(args[0]))


def _periodic_nodes(tracer, args, result):
    tracer.count("quadrature.periodic_mean_nodes", result[1])


def _realizations(tracer, args, result):
    tracer.count("semiclassical.realizations_found", len(result.realizations))


def _composite_flag(tracer, args, result):
    flag = result.flag.value
    if flag in ("near_caustic", "evanescent"):
        tracer.count(f"semiclassical.{flag}")


def _search(tracer, args, result):
    tracer.count("blindspots.seeds", result.n_seeds)
    tracer.count("blindspots.spots", len(result.spots))


# (module, function, span name or None for counts only,
#  observer of (tracer, args, result), proxy key)
TARGETS = (
    ("chordscan.exact", "evolved_chi", "exact.point", None, None),
    ("chordscan.exact", "evolved_chi_grid", "exact.grid", _grid_chords, None),
    ("chordscan.exact", "fourier_invariance_residual", "exact.certificate", None, None),
    ("chordscan.exact", "correlation_C", "exact.certificate", None, None),
    ("chordscan.quadrature", "_gl_nodes", None, _node_request, None),
    ("chordscan.quadrature", "leggauss", "quadrature.node_build", None, None),
    ("chordscan.quadrature", "periodic_mean", "quadrature.periodic_mean", _periodic_nodes, None),
    ("chordscan.quadrature", "richardson_derivative", "quadrature.richardson", None, None),
    ("chordscan.smallchord", "chi_small_grid", "smallchord.grid", None, None),
    ("chordscan.smallchord", "chi_small", "smallchord.point", None, None),
    ("chordscan.smallchord", "moments_from_chi", "smallchord.moments", None, None),
    ("chordscan.semiclassical", "tangency_points", "semiclassical.tangency", None, None),
    ("chordscan.semiclassical", "chord_realizations", "semiclassical.realization",
     _realizations, None),
    ("chordscan.semiclassical", "chi_semiclassical", "semiclassical.composite",
     _composite_flag, None),
    ("chordscan.blindspots", "find_blind_spots", "blindspots.search", _search,
     "blindspots.newton_evals"),
    ("chordscan.blindspots", "first_zero_along", "blindspots.ray", None, "blindspots.ray_evals"),
    ("chordscan.blindspots", "nodal_contours", "blindspots.nodal", None, None),
    ("chordscan.gridscan", "scan_grid", "gridscan.scan", None, None),
    ("chordscan.cli", "main", "cli", None, None),
)


class Tracer:
    """In-memory spans and counters, grouped by phase ("setup" or a pass number)."""

    def __init__(self):
        self.phase = "setup"
        # each span is [name, start, end, parent index or -1, phase]
        self.spans: list[list] = []
        self.counters: dict = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[self.phase, key] += amount

    def maximum(self, key: str, value: float) -> None:
        slot = (self.phase, key)
        self.counters[slot] = max(self.counters[slot], value)

    def _wrap(self, fn, name, observe, proxy_key):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if proxy_key is not None:
                args = (CountingEvaluator(args[0], tracer, proxy_key),) + args[1:]
            if name is None:
                result = fn(*args, **kwargs)
                observe(tracer, args, result)
                return result
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, time.perf_counter(), None, parent, tracer.phase]
            tracer.spans.append(span)
            tracer._stack.append(len(tracer.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if observe is not None:
                observe(tracer, args, result)
            return result

        return traced

    def install(self, extra_modules=()) -> None:
        holders = [m for key, m in list(sys.modules.items())
                   if key == "chordscan" or key.startswith("chordscan.")]
        holders += list(extra_modules)
        for module_name, attr, name, observe, proxy_key in TARGETS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self._wrap(original, name, observe, proxy_key)
            for holder in holders:
                for key in [k for k, v in vars(holder).items() if v is original]:
                    setattr(holder, key, wrapper)
                    self._patched.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()

    # -- aggregation -----------------------------------------------------

    def phase_totals(self, phase) -> dict:
        """Per span name: calls, total seconds and self seconds within ``phase``."""
        child_time = defaultdict(float)
        for name, start, end, parent, ph in self.spans:
            if ph == phase and parent >= 0:
                child_time[parent] += end - start
        totals = defaultdict(lambda: [0, 0.0, 0.0])
        for index, (name, start, end, parent, ph) in enumerate(self.spans):
            if ph != phase:
                continue
            slot = totals[name]
            slot[0] += 1
            slot[1] += end - start
            slot[2] += end - start - child_time[index]
        return totals

    def durations_ms(self, name: str, phases) -> np.ndarray:
        phases = set(phases)
        return np.array([1e3 * (end - start) for n, start, end, _, ph in self.spans
                         if n == name and ph in phases])

    def counter(self, phase, key: str) -> float:
        return self.counters.get((phase, key), 0.0)

    def dump(self) -> dict:
        return {
            "spans": [{"name": n, "start": s, "end": e, "parent": p, "phase": ph}
                      for n, s, e, p, ph in self.spans],
            "counters": [{"phase": ph, "key": k, "value": v}
                         for (ph, k), v in self.counters.items()],
        }


def _tail(samples_ms: np.ndarray):
    """(median, tail value, tail percentile) of pooled span durations.

    The tail is the highest of p99.9, p99 and p90 with at least ten samples
    beyond it; with fewer than forty samples only the median is meaningful
    and is repeated as the tail (percentile 50). No samples give zeros.
    """
    n = samples_ms.size
    if n == 0:
        return 0.0, 0.0, 0.0
    median = float(np.percentile(samples_ms, 50))
    for pct in (99.9, 99.0, 90.0):
        if n >= 40 and n * (1.0 - pct / 100.0) >= 10:
            return median, float(np.percentile(samples_ms, pct)), pct
    return median, median, 50.0


def per_layer_metrics(tracer: Tracer, traced_passes: int, traced_s: float, untraced_s: float,
                      import_s: float, warmup_s: float, out_dir, speed_factor: float) -> dict:
    """Per-layer metrics of the traced passes: the median over passes of each
    pass's figure, pooled percentiles for per-call timings.

    The traced passes are phases 0 .. traced_passes - 1. ``traced_s`` and
    ``untraced_s`` are the pass times of the two kinds of pass, in nominal
    seconds; ``speed_factor`` is the median yardstick time over its nominal
    value.
    """
    phases = list(range(traced_passes))
    totals = {ph: tracer.phase_totals(ph) for ph in phases}

    def per_pass(fn):
        return float(statistics.median(fn(ph) for ph in phases))

    def calls(name):
        return per_pass(lambda ph: totals[ph][name][0] if name in totals[ph] else 0)

    def seconds(name):
        return per_pass(lambda ph: totals[ph][name][1] if name in totals[ph] else 0.0)

    def self_seconds(name):
        return per_pass(lambda ph: totals[ph][name][2] if name in totals[ph] else 0.0)

    def counted(key):
        return per_pass(lambda ph: tracer.counter(ph, key))

    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": float(value), "unit": unit}

    def timed_calls(prefix, span):
        put(f"{prefix}_calls", calls(span), "count")
        put(f"{prefix}_s", seconds(span), "s")
        p50, tail, pct = _tail(tracer.durations_ms(span, phases))
        put(f"{prefix}_ms_p50", p50, "ms")
        put(f"{prefix}_ms_tail", tail, "ms")
        put(f"{prefix}_tail_pct", pct, "percentile")

    put("exact.grid_s", seconds("exact.grid"), "s")
    put("exact.grid_chords", counted("exact.grid_chords"), "count")
    timed_calls("exact.point", "exact.point")
    put("exact.certificate_s", seconds("exact.certificate"), "s")

    setup_totals = tracer.phase_totals("setup")
    put("quadrature.node_build_setup_s", setup_totals["quadrature.node_build"][1], "s")
    put("quadrature.node_build_s", seconds("quadrature.node_build"), "s")
    put("quadrature.node_max", max(tracer.counter(ph, "quadrature.node_max")
                                   for ph in ["setup"] + phases), "count")
    put("quadrature.periodic_mean_calls", calls("quadrature.periodic_mean"), "count")
    put("quadrature.periodic_mean_nodes", counted("quadrature.periodic_mean_nodes"), "count")
    put("quadrature.richardson_calls", calls("quadrature.richardson"), "count")

    put("smallchord.grid_s", seconds("smallchord.grid"), "s")
    put("smallchord.point_calls", calls("smallchord.point"), "count")
    put("smallchord.point_s", seconds("smallchord.point"), "s")
    put("smallchord.moments_s", seconds("smallchord.moments"), "s")

    timed_calls("semiclassical.realization", "semiclassical.realization")
    timed_calls("semiclassical.tangency", "semiclassical.tangency")
    put("semiclassical.realizations_found", counted("semiclassical.realizations_found"), "count")
    put("semiclassical.near_caustic", counted("semiclassical.near_caustic"), "count")
    put("semiclassical.evanescent", counted("semiclassical.evanescent"), "count")
    put("semiclassical.composite_self_s", self_seconds("semiclassical.composite"), "s")

    seeds = counted("blindspots.seeds")
    spots = counted("blindspots.spots")
    put("blindspots.search_s", seconds("blindspots.search"), "s")
    put("blindspots.search_self_s", self_seconds("blindspots.search"), "s")
    put("blindspots.newton_evals", counted("blindspots.newton_evals"), "count")
    put("blindspots.seeds", seeds, "count")
    put("blindspots.spots", spots, "count")
    put("blindspots.spots_per_seed", spots / seeds if seeds else 0.0, "ratio")
    put("blindspots.ray_s", seconds("blindspots.ray"), "s")
    put("blindspots.ray_evals", counted("blindspots.ray_evals"), "count")
    put("blindspots.nodal_s", seconds("blindspots.nodal"), "s")

    put("gridscan.scan_calls", calls("gridscan.scan"), "count")
    put("gridscan.scan_self_s", self_seconds("gridscan.scan"), "s")

    put("cli.calls", calls("cli"), "count")
    put("cli.self_s", self_seconds("cli"), "s")
    put("cli.bytes_written", sum(p.stat().st_size for p in Path(out_dir).iterdir()), "B")

    put("process.import_s", import_s, "s")
    put("process.warmup_s", warmup_s, "s")
    put("process.speed_factor", speed_factor, "ratio")

    put("trace.pass_s", traced_s, "s")
    put("trace.untraced_pass_s", untraced_s, "s")
    put("trace.overhead_pct", 100.0 * (traced_s / untraced_s - 1.0), "%")
    return metrics
