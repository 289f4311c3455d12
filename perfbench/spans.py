"""Span recorder for the traced pass, and the per-layer metrics built from it.

The recorder wraps public functions of each patchlab module at the name their
caller looks up at call time, so the program is measured from outside and
runs unchanged.  Spans stay in memory as four parallel arrays (layer, parent
span, start, end) until the pass ends; a layer's self time is its spans'
duration minus the duration of their child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import os
import time
from array import array

import numpy as np


def _count_members(counts, args, kwargs, result):
    counts["em_member_steps"] += np.size(result)


def _count_fd_steps(counts, args, kwargs, result):
    # micro steps of one tooth, as evolve_fd_buffered(p, pde, dt, tooth, grid) takes them
    dt, grid = args[2], args[4]
    if dt > 0:
        counts["fd_tooth_steps"] += max(1, math.ceil(dt / grid.dt - 1e-12))


def _count_lift_rows(counts, args, kwargs, result):
    counts["lift_rows"] += result.shape[0]


def _count_cos(counts, args, kwargs, result):
    field, x = args[0], args[1]
    counts["cos_evals"] += np.size(x) * field.n_modes


def _count_leapfrog(counts, args, kwargs, result):
    n_samples = result.times.size - 1
    per_sample = round(result.times[-1] / n_samples / result.dt_used)
    steps = n_samples * per_sample
    counts["leapfrog_steps"] += steps
    if kwargs.get("validate", True):
        # the step-halving rerun takes twice as many steps
        counts["leapfrog_steps"] += 2 * steps
        counts["validation_steps"] += 2 * steps


def _count_bytes(counts, args, kwargs, result):
    counts["bytes_written"] += sum(os.path.getsize(p) for p in result)


COUNTERS = (
    "em_member_steps",
    "fd_tooth_steps",
    "lift_rows",
    "cos_evals",
    "leapfrog_steps",
    "validation_steps",
    "bytes_written",
)

# (module, class or None, attribute, layer, counter).  A module attribute is
# the binding a caller resolves at call time, so a function imported into
# several modules is wrapped once per importing module.
WRAP_POINTS = (
    ("patchlab.cli", None, "main", "cli.main", None),
    ("patchlab.cli", None, "parse_config", "config.parse_config", None),
    ("patchlab.cli", None, "run_experiment", "runner.run_experiment", None),
    ("patchlab.cli", None, "write_results", "runner.write_results", _count_bytes),
    ("patchlab.core", None, "generator", "core.generator", None),
    ("patchlab.kp", None, "generator", "core.generator", None),
    ("patchlab.order_detect", None, "generator", "core.generator", None),
    ("patchlab.projective", None, "ensemble_normals", "core.ensemble_normals", None),
    ("patchlab.projective", None, "em_step", "micro.em_step", _count_members),
    ("patchlab.projective", None, "coarse_projective_step",
     "projective.coarse_projective_step", None),
    ("patchlab.patch", None, "evolve_fd_buffered", "micro.evolve_fd_buffered", _count_fd_steps),
    ("patchlab.patch", None, "tooth_average", "micro.tooth_average", None),
    ("patchlab.patch", None, "gap_tooth_step", "patch.gap_tooth_step", None),
    ("patchlab.runner", None, "gap_tooth_step", "patch.gap_tooth_step", None),
    ("patchlab.patch", None, "lift_coefficients", "patch.lift_coefficients", _count_lift_rows),
    ("patchlab.runner", None, "growth_factor_probe", "analysis.growth_factor_probe", None),
    ("patchlab.runner", None, "convergence_order", "analysis.convergence_order", None),
    ("patchlab.order_detect", None, "coordinate_variance",
     "order_detect.coordinate_variance", None),
    ("patchlab.order_detect", "BlackBoxFunction", "__call__", "order_detect.evaluate", None),
    ("patchlab.kp", "RandomForceField", "force", "kp.force", _count_cos),
    ("patchlab.runner", None, "ensemble_velocities", "kp.ensemble_velocities", None),
    ("patchlab.kp", None, "kp_integrate", "kp.kp_integrate", _count_leapfrog),
    ("patchlab.runner", None, "msd_exponent", "kp.msd_exponent", None),
)

LAYERS = tuple(dict.fromkeys(point[3] for point in WRAP_POINTS))


class NullTracer:
    """Stand-in for the recorder in untraced passes."""

    def mark(self, label: str) -> None:
        pass

    def suspended(self):
        return contextlib.nullcontext()


class Recorder:
    """Wraps the layer functions and keeps their spans in memory."""

    def __init__(self):
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.marks: list[tuple[str, int]] = []
        self._stack = [-1]
        self._bindings = []
        for module_name, class_name, attr, layer, count in WRAP_POINTS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name, None)
            original = getattr(owner, attr, None)
            if original is None:
                continue  # a later version no longer has this binding: its layer reports 0
            wrapper = self._wrap(original, LAYERS.index(layer), count)
            self._bindings.append((owner, attr, original, wrapper))

    def _wrap(self, fn, layer_id, count):
        layer, parent, start, end = self.layer, self.parent, self.start, self.end
        stack, counts, clock = self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(layer)
            layer.append(layer_id)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._bindings):
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def suspended(self):
        """Run a block untraced, e.g. a reference computation of a check."""
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    def mark(self, label: str) -> None:
        """Spans recorded from here on belong to the item ``label``."""
        self.marks.append((label, len(self.layer)))

    def reset(self) -> None:
        for arr in (self.layer, self.parent, self.start, self.end):
            del arr[:]
        for key in self.counts:
            self.counts[key] = 0
        self.marks.clear()

    def snapshot(self) -> dict[str, np.ndarray]:
        """Copies of the spans recorded so far and of the item marks."""
        return {
            "layer": np.array(self.layer, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "start": np.array(self.start),
            "end": np.array(self.end),
            "mark_labels": np.array([label for label, _ in self.marks], dtype=str),
            "mark_starts": np.array([i for _, i in self.marks], dtype=np.int64),
        }


def save_spans(path: str, snap: dict[str, np.ndarray]) -> None:
    np.savez_compressed(path, layers=np.array(LAYERS), **snap)


class LayerStats:
    """Calls, self time and inclusive time per layer over a range of spans."""

    def __init__(self, layer, self_s, dur):
        n = len(LAYERS)
        self.calls = np.bincount(layer, minlength=n)
        self.self_s = np.bincount(layer, weights=self_s, minlength=n)
        self.incl_s = np.bincount(layer, weights=dur, minlength=n)
        self._layer = layer
        self._dur = dur

    def get(self, layer: str) -> tuple[int, float, float]:
        i = LAYERS.index(layer)
        return int(self.calls[i]), float(self.self_s[i]), float(self.incl_s[i])

    def durations(self, layer: str) -> np.ndarray:
        return self._dur[self._layer == LAYERS.index(layer)]


def layer_stats(snap: dict[str, np.ndarray]) -> tuple[LayerStats, dict[str, LayerStats]]:
    """Statistics of the whole pass and of each marked item."""
    dur = snap["end"] - snap["start"]
    parent, layer = snap["parent"], snap["layer"]
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
    self_s = dur - child
    whole = LayerStats(layer, self_s, dur)
    items = {}
    bounds = list(snap["mark_starts"]) + [dur.size]
    for label, a, b in zip(snap["mark_labels"], bounds, bounds[1:]):
        items[str(label)] = LayerStats(layer[a:b], self_s[a:b], dur[a:b])
    return whole, items


# name -> (unit, better, repeats exactly between passes)
LAYER_METRICS = {
    "core.generator.calls": ("count", "lower", True),
    "core.generator.self_s": ("s", "lower", False),
    "core.generator.self_s.n10": ("s", "lower", False),
    "core.generator.self_s.n1000": ("s", "lower", False),
    "core.ensemble_normals.self_s": ("s", "lower", False),
    "core.ensemble_normals.self_s.n10": ("s", "lower", False),
    "core.ensemble_normals.self_s.n1000": ("s", "lower", False),
    "micro.em_step.calls": ("count", "lower", True),
    "micro.em_step.self_s": ("s", "lower", False),
    "micro.em_step.self_s.n10": ("s", "lower", False),
    "micro.em_step.self_s.n1000": ("s", "lower", False),
    "micro.em_member_steps_per_s": ("1/s", "higher", False),
    "micro.evolve_fd_buffered.calls": ("count", "lower", True),
    "micro.evolve_fd_buffered.self_s": ("s", "lower", False),
    "micro.tooth_average.calls": ("count", "lower", True),
    "micro.tooth_average.self_s": ("s", "lower", False),
    "micro.fd_tooth_steps_per_s": ("1/s", "higher", False),
    "projective.coarse_projective_step.calls": ("count", "lower", True),
    "projective.coarse_projective_step.self_s": ("s", "lower", False),
    "projective.coarse_projective_step.self_s.n10": ("s", "lower", False),
    "projective.coarse_projective_step.self_s.n1000": ("s", "lower", False),
    "projective.step_us.p50.n10": ("us", "lower", False),
    "projective.step_us.p99.n10": ("us", "lower", False),
    "projective.step_us.p50.n1000": ("us", "lower", False),
    "projective.step_us.p99.n1000": ("us", "lower", False),
    "projective.micro_steps_total": ("count", "lower", True),
    "patch.gap_tooth_step.calls": ("count", "lower", True),
    "patch.gap_tooth_step.self_s": ("s", "lower", False),
    "patch.lift_coefficients.calls": ("count", "lower", True),
    "patch.lift_coefficients.self_s": ("s", "lower", False),
    "patch.lift_rows_per_step": ("count", "lower", True),
    "analysis.growth_factor_probe.self_s": ("s", "lower", False),
    "analysis.convergence_order.self_s": ("s", "lower", False),
    "order_detect.evaluations": ("count", "lower", True),
    "order_detect.coordinate_variance.self_s": ("s", "lower", False),
    "order_detect.eval_us": ("us", "lower", False),
    "kp.force.calls": ("count", "lower", True),
    "kp.force.self_s": ("s", "lower", False),
    "kp.cos_evals": ("count", "lower", True),
    "kp.ensemble_velocities.self_s": ("s", "lower", False),
    "kp.kp_integrate.self_s": ("s", "lower", False),
    "kp.msd_exponent.self_s": ("s", "lower", False),
    "kp.leapfrog_steps": ("count", "lower", True),
    "kp.leapfrog_step_us": ("us", "lower", False),
    "kp.validation_step_share": ("ratio", "lower", True),
    "config.parse_config.self_s": ("s", "lower", False),
    "runner.run_experiment.self_s": ("s", "lower", False),
    "runner.write_results.self_s": ("s", "lower", False),
    "runner.bytes_written": ("B", "lower", True),
    "cli.main.self_s": ("s", "lower", False),
    "trace.overhead_ratio": ("ratio", "lower", False),
}

REGIMES = ("n10", "n1000")  # item labels of the projective-noise workload


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _percentile_us(durations: np.ndarray, q: float) -> float:
    return float(np.percentile(durations, q)) * 1e6 if durations.size else 0.0


def pass_metrics(
    whole: LayerStats, items: dict[str, LayerStats], c: dict[str, int],
    summary_totals: dict[str, int],
) -> dict[str, float]:
    """Per-layer metrics of one traced pass (without the overhead ratio).

    ``c`` holds the recorder's counters and ``summary_totals`` the counters
    the program reported in its own summaries, summed over the pass's items.
    """
    m: dict[str, float] = {}
    for layer in LAYERS:
        calls, self_s, _ = whole.get(layer)
        m[f"{layer}.calls"] = calls
        m[f"{layer}.self_s"] = self_s
    for regime in REGIMES:
        stats = items.get(regime)
        for layer in ("core.generator", "core.ensemble_normals", "micro.em_step",
                      "projective.coarse_projective_step"):
            m[f"{layer}.self_s.{regime}"] = stats.get(layer)[1] if stats else 0.0
        steps = stats.durations("projective.coarse_projective_step") if stats else np.empty(0)
        m[f"projective.step_us.p50.{regime}"] = _percentile_us(steps, 50)
        m[f"projective.step_us.p99.{regime}"] = _percentile_us(steps, 99)
    m["micro.em_member_steps_per_s"] = _ratio(c["em_member_steps"], m["micro.em_step.self_s"])
    m["micro.fd_tooth_steps_per_s"] = _ratio(
        c["fd_tooth_steps"], m["micro.evolve_fd_buffered.self_s"]
    )
    m["projective.micro_steps_total"] = summary_totals.get("micro_steps_total", 0)
    m["patch.lift_rows_per_step"] = _ratio(c["lift_rows"], m["patch.gap_tooth_step.calls"])
    m["order_detect.evaluations"] = m["order_detect.evaluate.calls"]
    calls, _, incl = whole.get("order_detect.evaluate")
    m["order_detect.eval_us"] = _ratio(incl, calls) * 1e6
    m["kp.cos_evals"] = c["cos_evals"]
    m["kp.leapfrog_steps"] = c["leapfrog_steps"]
    m["kp.leapfrog_step_us"] = _ratio(whole.get("kp.kp_integrate")[2], c["leapfrog_steps"]) * 1e6
    m["kp.validation_step_share"] = _ratio(c["validation_steps"], c["leapfrog_steps"])
    m["runner.bytes_written"] = c["bytes_written"]
    m["trace.overhead_ratio"] = 0.0  # set by the worker from the pass wall times
    return {name: m[name] for name in LAYER_METRICS}


def raw_table(whole: LayerStats) -> list[tuple[str, int, float, float]]:
    """(layer, calls, self_s, inclusive µs per call) for every layer called."""
    rows = []
    for layer in LAYERS:
        calls, self_s, incl = whole.get(layer)
        if calls:
            rows.append((layer, calls, self_s, incl / calls * 1e6))
    return rows
