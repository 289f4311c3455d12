"""Black-box detection of which inputs a function actually depends on.

The probe sweeps one coordinate at a time across a sampling box while the
others stay pinned at random base points; the averaged conditional
variance of the output is the dependence signal.  Applied to the
one-step-in-time map of a micro simulator this recovers the highest
spatial derivative the effective macro equation uses, and its failure
mode is explicit: an inductive stop rule that quits after ``stop_after``
quiet coordinates will miss dependencies parked at distant indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import PdeSpec, RngStreamSpec, average_weights, generator
from .micro import propagator_matrix

__all__ = [
    "BlackBoxFunction",
    "ProbeSpec",
    "DependencyReport",
    "BudgetExhaustedError",
    "coordinate_variance",
    "detect_order",
    "derivative_blackbox",
    "RELATIVE_THRESHOLD",
]

RELATIVE_THRESHOLD = 1e-6
_THRESHOLD_FLOOR = 1e-12


class BudgetExhaustedError(RuntimeError):
    """Evaluation budget ran out mid-probe."""

    def __init__(self, message: str, calls_used: int):
        super().__init__(message)
        self.calls_used = calls_used


class BlackBoxFunction:
    """Callable of fixed arity with an optional evaluation budget.

    ``first_index`` sets how coordinates are reported: generic functions
    label them x_1..x_M (``first_index=1``); derivative black boxes use
    ``first_index=0`` so a reported index IS a derivative order.
    """

    def __init__(
        self,
        evaluator: Callable[[np.ndarray], float],
        arity: int,
        evaluation_budget: int | None = None,
        first_index: int = 1,
    ):
        arity = int(arity)
        if arity < 1:
            raise ValueError("arity must be >= 1")
        if evaluation_budget is not None and int(evaluation_budget) < 0:
            raise ValueError("evaluation_budget must be >= 0 or None")
        if int(first_index) < 0:
            raise ValueError("first_index must be >= 0")
        self._evaluator = evaluator
        self.arity = arity
        self.evaluation_budget = None if evaluation_budget is None else int(evaluation_budget)
        self.first_index = int(first_index)
        self.calls_used = 0

    def __call__(self, point) -> float:
        point = np.asarray(point, dtype=float)
        if point.shape != (self.arity,):
            raise ValueError(f"expected a point of shape ({self.arity},), got {point.shape}")
        if self.evaluation_budget is not None and self.calls_used >= self.evaluation_budget:
            raise BudgetExhaustedError(
                f"evaluation budget of {self.evaluation_budget} exhausted", self.calls_used
            )
        self.calls_used += 1
        return float(self._evaluator(point))


@dataclass(frozen=True)
class ProbeSpec:
    """Sampling plan for the variance probe (box is ``[-halfwidth, halfwidth]``)."""

    n_base: int = 8
    n_perturb: int = 1024
    halfwidth: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if int(self.n_base) < 1:
            raise ValueError("n_base must be >= 1")
        if int(self.n_perturb) < 2:
            raise ValueError("n_perturb must be >= 2")
        if not (math.isfinite(float(self.halfwidth)) and float(self.halfwidth) > 0):
            raise ValueError("halfwidth must be positive and finite")
        object.__setattr__(self, "n_base", int(self.n_base))
        object.__setattr__(self, "n_perturb", int(self.n_perturb))
        object.__setattr__(self, "halfwidth", float(self.halfwidth))
        object.__setattr__(self, "seed", int(self.seed))


@dataclass(frozen=True)
class DependencyReport:
    """Outcome of ``detect_order``.

    ``indices`` are the reported coordinate labels actually probed (in
    order); ``variances`` and ``dependent`` align with them.
    ``detected_order`` is the largest dependent label, 0 if none.
    """

    indices: tuple[int, ...]
    variances: tuple[float, ...]
    dependent: tuple[bool, ...]
    detected_order: int
    threshold: float
    budget_used: int
    stopped_early: bool = False
    budget_exhausted: bool = False


def coordinate_variance(box: BlackBoxFunction, index: int, probe: ProbeSpec = ProbeSpec()) -> float:
    """Mean conditional output variance when coordinate ``index`` sweeps the box.

    ``index`` is a reported label (``first_index``-based).  Each of the
    ``n_base`` base points is drawn uniformly from the box, the target
    coordinate is swept over ``n_perturb`` uniform values, and the sample
    variances are averaged.  Deterministic in ``probe.seed``.
    """
    position = int(index) - box.first_index
    if not 0 <= position < box.arity:
        raise ValueError(f"coordinate {index} outside the box's labels")
    rng = generator(RngStreamSpec(master_seed=probe.seed, stream_id=position, step_id=0))
    hw = probe.halfwidth
    base = rng.uniform(-hw, hw, size=(probe.n_base, box.arity))
    sweeps = rng.uniform(-hw, hw, size=(probe.n_base, probe.n_perturb))
    total = 0.0
    values = np.empty(probe.n_perturb)
    for b in range(probe.n_base):
        point = base[b].copy()
        for s, x in enumerate(sweeps[b].tolist()):
            point[position] = x
            values[s] = box(point)
        total += float(values.var(ddof=1))
    return total / probe.n_base


def _threshold(explicit: float | None, variances: list[float]) -> float:
    if explicit is not None:
        return float(explicit)
    peak = max(variances, default=0.0)
    return max(_THRESHOLD_FLOOR, RELATIVE_THRESHOLD * peak)


def detect_order(
    box: BlackBoxFunction,
    probe: ProbeSpec = ProbeSpec(),
    threshold: float | None = None,
    stop_after: int | None = None,
) -> DependencyReport:
    """Probe coordinates in increasing label order and flag dependencies.

    Without an explicit ``threshold``, a coordinate counts as dependent
    when its variance exceeds ``1e-6`` times the largest variance seen
    (floored at ``1e-12``).  ``stop_after = S`` stops the scan after S
    consecutive quiet coordinates -- cheap, and exactly the heuristic a
    function like ``f(x_1, x_100)`` defeats.  Budget exhaustion ends the
    scan early and is reported rather than raised.
    """
    if stop_after is not None and int(stop_after) < 1:
        raise ValueError("stop_after must be >= 1 or None")
    variances: list[float] = []
    labels: list[int] = []
    stopped_early = False
    exhausted = False
    quiet_run = 0
    for position in range(box.arity):
        label = box.first_index + position
        try:
            v = coordinate_variance(box, label, probe)
        except BudgetExhaustedError:
            exhausted = True
            break
        variances.append(v)
        labels.append(label)
        if v > _threshold(threshold, variances):
            quiet_run = 0
        else:
            quiet_run += 1
            if stop_after is not None and quiet_run >= int(stop_after):
                stopped_early = True
                break
    final_threshold = _threshold(threshold, variances)
    dependent = tuple(v > final_threshold for v in variances)
    detected = 0
    for label, dep in zip(labels, dependent):
        if dep:
            detected = max(detected, label)
    return DependencyReport(
        indices=tuple(labels),
        variances=tuple(variances),
        dependent=dependent,
        detected_order=detected,
        threshold=final_threshold,
        budget_used=box.calls_used,
        stopped_early=stopped_early,
        budget_exhausted=exhausted,
    )


def derivative_blackbox(
    pde: PdeSpec,
    d_max: int,
    dt: float,
    h: float,
    evaluation_budget: int | None = None,
) -> BlackBoxFunction:
    """One-step map ``(D_0..D_d_max) -> (restrict(evolve(lift)) - restrict(lift))/dt``.

    The inputs are raw derivative coefficients; the output is the apparent
    time derivative of the tooth average after evolving the lifted
    polynomial for ``dt``.  ``first_index=0``: reported coordinate labels
    are derivative orders, so ``detect_order`` returns the effective
    spatial order directly.
    """
    d_max = int(d_max)
    if d_max < 0:
        raise ValueError("d_max must be >= 0")
    if dt <= 0:
        raise ValueError("dt must be positive")
    M = propagator_matrix(pde, d_max, dt)
    w = average_weights(d_max, h)
    response = (w @ M - w) / dt  # linear in the coefficients

    def evaluate(coeffs: np.ndarray) -> float:
        # the bits of ``response @ coeffs`` at half its cost: matmul adds the
        # same BLAS dot to 0.0, which only turns a -0.0 into 0.0
        return float(response.dot(coeffs)) + 0.0

    return BlackBoxFunction(
        evaluator=evaluate,
        arity=d_max + 1,
        evaluation_budget=evaluation_budget,
        first_index=0,
    )
