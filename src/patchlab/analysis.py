"""Numerical diagnostics: stability probes, convergence fits, moment checks."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import MacroState, RngStreamSpec, normal_stream

__all__ = [
    "StabilityReport",
    "ConvergenceReport",
    "IncrementMoments",
    "VarianceCheck",
    "growth_factor_probe",
    "seeded_noise_state",
    "convergence_order",
    "increment_moments",
    "stationary_variance_test",
    "UNSTABLE_THRESHOLD",
    "STABLE_THRESHOLD",
]

UNSTABLE_THRESHOLD = 1.0 + 1e-3
STABLE_THRESHOLD = 1.0 - 1e-8
_ROUNDING_FLOOR = 1e-12
_OVERFLOW_NORM = 1e100
_DISCARD_FRACTION = 0.25  # transient share of the growth ratios
_BURN_IN_FRACTION = 0.1  # transient share of a trajectory
_MIN_TAIL = 1000


@dataclass(frozen=True)
class StabilityReport:
    """Measured per-step L2 growth of an iterated macro stepper."""

    growth_factor: float
    classification: str
    steps_used: int
    terminated_early: bool = False


@dataclass(frozen=True)
class ConvergenceReport:
    grid_sizes: tuple[int, ...]
    spacings: tuple[float, ...]
    errors: tuple[float, ...]
    fitted_order: float
    excluded: tuple[int, ...] = ()


@dataclass(frozen=True)
class IncrementMoments:
    n: int
    mean: float
    std: float
    se_mean: float
    se_std: float


@dataclass(frozen=True)
class VarianceCheck:
    measured: float
    expected: float
    tolerance_fraction: float
    n_tail: int
    passed: bool


def seeded_noise_state(n_points: int, dx: float, rng: RngStreamSpec) -> MacroState:
    """White-noise initial state with the mean removed.

    Removing the mean drops the conserved constant mode, so a strictly
    dissipative scheme shows up as strict decay rather than being masked
    by the neutral mode.
    """
    values = normal_stream(rng, int(n_points))
    values = values - values.mean()
    return MacroState(values=values, dx=float(dx), time=0.0)


def _classify(factor: float) -> str:
    if factor > UNSTABLE_THRESHOLD:
        return "unstable"
    if factor < STABLE_THRESHOLD:
        return "stable"
    return "marginal"


def growth_factor_probe(
    stepper: Callable[[MacroState], MacroState],
    initial: MacroState,
    n_steps: int,
) -> StabilityReport:
    """Geometric-mean per-step L2 growth of ``stepper`` from ``initial``.

    The first quarter of the per-step ratios is dropped as
    transient, so the estimate reflects the dominant mode.  Overflow or a
    non-finite state terminates the probe early; the factor is then
    computed from the ratios gathered so far.
    """
    n_steps = int(n_steps)
    if n_steps < 4:
        raise ValueError("need at least 4 probe steps")
    u = initial
    norm = float(np.sqrt(np.mean(u.values**2)))
    if not (math.isfinite(norm) and norm > 0):
        raise ValueError("initial state must be finite and nonzero")
    log_ratios: list[float] = []
    terminated = False
    for _ in range(n_steps):
        u = stepper(u)
        new_norm = float(np.sqrt(np.mean(u.values**2)))
        if not math.isfinite(new_norm) or new_norm > _OVERFLOW_NORM or new_norm == 0.0:
            terminated = True
            break
        log_ratios.append(math.log(new_norm / norm))
        norm = new_norm
    if not log_ratios:
        raise ValueError("stepper overflowed immediately; no growth ratios available")
    start = int(len(log_ratios) * _DISCARD_FRACTION) if not terminated else 0
    tail = log_ratios[start:] or log_ratios
    factor = math.exp(sum(tail) / len(tail))
    return StabilityReport(
        growth_factor=factor,
        classification=_classify(factor),
        steps_used=len(log_ratios),
        terminated_early=terminated,
    )


def convergence_order(
    make_problem: Callable[[int], tuple[Callable[[MacroState], MacroState], MacroState]],
    grid_sizes: Sequence[int],
    final_time: float,
    exact: Callable[[np.ndarray, float], np.ndarray],
) -> ConvergenceReport:
    """Fit the L2-error order of a stepper family under grid refinement.

    ``make_problem(n)`` returns a (stepper, initial state) pair whose macro
    step divides ``final_time``.  Errors are measured in the RMS norm
    against ``exact(x, t)`` at the reached time.  Errors at rounding level
    (below 1e-12) are excluded from the fit with a warning.
    """
    grid_sizes = tuple(int(n) for n in grid_sizes)
    if len(grid_sizes) < 2:
        raise ValueError("need at least two grid sizes")
    if final_time <= 0:
        raise ValueError("final_time must be positive")
    spacings = []
    errors = []
    for n in grid_sizes:
        step, u = make_problem(n)
        while u.time < final_time * (1.0 - 1e-9):
            u = step(u)
        xs = u.grid()
        err = float(np.sqrt(np.mean((u.values - exact(xs, u.time)) ** 2)))
        spacings.append(u.dx)
        errors.append(err)
    excluded = tuple(i for i, e in enumerate(errors) if e < _ROUNDING_FLOOR)
    if excluded:
        warnings.warn(
            f"excluding rounding-dominated errors at grid indices {excluded}",
            RuntimeWarning,
            stacklevel=2,
        )
    keep = [i for i in range(len(errors)) if i not in excluded]
    if len(keep) < 2:
        raise ValueError("fewer than two usable error points; cannot fit an order")
    slope = np.polyfit(
        np.log([spacings[i] for i in keep]), np.log([errors[i] for i in keep]), 1
    )[0]
    return ConvergenceReport(
        grid_sizes=grid_sizes,
        spacings=tuple(spacings),
        errors=tuple(errors),
        fitted_order=float(slope),
        excluded=excluded,
    )


def increment_moments(values: np.ndarray) -> IncrementMoments:
    """Mean and std of one-step increments with their standard errors.

    ``se_mean = std/sqrt(n)`` and ``se_std = std/sqrt(2n)`` (Gaussian
    approximation), the scales used by the 3-standard-error checks.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size < 3:
        raise ValueError("need a 1-d trajectory with at least 3 values")
    inc = np.diff(values)
    n = inc.size
    std = float(inc.std(ddof=1))
    return IncrementMoments(
        n=n,
        mean=float(inc.mean()),
        std=std,
        se_mean=std / math.sqrt(n),
        se_std=std / math.sqrt(2.0 * n),
    )


def stationary_variance_test(
    values: np.ndarray,
    expected: float,
    tolerance_fraction: float,
) -> VarianceCheck:
    """Compare the tail variance of a trajectory against ``expected``.

    The first tenth of the trajectory is discarded as burn-in; at least
    1000 points must remain.  Passes when the measured
    variance is within ``tolerance_fraction`` (relative) of ``expected``.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValueError("trajectory must be 1-d")
    if not expected > 0:
        raise ValueError("expected variance must be positive")
    tail = values[int(values.size * _BURN_IN_FRACTION):]
    if tail.size < _MIN_TAIL:
        raise ValueError(f"only {tail.size} tail points; need at least {_MIN_TAIL}")
    measured = float(tail.var(ddof=1))
    passed = abs(measured - expected) <= tolerance_fraction * expected
    return VarianceCheck(
        measured=measured,
        expected=float(expected),
        tolerance_fraction=float(tolerance_fraction),
        n_tail=int(tail.size),
        passed=passed,
    )
