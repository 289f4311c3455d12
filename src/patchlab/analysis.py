"""Numerical diagnostics: stability probes, convergence fits, moment checks."""

from __future__ import annotations

import math
import warnings
from typing import Callable, Sequence

import numpy as np

from .core import MacroState, RngStreamSpec, at_least, generator, positive, step_cap, value_type

__all__ = [
    "StabilityReport",
    "ConvergenceReport",
    "IncrementMoments",
    "VarianceCheck",
    "growth_factor_probe",
    "classify_growth",
    "seeded_noise_state",
    "convergence_order",
    "symbol_stepper",
    "increment_moments",
    "stationary_variance_test",
]

UNSTABLE_THRESHOLD = 1.0 + 1e-3
STABLE_THRESHOLD = 1.0 - 1e-8
_ROUNDING_FLOOR = 1e-12
_OVERFLOW_NORM = 1e100
_DISCARD_FRACTION = 0.25  # transient share of the growth ratios
_BURN_IN_FRACTION = 0.1  # transient share of a trajectory
_MIN_TAIL = 1000
_REACHED = 1.0 - 1e-9  # a study stops at the first time >= _REACHED * final_time
_OVERFLOWED_AT_ONCE = "stepper overflowed immediately; no growth ratios available"


@value_type
class StabilityReport:
    """Measured per-step L2 growth of an iterated macro stepper."""

    growth_factor: float
    classification: str
    steps_used: int
    terminated_early: bool = False


@value_type
class ConvergenceReport:
    grid_sizes: tuple[int, ...]
    spacings: tuple[float, ...]
    errors: tuple[float, ...]
    fitted_order: float
    excluded: tuple[int, ...] = ()


@value_type
class IncrementMoments:
    n: int
    mean: float
    std: float
    se_mean: float
    se_std: float


@value_type
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
    values = generator(rng).standard_normal(at_least(n_points, 3, "n_points"))
    values = values - values.mean()
    return MacroState(values=values, dx=float(dx), time=0.0)


def classify_growth(factor: float) -> str:
    """``"unstable"`` above ``UNSTABLE_THRESHOLD``, ``"stable"`` below
    ``STABLE_THRESHOLD``, else ``"marginal"``."""
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
    computed from the ratios gathered so far.  More steps than the step cap
    raise ``ValueError`` before the first.
    """
    n_steps = at_least(n_steps, 4, "probe_steps")
    step_cap(n_steps, "probe_steps", n_steps, "macro steps")
    u = initial
    norm = float(np.sqrt(np.mean(initial.values**2)))
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
        raise ValueError(_OVERFLOWED_AT_ONCE)
    start = int(len(log_ratios) * _DISCARD_FRACTION) if not terminated else 0
    tail = log_ratios[start:] or log_ratios
    factor = math.exp(sum(tail) / len(tail))
    return StabilityReport(
        growth_factor=factor,
        classification=classify_growth(factor),
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
    against ``exact(x, t)`` at the reached time.  Errors that are not finite
    or are at rounding level (below 1e-12) are left out of the fit, listed
    in ``excluded``, with one warning; with fewer than two errors left,
    ``fitted_order`` is nan.  A step that does not advance ``u.time``, or
    one after which the steps taken and those left at its size exceed the
    step cap, raises ``ValueError``.
    """
    grid_sizes = study_grids(grid_sizes)
    final_time = positive(final_time, "final_time")
    reached = final_time * _REACHED
    spacings = []
    errors = []
    for n in grid_sizes:
        step, u = make_problem(n)
        steps = 0
        while u.time < reached:
            time = u.time
            u = step(u)
            steps += 1
            dt = u.time - time
            if not dt > 0:
                raise ValueError(f"a step on grid {n} stays at time {time:g}, "
                                 f"short of final_time {final_time:g}")
            step_cap(steps + (reached - u.time) / dt, "final_time", final_time,
                     "macro steps of", dt)
        xs = u.grid()
        # a diverged state's error is not finite and is left out below
        with np.errstate(over="ignore", invalid="ignore"):
            err = float(np.sqrt(np.mean((u.values - exact(xs, u.time)) ** 2)))
        spacings.append(u.dx)
        errors.append(err)
    excluded = tuple(i for i, e in enumerate(errors) if not _ROUNDING_FLOOR <= e < math.inf)
    if excluded:
        warnings.warn(f"excluding non-finite or rounding-dominated errors at grid indices "
                      f"{excluded}", RuntimeWarning, stacklevel=2)
    keep = [i for i in range(len(errors)) if i not in excluded]
    slope = math.nan
    if len(keep) >= 2:
        slope = float(np.polyfit(
            np.log([spacings[i] for i in keep]), np.log([errors[i] for i in keep]), 1
        )[0])
    return ConvergenceReport(grid_sizes=grid_sizes, spacings=tuple(spacings), errors=tuple(errors),
                             fitted_order=slope, excluded=excluded)


def study_grids(grid_sizes: Sequence[int]) -> tuple[int, ...]:
    """``grid_sizes`` as a tuple of ints; ``ValueError`` unless two or more, distinct, >= 3."""
    grid_sizes = tuple(at_least(n, 3, "grids") for n in grid_sizes)
    if len(grid_sizes) < 2:
        raise ValueError("need at least two grid sizes")
    if len(set(grid_sizes)) != len(grid_sizes):
        raise ValueError(f"grid sizes must be distinct, got {grid_sizes}")
    return grid_sizes


def symbol_stepper(
    symbol: np.ndarray, dt_macro: float, final_time: float
) -> Callable[[MacroState], MacroState]:
    """A ``convergence_order`` stepper that takes every macro step at once.

    ``N`` steps of the circulant map with symbol ``symbol`` are
    ``ifft(symbol**N * fft(u))``.  ``N`` and the reached time come from the
    repeated ``t + dt_macro`` addition of iterated steps, so one call lands
    where ``convergence_order`` would stop iterating them.
    """
    dt_macro = positive(dt_macro, "dt_macro")
    final_time = reachable_time(final_time, dt_macro)

    def advance(u: MacroState) -> MacroState:
        steps, t = 0, u.time
        while t < final_time * _REACHED:
            t += dt_macro
            steps += 1
        # a growing symbol overflows to a state that is not finite, which the study reports
        with np.errstate(over="ignore", invalid="ignore"):
            values = np.fft.ifft(symbol**steps * np.fft.fft(u.values)).real
        return MacroState(values=values, dx=u.dx, time=t)

    return advance


def reachable_time(final_time, dt_macro: float) -> float:
    """``final_time`` as a float; ``ValueError`` naming it unless it is positive,
    finite and reached within the step cap by steps of the positive ``dt_macro``."""
    final_time = positive(final_time, "final_time")
    step_cap(final_time / dt_macro, "final_time", final_time, "macro steps of", dt_macro)
    return final_time


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


def tail_points(n_values: int, expected: float) -> int:
    """Points of an ``n_values`` trajectory left after its burn-in; ``ValueError`` unless
    ``expected`` is positive and at least 1000 points are left to test against it."""
    if not expected > 0:
        raise ValueError("expected variance must be positive")
    n_tail = n_values - int(n_values * _BURN_IN_FRACTION)
    if n_tail < _MIN_TAIL:
        raise ValueError(f"only {n_tail} tail points; need at least {_MIN_TAIL}")
    return n_tail


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
    tail = values[values.size - tail_points(values.size, expected):]
    measured = float(tail.var(ddof=1))
    passed = abs(measured - expected) <= tolerance_fraction * expected
    return VarianceCheck(
        measured=measured,
        expected=float(expected),
        tolerance_fraction=float(tolerance_fraction),
        n_tail=int(tail.size),
        passed=passed,
    )
