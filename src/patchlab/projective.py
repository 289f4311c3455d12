"""Coarse projective integration for scalar SDEs.

One coarse step lifts a macro value to an ensemble of ``ensemble_size``
copies, runs ``micro_steps`` Euler-Maruyama steps of size ``dt_micro`` on
each, averages, and extrapolates the averaged chord over ``dt_macro``:

    x' = x + dt_macro * (mean_k - mean_alpha) / ((1 - alpha) k dt_micro)

For drift-free unit noise the law of the coarse increment is normal with
standard deviation ``dt_macro / sqrt(ensemble_size * micro_steps *
dt_micro)`` (see ``effective_noise_std``), which is what makes the scheme
lose, keep, or exaggerate the microscopic noise depending on how
``ensemble_size * micro_steps * dt_micro`` compares to ``dt_macro``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import RngStreamSpec, ensemble_normals
from .micro import SdeModel, em_step

__all__ = [
    "CoarseStepConfig",
    "CostLedger",
    "CoarseTrajectory",
    "coarse_projective_step",
    "effective_noise_std",
    "predicted_ou_tail_variance",
    "run_coarse_trajectory",
    "DIVERGENCE_LIMIT",
]

DIVERGENCE_LIMIT = 1e12


@dataclass(frozen=True)
class CoarseStepConfig:
    """Parameters of one coarse projective step."""

    ensemble_size: int
    micro_steps: int
    dt_micro: float
    dt_macro: float
    alpha: float = 0.0

    def __post_init__(self) -> None:
        n = int(self.ensemble_size)
        k = int(self.micro_steps)
        if n < 1:
            raise ValueError("ensemble_size must be >= 1")
        if k < 1:
            raise ValueError("micro_steps must be >= 1")
        dt_micro = float(self.dt_micro)
        dt_macro = float(self.dt_macro)
        if not (math.isfinite(dt_micro) and dt_micro > 0):
            raise ValueError("dt_micro must be positive and finite")
        if not (math.isfinite(dt_macro) and dt_macro > 0):
            raise ValueError("dt_macro must be positive and finite")
        if k * dt_micro > dt_macro * (1.0 + 1e-12):
            raise ValueError("micro horizon micro_steps*dt_micro must not exceed dt_macro")
        alpha = float(self.alpha)
        if not 0.0 <= alpha < 1.0:
            raise ValueError("alpha must lie in [0, 1)")
        if alpha > 0.0:
            i = alpha * k
            if abs(i - round(i)) > 1e-9:
                raise ValueError("alpha*micro_steps must be an integer number of micro steps")
        object.__setattr__(self, "ensemble_size", n)
        object.__setattr__(self, "micro_steps", k)
        object.__setattr__(self, "dt_micro", dt_micro)
        object.__setattr__(self, "dt_macro", dt_macro)
        object.__setattr__(self, "alpha", alpha)

    @property
    def micro_horizon(self) -> float:
        return self.micro_steps * self.dt_micro

    @property
    def alpha_steps(self) -> int:
        return int(round(self.alpha * self.micro_steps))


@dataclass(frozen=True)
class CostLedger:
    """Exact work bookkeeping: what the coarse run actually paid for."""

    macro_steps: int
    ensemble_size: int
    micro_steps_per_member: int

    @property
    def micro_steps_total(self) -> int:
        return self.macro_steps * self.ensemble_size * self.micro_steps_per_member


@dataclass(frozen=True)
class CoarseTrajectory:
    """Result of ``run_coarse_trajectory``.

    ``values[i]`` is the macro state after ``i`` coarse steps.  If the
    scheme diverged, ``diverged_at`` is the index of the first non-finite
    or out-of-range value and the trajectory is truncated there.
    """

    values: np.ndarray
    ledger: CostLedger
    diverged_at: int | None = None

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def effective_noise_std(cfg: CoarseStepConfig, noise_amplitude: float = 1.0) -> float:
    """Std of one drift-free coarse increment (law-equivalent update)."""
    return float(noise_amplitude) * cfg.dt_macro / math.sqrt(
        cfg.ensemble_size * cfg.micro_steps * cfg.dt_micro
    )


def predicted_ou_tail_variance(cfg: CoarseStepConfig, rate: float = 1.0, noise_amplitude: float = 1.0) -> float:
    """Stationary variance of the coarse chain for drift ``-rate*x``.

    Treats the coarse update as the AR(1) ``x' = (1 - rate dt_macro) x + s xi``
    with ``s = effective_noise_std``; requires ``rate * dt_macro < 2``.
    """
    phi = 1.0 - rate * cfg.dt_macro
    if abs(phi) >= 1.0:
        raise ValueError("coarse chain is not mean-reverting: need rate*dt_macro in (0, 2)")
    s = effective_noise_std(cfg, noise_amplitude)
    return s**2 / (1.0 - phi**2)


def _advance_ensemble(
    x: float, model: SdeModel, cfg: CoarseStepConfig, rng: RngStreamSpec
) -> tuple[float, float]:
    """Run the lifted ensemble for micro_steps; return means at alpha_steps and at the end.

    A mean is ``np.add.reduce(members) / n``, the bits of ``members.mean()``.
    """
    n = cfg.ensemble_size
    dt = cfg.dt_micro
    i_alpha = cfg.alpha_steps
    draws = ensemble_normals(rng, n, cfg.micro_steps).T
    x = float(x)
    members = np.full(n, x)
    mean_alpha = x
    for i, xi in enumerate(draws, 1):
        members = em_step(members, model, dt, xi)
        if i == i_alpha:
            mean_alpha = float(np.add.reduce(members) / n)
    return mean_alpha, float(np.add.reduce(members) / n)


def coarse_projective_step(
    x: float, model: SdeModel, cfg: CoarseStepConfig, rng: RngStreamSpec
) -> float:
    """One lift / evolve / average / extrapolate cycle."""
    mean_alpha, mean_end = _advance_ensemble(x, model, cfg, rng)
    span = (1.0 - cfg.alpha) * cfg.micro_horizon
    return float(x) + cfg.dt_macro * (mean_end - mean_alpha) / span


def run_coarse_trajectory(
    x0: float,
    model: SdeModel,
    cfg: CoarseStepConfig,
    n_steps: int,
    rng: RngStreamSpec,
) -> CoarseTrajectory:
    """Iterate coarse steps; step ``i`` uses the stream at ``step_id + i``.

    Divergence (non-finite value or magnitude above ``DIVERGENCE_LIMIT``)
    stops the run and is reported through ``diverged_at`` instead of
    raising.
    """
    n_steps = int(n_steps)
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    values = np.empty(n_steps + 1)
    values[0] = float(x0)
    x = float(x0)
    diverged_at = None
    done = 0
    for done, spec in enumerate(rng.steps(n_steps), 1):
        x = coarse_projective_step(x, model, cfg, spec)
        values[done] = x
        if not math.isfinite(x) or abs(x) > DIVERGENCE_LIMIT:
            diverged_at = done
            break
    ledger = CostLedger(
        macro_steps=done,
        ensemble_size=cfg.ensemble_size,
        micro_steps_per_member=cfg.micro_steps,
    )
    return CoarseTrajectory(values=values[: done + 1], ledger=ledger, diverged_at=diverged_at)
