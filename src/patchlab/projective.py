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

import numpy as np

from .core import (
    RngStreamSpec, at_least, ensemble_normals, frozen_array, positive, step_cap, value_type,
)
from .micro import SdeModel, em_step

__all__ = [
    "CoarseStepConfig",
    "CostLedger",
    "CoarseTrajectory",
    "coarse_projective_step",
    "effective_noise_std",
    "predicted_ou_tail_variance",
    "run_coarse_trajectory",
]

DIVERGENCE_LIMIT = 1e12


@value_type
class CoarseStepConfig:
    """Parameters of one coarse projective step; ``ensemble_size * micro_steps`` is capped."""

    ensemble_size: int
    micro_steps: int
    dt_micro: float
    dt_macro: float
    alpha: float = 0.0

    def __post_init__(self) -> dict:
        n = at_least(self.ensemble_size, 1, "ensemble_size")
        k = at_least(self.micro_steps, 1, "micro_steps")
        step_cap(n * k, "ensemble_size*micro_steps", n * k, "member steps per coarse step")
        dt_micro = positive(self.dt_micro, "dt_micro")
        dt_macro = positive(self.dt_macro, "dt_macro")
        if k * dt_micro > dt_macro * (1.0 + 1e-12):
            raise ValueError("micro horizon micro_steps*dt_micro must not exceed dt_macro")
        alpha = float(self.alpha)
        if not 0.0 <= alpha < 1.0:
            raise ValueError("alpha must lie in [0, 1)")
        if alpha > 0.0:
            i = alpha * k
            if abs(i - round(i)) > 1e-9:
                raise ValueError("alpha*micro_steps must be an integer number of micro steps")
        return {"ensemble_size": n, "micro_steps": k, "dt_micro": dt_micro,
                "dt_macro": dt_macro, "alpha": alpha}

    @property
    def micro_horizon(self) -> float:
        return self.micro_steps * self.dt_micro

    @property
    def alpha_steps(self) -> int:
        return int(round(self.alpha * self.micro_steps))


@value_type
class CostLedger:
    """Exact work bookkeeping: what the coarse run actually paid for."""

    macro_steps: int
    ensemble_size: int
    micro_steps_per_member: int

    @property
    def micro_steps_total(self) -> int:
        return self.macro_steps * self.ensemble_size * self.micro_steps_per_member


@value_type
class CoarseTrajectory:
    """Result of ``run_coarse_trajectory``.

    ``values[i]`` is the macro state after ``i`` coarse steps.  If the
    scheme diverged, ``diverged_at`` is the index of the first non-finite
    or out-of-range value and the trajectory is truncated there.
    """

    values: np.ndarray
    ledger: CostLedger
    diverged_at: int | None = None

    def __post_init__(self) -> dict:
        return {"values": frozen_array(self.values)}


def effective_noise_std(cfg: CoarseStepConfig, noise_amplitude: float = 1.0) -> float:
    """Std of one drift-free coarse increment (law-equivalent update)."""
    return float(noise_amplitude) * cfg.dt_macro / math.sqrt(
        cfg.ensemble_size * cfg.micro_steps * cfg.dt_micro
    )


def predicted_ou_tail_variance(cfg: CoarseStepConfig, rate: float = 1.0, noise_amplitude: float = 1.0) -> float:
    """Stationary variance of the coarse chain for drift ``-rate*x``.

    Treats the coarse update as the AR(1) ``x' = (1 - rate dt_macro) x + s xi``
    with ``s = effective_noise_std``; requires ``rate * dt_macro < 2`` and a
    finite variance.
    """
    phi = 1.0 - rate * cfg.dt_macro
    if abs(phi) >= 1.0:
        raise ValueError("coarse chain is not mean-reverting: need rate*dt_macro in (0, 2)")
    s = effective_noise_std(cfg, noise_amplitude)
    if not math.isfinite(s * s / (1.0 - phi**2)):
        raise ValueError(f"noise_amplitude {noise_amplitude:g} is too large: "
                         "the tail variance overflows")
    return s**2 / (1.0 - phi**2)


def coarse_projective_step(
    x: float, model: SdeModel, cfg: CoarseStepConfig, rng: RngStreamSpec
) -> float:
    """One lift / evolve / average / extrapolate cycle of ``micro_steps`` ``em_step`` calls.

    A mean is ``np.add.reduce(members) / n``, the bits of ``members.mean()``.
    """
    n = cfg.ensemble_size
    dt = cfg.dt_micro
    i_alpha = cfg.alpha_steps
    x = float(x)
    members = np.full(n, x)
    mean_alpha = x
    for i, xi in enumerate(ensemble_normals(rng, n, cfg.micro_steps).T, 1):
        members = em_step(members, model, dt, xi)
        if i == i_alpha:
            mean_alpha = float(np.add.reduce(members) / n)
    mean_end = float(np.add.reduce(members) / n)
    span = (1.0 - cfg.alpha) * cfg.micro_horizon
    return x + cfg.dt_macro * (mean_end - mean_alpha) / span


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
    raising.  More steps than the step cap raise ``ValueError`` at once.
    """
    n_steps = at_least(n_steps, 0, "n_steps")
    step_cap(n_steps, "n_steps", n_steps, "coarse steps")
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
