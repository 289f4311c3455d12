"""Scale-dependent effective order of a particle in a random force field.

The rescaled system

    dx/dt = v / delta**2,      dv/dt = F(x) / delta

is integrated with a symplectic leapfrog.  The mean-square displacement of
the velocity over a fixed window of lags answers "what order of effective
equation does v follow here": exponent ~2 means ballistic (first-order
transport), ~1 means diffusive (second-order).  For a field with a flat
mode spectrum the answer genuinely depends on delta, which is the point of
the experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import RngStreamSpec, generator

__all__ = [
    "RandomForceField",
    "ScaledTrajectory",
    "MsdFit",
    "DtSelfConsistencyError",
    "synthesize_force_field",
    "kp_integrate",
    "ensemble_velocities",
    "energy",
    "msd_exponent",
]

SELF_CONSISTENCY_TOL = 0.005


class DtSelfConsistencyError(ValueError):
    """The run's energy drifted by more than 0.5% of its kinetic scale.

    ``trajectory`` is the lowest failing row of a stacked field (``None``
    for a single field); ``deviation`` and ``scale`` are that row's largest
    energy error and kinetic scale (half the mean squared velocity).
    """

    def __init__(self, trajectory: int | None, deviation: float, scale: float, dt: float):
        prefix = "" if trajectory is None else f"trajectory {trajectory}: "
        super().__init__(
            f"{prefix}energy drifted by {deviation / scale:g} of the kinetic scale "
            f"{scale:g}; dt {dt:g} is not resolving the dynamics"
        )
        self.trajectory = trajectory
        self.deviation = deviation
        self.scale = scale


@dataclass(frozen=True)
class RandomForceField:
    """Superposition of cosine modes ``F(x) = sum_m a_m cos(k_m x + phi_m)``.

    ``phases`` is ``(n_modes,)`` for one field or ``(n_fields, n_modes)`` for
    a stack of fields sharing amplitudes and wavenumbers.  A stack is
    evaluated at positions whose first axis runs over the fields (``x`` of
    shape ``(n_fields,)`` or ``(n_fields, ...)``), and each row's value has
    the same bits as that row's field alone.
    """

    amplitudes: np.ndarray
    wavenumbers: np.ndarray
    phases: np.ndarray

    def __post_init__(self) -> None:
        a = np.array(self.amplitudes, dtype=float)
        k = np.array(self.wavenumbers, dtype=float)
        p = np.array(self.phases, dtype=float)
        if a.ndim != 1 or a.shape != k.shape:
            raise ValueError("amplitudes and wavenumbers must be equal-length 1-d arrays")
        if p.ndim not in (1, 2) or p.shape[-1] != a.size:
            raise ValueError("phases must be (n_modes,) or (n_fields, n_modes)")
        if np.any(k == 0):
            raise ValueError("wavenumbers must be nonzero (zero mode has no bounded potential)")
        for arr in (a, k, p):
            arr.setflags(write=False)
        object.__setattr__(self, "amplitudes", a)
        object.__setattr__(self, "wavenumbers", k)
        object.__setattr__(self, "phases", p)

    @property
    def n_modes(self) -> int:
        return int(self.amplitudes.size)

    def _phase(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        phases = self.phases
        if phases.ndim == 2 and x.ndim > 1:
            # row i of x is evaluated in field i of the stack
            phases = phases.reshape((phases.shape[0],) + (1,) * (x.ndim - 1) + (self.n_modes,))
        return np.multiply.outer(x, self.wavenumbers) + phases

    # einsum reduces each row on its own; a 2-d ``@`` goes through BLAS gemv,
    # whose rounding differs from the 1-d dot, so a row would depend on the stack
    def force(self, x):
        """F at ``x`` (scalar or array)."""
        out = np.einsum("...j,j->...", np.cos(self._phase(x)), self.amplitudes)
        return float(out) if out.ndim == 0 else out

    def potential(self, x):
        """V with ``-dV/dx = F``; the integration constant is zero."""
        out = np.einsum(
            "...j,j->...", np.sin(self._phase(x)), -self.amplitudes / self.wavenumbers
        )
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class ScaledTrajectory:
    """Uniformly sampled (t, x, v) of one rescaled run.

    ``energy_error`` is each row's relative energy error from the step
    check, or ``None`` when the check did not run.
    """

    delta: float
    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray
    dt_used: float
    energy_error: np.ndarray | None = None

    def __post_init__(self) -> None:
        for name in ("times", "positions", "velocities", "energy_error"):
            if getattr(self, name) is None:
                continue
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


class EnsembleVelocities(tuple):
    """``(times, velocities)`` pair that also carries ``energy_error`` by name."""

    def __new__(cls, times, velocities, energy_error):
        pair = super().__new__(cls, (times, velocities))
        pair.energy_error = energy_error
        return pair


@dataclass(frozen=True)
class MsdFit:
    """Log-log fit of mean-square velocity displacement against lag."""

    gamma: float
    lags: np.ndarray
    msd: np.ndarray

    def __post_init__(self) -> None:
        for name in ("lags", "msd"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def synthesize_force_field(n_modes: int, spectrum: float, rng: RngStreamSpec) -> RandomForceField:
    """Random field with ``k_m = m``, ``a_m = m**-spectrum``, seeded phases."""
    n_modes = int(n_modes)
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    spectrum = float(spectrum)
    if not math.isfinite(spectrum):
        raise ValueError("spectrum exponent must be finite")
    m = np.arange(1, n_modes + 1, dtype=float)
    phases = generator(rng).uniform(0.0, 2.0 * math.pi, size=n_modes)
    return RandomForceField(amplitudes=m**-spectrum, wavenumbers=m, phases=phases)


def energy(field: RandomForceField, delta: float, x, v):
    """Conserved quantity ``v^2/2 + delta V(x)`` of the rescaled flow."""
    v = np.asarray(v, dtype=float)
    return 0.5 * v**2 + float(delta) * field.potential(x)


def _leapfrog(field, delta, x0, v0, dt, n_samples, steps_per_sample):
    # one particle per field of the stack, all advanced in lockstep
    inv_d2 = 1.0 / delta**2
    inv_d = 1.0 / delta
    shape = field.phases.shape[:-1]
    xs = np.empty(shape + (n_samples + 1,))
    vs = np.empty(shape + (n_samples + 1,))
    x, v = np.full(shape, x0), np.full(shape, v0)
    xs[..., 0], vs[..., 0] = x, v
    f = field.force(x) * inv_d
    for s in range(1, n_samples + 1):
        for _ in range(steps_per_sample):
            v_half = v + 0.5 * dt * f
            x = x + dt * v_half * inv_d2
            f = field.force(x) * inv_d
            v = v_half + 0.5 * dt * f
        xs[..., s], vs[..., s] = x, v
    return xs, vs


def kp_integrate(
    field: RandomForceField,
    delta: float,
    total_time: float,
    dt: float,
    initial: tuple[float, float] = (0.0, 1.0),
    n_samples: int = 400,
    validate: bool = True,
) -> ScaledTrajectory:
    """Leapfrog integration of the rescaled system, sampled uniformly.

    ``dt`` is a ceiling; the actual step divides the sampling interval
    exactly.  A stacked field runs one particle per row, all from
    ``initial``, and gives positions and velocities of shape
    ``(n_fields, n_samples + 1)``; each row has the same bits as a run of
    that row's field alone.  With ``validate=True`` the run is checked on
    its own samples: the flow conserves ``energy``, and the leapfrog keeps
    its error bounded at O(dt^2), so a row whose largest energy error
    exceeds 0.5% of its kinetic scale (half its mean squared velocity) has an
    unresolved step and is rejected (``DtSelfConsistencyError``, naming the
    lowest failing row of a stack).  The relative errors are kept as
    ``energy_error``.
    """
    delta = float(delta)
    if not delta > 0:
        raise ValueError("delta must be positive")
    if not total_time > 0:
        raise ValueError("total_time must be positive")
    if not dt > 0:
        raise ValueError("dt must be positive")
    n_samples = int(n_samples)
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    x0, v0 = (float(initial[0]), float(initial[1]))
    sample_dt = total_time / n_samples
    steps_per_sample = max(1, int(math.ceil(sample_dt / dt - 1e-12)))
    dt_used = sample_dt / steps_per_sample
    xs, vs = _leapfrog(field, delta, x0, v0, dt_used, n_samples, steps_per_sample)
    energy_error = None
    if validate:
        # one sample column at a time: the whole run at once would build an
        # (n_fields, n_samples + 1, n_modes) phase array and its sine
        e0 = energy(field, delta, xs[..., 0], vs[..., 0])
        drift = np.max([abs(energy(field, delta, xs[..., s], vs[..., s]) - e0)
                        for s in range(1, n_samples + 1)], axis=0)
        kinetic = 0.5 * np.mean(vs**2, axis=-1)
        # a particle at rest throughout has neither drift nor kinetic scale
        energy_error = np.divide(drift, kinetic, out=np.zeros_like(drift), where=drift > 0)
        failing = np.flatnonzero(energy_error > SELF_CONSISTENCY_TOL)
        if failing.size:
            row = int(failing[0])
            raise DtSelfConsistencyError(
                None if field.phases.ndim == 1 else row,
                float(drift.flat[row]), float(kinetic.flat[row]), dt_used,
            )
    times = np.linspace(0.0, total_time, n_samples + 1)
    return ScaledTrajectory(
        delta=delta, times=times, positions=xs, velocities=vs, dt_used=dt_used,
        energy_error=energy_error,
    )


def ensemble_velocities(
    n_trajectories: int,
    n_modes: int,
    spectrum: float,
    delta: float,
    total_time: float,
    dt: float,
    rng: RngStreamSpec,
    initial: tuple[float, float] = (0.0, 1.0),
    n_samples: int = 400,
    validate: bool = True,
) -> EnsembleVelocities:
    """Velocity samples of independent runs (fresh field per trajectory).

    Trajectory ``i`` draws its field phases from ``rng.at(stream_id=i)``;
    the fields run as one stack in lockstep, so a trajectory's velocities
    do not depend on how many others run beside it.  Returns
    ``(times, velocities)`` with velocities of shape
    ``(n_trajectories, n_samples + 1)``, and the step check's per-trajectory
    ``energy_error``.  A ``DtSelfConsistencyError`` names the lowest
    trajectory that failed the check.
    """
    n_trajectories = int(n_trajectories)
    if n_trajectories < 1:
        raise ValueError("n_trajectories must be >= 1")
    fields = [
        synthesize_force_field(n_modes, spectrum, rng.at(stream_id=i))
        for i in range(n_trajectories)
    ]
    stack = RandomForceField(
        amplitudes=fields[0].amplitudes,
        wavenumbers=fields[0].wavenumbers,
        phases=np.stack([field.phases for field in fields]),
    )
    traj = kp_integrate(
        stack, delta, total_time, dt, initial=initial, n_samples=n_samples, validate=validate
    )
    return EnsembleVelocities(traj.times, traj.velocities, traj.energy_error)


def msd_exponent(
    times: np.ndarray,
    velocities: np.ndarray,
    lag_lo: float,
    lag_hi: float,
    n_lags: int = 10,
) -> MsdFit:
    """Exponent gamma of ``mean |v(t+s) - v(t)|^2 ~ s**gamma``.

    Lags are log-spaced in ``[lag_lo, lag_hi]``, which must lie within
    [T/100, T/4] of the sampled window; averaging runs over all time
    origins and all trajectories.
    """
    times = np.asarray(times, dtype=float)
    velocities = np.atleast_2d(np.asarray(velocities, dtype=float))
    if times.ndim != 1 or times.size < 3:
        raise ValueError("times must be a 1-d array of at least 3 samples")
    if velocities.shape[1] != times.size:
        raise ValueError("velocity rows must match the time grid")
    sample_dt = times[1] - times[0]
    if not np.allclose(np.diff(times), sample_dt, rtol=1e-9, atol=0.0):
        raise ValueError("time samples must be uniform")
    span = times[-1] - times[0]
    if lag_lo < span / 100.0 * (1.0 - 1e-9) or lag_hi > span / 4.0 * (1.0 + 1e-9):
        raise ValueError("lag range must lie within [T/100, T/4]")
    if not 0 < lag_lo < lag_hi:
        raise ValueError("need 0 < lag_lo < lag_hi")
    raw = np.logspace(math.log10(lag_lo), math.log10(lag_hi), int(n_lags))
    lag_steps = np.unique(np.maximum(1, np.round(raw / sample_dt).astype(int)))
    lags = lag_steps * sample_dt
    msd = np.empty(lag_steps.size)
    for i, L in enumerate(lag_steps):
        diffs = velocities[:, L:] - velocities[:, :-L]
        msd[i] = float(np.mean(diffs**2))
    if np.any(msd <= 0):
        raise ValueError("mean-square displacement vanished at some lag; nothing to fit")
    gamma = float(np.polyfit(np.log(lags), np.log(msd), 1)[0])
    return MsdFit(gamma=gamma, lags=lags, msd=msd)
