"""Scale-dependent effective order of a particle in a random force field.

The rescaled system

    dx/dt = v / delta**2,      dv/dt = F(x) / delta

is integrated with a symplectic leapfrog.  The mean-square displacement of
the velocity over a fixed window of lags answers "what order of effective
equation does v follow here": exponent ~2 means ballistic (first-order
transport), ~1 means diffusive (second-order).  For a field with a flat
mode spectrum the answer genuinely depends on delta, which is the point of
the experiment.  Each run checks its own step: the routine that integrates
a block of rows also takes each row's largest energy error over its samples.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading

import numpy as np

from .core import RngStreamSpec, at_least, frozen_array, generator, positive, step_cap, value_type

__all__ = [
    "RandomForceField",
    "ScaledTrajectory",
    "MsdFit",
    "SELF_CONSISTENCY_TOL",
    "synthesize_force_field",
    "kp_integrate",
    "ensemble_velocities",
    "energy",
    "msd_exponent",
]

# the largest energy error, relative to the kinetic scale, that a resolved step leaves
SELF_CONSISTENCY_TOL = 0.005


@value_type
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

    def __post_init__(self) -> dict:
        a = frozen_array(self.amplitudes)
        k = frozen_array(self.wavenumbers)
        p = frozen_array(self.phases)
        if a.ndim != 1 or a.shape != k.shape:
            raise ValueError("amplitudes and wavenumbers must be equal-length 1-d arrays")
        if p.ndim not in (1, 2) or p.shape[-1] != a.size:
            raise ValueError("phases must be (n_modes,) or (n_fields, n_modes)")
        if np.any(k == 0):
            raise ValueError("wavenumbers must be nonzero (zero mode has no bounded potential)")
        return {"amplitudes": a, "wavenumbers": k, "phases": p}

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


@value_type
class ScaledTrajectory:
    """Uniformly sampled (t, x, v) of one rescaled run.

    ``energy_error`` is each row's relative energy error from the step
    check, or ``None`` when the check did not run.  Unpacking gives the
    ``(times, velocities)`` pair that ``msd_exponent`` fits.
    """

    delta: float
    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray
    dt_used: float
    energy_error: np.ndarray | None = None

    def __post_init__(self) -> dict:
        names = ("times", "positions", "velocities", "energy_error")
        return {name: frozen_array(getattr(self, name))
                for name in names if getattr(self, name) is not None}

    def __iter__(self):
        return iter((self.times, self.velocities))


@value_type
class MsdFit:
    """Log-log fit of mean-square velocity displacement against lag."""

    gamma: float
    lags: np.ndarray
    msd: np.ndarray

    def __post_init__(self) -> dict:
        return {"lags": frozen_array(self.lags), "msd": frozen_array(self.msd)}


def field_modes(n_modes: int, spectrum: float) -> tuple[int, float]:
    """``(n_modes, spectrum)``; ``ValueError`` unless 1 <= n_modes <= the step cap,
    spectrum is finite and so is the largest amplitude, 1 or ``n_modes**-spectrum``."""
    n_modes, spectrum = at_least(n_modes, 1, "n_modes"), float(spectrum)
    step_cap(n_modes, "n_modes", n_modes, "array elements")
    if not math.isfinite(spectrum):
        raise ValueError("spectrum exponent must be finite")
    try:
        float(n_modes) ** -spectrum
    except OverflowError:
        raise ValueError(f"spectrum {spectrum:g} overflows the amplitudes m**-spectrum") from None
    return n_modes, spectrum


def synthesize_force_field(n_modes: int, spectrum: float, rng: RngStreamSpec) -> RandomForceField:
    """Random field with ``k_m = m``, ``a_m = m**-spectrum``, seeded phases."""
    n_modes, spectrum = field_modes(n_modes, spectrum)
    m = np.arange(1, n_modes + 1, dtype=float)
    phases = generator(rng).uniform(0.0, 2.0 * math.pi, size=n_modes)
    return RandomForceField(amplitudes=m**-spectrum, wavenumbers=m, phases=phases)


def energy(field: RandomForceField, delta: float, x, v):
    """Conserved quantity ``v^2/2 + delta V(x)`` of the rescaled flow."""
    v = np.asarray(v, dtype=float)
    return 0.5 * v**2 + float(delta) * field.potential(x)


def _leapfrog(field, delta, x0, v0, dt, n_samples, steps_per_sample, validate):
    # one particle per field of the stack, all advanced in lockstep, and, with
    # validate, each row's energy error, taken over the stored samples
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
    if not validate:
        return xs, vs, None
    # one sample column at a time, after the stepping loop: the whole run at
    # once would build an (n_fields, n_samples + 1, n_modes) phase array and its
    # sine, and each energy taken between the steps slows the small-array steps
    # around it; an overflowing velocity gives an error that is not finite, no warning
    with np.errstate(over="ignore", invalid="ignore"):
        e0, drift = energy(field, delta, x0, v0), np.zeros(shape)
        for s in range(1, n_samples + 1):
            drift = np.maximum(drift, abs(energy(field, delta, xs[..., s], vs[..., s]) - e0))
        kinetic = 0.5 * np.mean(vs**2, axis=-1)
        # a particle at rest throughout has neither drift nor kinetic scale;
        # a NaN drift stays NaN and fails the check
        return xs, vs, np.divide(drift, kinetic, out=np.zeros_like(drift), where=drift != 0)


def sample_steps(sample_dt: float, dt: float, n_samples: int, name: str, value: float) -> int:
    """Leapfrog steps per interval ``sample_dt`` under the step ceiling ``dt``;
    ``ValueError`` if ``n_samples`` intervals exceed the step cap, naming ``name``,
    or ``n_samples`` when each interval takes one step."""
    ratio = sample_dt / dt - 1e-12 if dt > 0 else math.inf
    # the ratio first, so that an infinite one never reaches ceil()
    step_cap(ratio, name, value, "leapfrog steps of", dt)
    steps = max(1, int(math.ceil(ratio)))
    if steps == 1:
        name, value = "n_samples", n_samples
    step_cap(n_samples * steps, name, value, "leapfrog steps of", dt)
    return steps


def checked_delta(delta) -> float:
    """``delta`` as a float; ``ValueError`` unless it is > 0 and it, its square and
    the reciprocal of its square, which the leapfrog scales by, are finite."""
    delta = positive(delta, "delta")
    square = delta * delta
    if not math.isfinite(square):
        raise ValueError(f"delta {delta:g} is too large: delta**2 overflows")
    if not (square > 0 and math.isfinite(1.0 / square)):
        raise ValueError(f"delta {delta:g} is too small: 1/delta**2 overflows")
    return delta


def finite_start(initial: tuple[float, float]) -> tuple[float, float]:
    """``initial`` as ``(x0, v0)`` floats; ``ValueError`` unless both are finite."""
    x0, v0 = (float(initial[0]), float(initial[1]))
    if not (math.isfinite(x0) and math.isfinite(v0)):
        raise ValueError("initial position and velocity must be finite")
    return x0, v0


def _usable_cpus() -> int:
    # the CPUs this process may run on, where the platform says
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


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
    that row's field alone.  A single field runs as a stack of one row and
    gives that row's 1-d samples.  The rows run as one contiguous block per
    CPU the process may use, at most one per row, the first block in the
    calling thread and each other in a thread of its own, so the bits do
    not depend on the CPU count either.  With ``validate=True`` the run is
    checked on its own samples: the flow conserves ``energy``, and the
    leapfrog keeps its error bounded at O(dt^2), so a row's ``energy_error``
    (its largest energy error over its kinetic scale, half its mean squared
    velocity) above ``SELF_CONSISTENCY_TOL``, or not finite, marks an
    unresolved step.  The run never raises for it; the caller compares
    ``energy_error`` with the tolerance.
    """
    delta = checked_delta(delta)
    total_time = positive(total_time, "total_time")
    dt = positive(dt, "dt")
    n_samples = at_least(n_samples, 1, "n_samples")
    x0, v0 = finite_start(initial)
    sample_dt = total_time / n_samples
    steps_per_sample = sample_steps(sample_dt, dt, n_samples, "total_time", total_time)
    dt_used = sample_dt / steps_per_sample
    run = (delta, x0, v0, dt_used, n_samples, steps_per_sample, validate)
    # each block of rows runs as a stack of its own, so every row keeps its
    # bits; numpy's cos and sin release the interpreter lock, so the blocks
    # overlap. Block 0 runs in the calling thread, each other in a thread of
    # its own under a copy of the caller's context, which carries np.errstate
    rows = np.atleast_2d(field.phases)
    blocks = [
        RandomForceField(amplitudes=field.amplitudes, wavenumbers=field.wavenumbers, phases=block)
        for block in np.array_split(rows, min(len(rows), _usable_cpus()))
    ]
    results = [None] * len(blocks)

    def integrate(i):
        try:
            results[i] = _leapfrog(blocks[i], *run)
        except BaseException as error:  # re-raised once every block has ended
            results[i] = error

    helpers = [threading.Thread(target=contextvars.copy_context().run, args=(integrate, i))
               for i in range(1, len(blocks))]
    for thread in helpers:
        thread.start()
    integrate(0)
    for thread in helpers:
        thread.join()
    for result in results:
        if isinstance(result, BaseException):
            raise result
    xs, vs, errors = zip(*results)
    # a single field is the one row of its stack, returned without the stack axis
    shape = field.phases.shape[:-1]
    energy_error = None if errors[0] is None else np.concatenate(errors).reshape(shape)
    times = np.linspace(0.0, total_time, n_samples + 1)
    return ScaledTrajectory(
        delta=delta, times=times, positions=np.concatenate(xs).reshape(shape + (-1,)),
        velocities=np.concatenate(vs).reshape(shape + (-1,)), dt_used=dt_used,
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
) -> ScaledTrajectory:
    """Velocity samples of independent runs (fresh field per trajectory).

    Trajectory ``i`` draws its field phases from ``rng.at(stream_id=i)``;
    the fields run as one stack in lockstep, so a trajectory's velocities
    do not depend on how many others run beside it.  Returns the stack's
    ``kp_integrate`` run, which unpacks as ``(times, velocities)`` with
    velocities of shape ``(n_trajectories, n_samples + 1)`` and carries the
    step check's per-trajectory ``energy_error``.
    """
    n_trajectories = at_least(n_trajectories, 1, "n_trajectories")
    fields = [
        synthesize_force_field(n_modes, spectrum, rng.at(stream_id=i))
        for i in range(n_trajectories)
    ]
    stack = RandomForceField(
        amplitudes=fields[0].amplitudes,
        wavenumbers=fields[0].wavenumbers,
        phases=np.stack([field.phases for field in fields]),
    )
    return kp_integrate(
        stack, delta, total_time, dt, initial=initial, n_samples=n_samples, validate=validate
    )


def fit_lag_steps(times: np.ndarray, lag_lo: float, lag_hi: float, n_lags: int) -> np.ndarray:
    """The distinct sample steps of ``n_lags`` lags log-spaced in ``[lag_lo, lag_hi]``;
    ``ValueError`` unless ``times`` is a uniform 1-d grid of at least 3 samples, the
    lags lie within [T/100, T/4] of it, and they round to two or more steps."""
    if times.ndim != 1 or times.size < 3:
        raise ValueError("times must be a 1-d array of at least 3 samples")
    sample_dt = times[1] - times[0]
    if not np.allclose(np.diff(times), sample_dt, rtol=1e-9, atol=0.0):
        raise ValueError("time samples must be uniform")
    span = times[-1] - times[0]
    if lag_lo < span / 100.0 * (1.0 - 1e-9) or lag_hi > span / 4.0 * (1.0 + 1e-9):
        raise ValueError("lag range must lie within [T/100, T/4]")
    if not 0 < lag_lo < lag_hi:
        raise ValueError("need 0 < lag_lo < lag_hi")
    n_lags = at_least(n_lags, 2, "n_lags")
    step_cap(n_lags, "n_lags", n_lags, "array elements")
    raw = np.logspace(math.log10(lag_lo), math.log10(lag_hi), n_lags)
    steps = np.maximum(1, np.round(raw / sample_dt).astype(int))
    # nondecreasing, so the first of each run of equal steps is np.unique's
    # result without the numpy.ma import that np.unique costs
    steps = steps[np.concatenate(([True], steps[1:] != steps[:-1]))]
    if steps.size < 2:
        raise ValueError(
            f"lags in [{lag_lo}, {lag_hi}] round to one sample step; "
            "need at least two distinct lag steps to fit an exponent"
        )
    return steps


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
    origins and all trajectories.  When the MSD is not positive at some
    lag, nothing is fitted and ``gamma`` is nan.
    """
    times = np.asarray(times, dtype=float)
    velocities = np.atleast_2d(np.asarray(velocities, dtype=float))
    steps = fit_lag_steps(times, lag_lo, lag_hi, n_lags)
    if velocities.shape[1] != times.size:
        raise ValueError("velocity rows must match the time grid")
    lags = steps * (times[1] - times[0])
    msd = np.empty(steps.size)
    for i, L in enumerate(steps):
        diffs = velocities[:, L:] - velocities[:, :-L]
        msd[i] = float(np.mean(diffs**2))
    # an MSD that vanished at some lag leaves no exponent to fit
    gamma = float(np.polyfit(np.log(lags), np.log(msd), 1)[0]) if np.all(msd > 0) else math.nan
    return MsdFit(gamma=gamma, lags=lags, msd=msd)
