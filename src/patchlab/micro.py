"""Microscale solvers: SDE time stepping and local PDE evolution.

Two interchangeable micro solvers evolve local Taylor polynomials:

* ``evolve_poly_exact`` applies the exact constant-coefficient propagator
  ``exp(dt L)``.  On polynomials the series terminates, so this is the
  idealized no-boundary micro solver (``H = inf``).
* ``evolve_fd_buffered`` runs an explicit finite-difference scheme on a
  buffered patch with the boundary values frozen at their initial values.
  The buffer must be wide enough that boundary contamination cannot reach
  the tooth within the requested horizon.  It takes the raw-derivative
  coefficients of many teeth as one array and evolves all of them in one
  stencil loop.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import PdeSpec, TaylorPolynomial, ToothConfig

__all__ = [
    "SdeModel",
    "MicroGrid",
    "MicroFieldState",
    "MicroStabilityError",
    "BufferTooSmallError",
    "ToothNotCoveredError",
    "em_step",
    "propagator_matrix",
    "evolve_poly_exact",
    "evolve_fd_buffered",
    "stable_dt_bound",
    "influence_radius",
    "tooth_average",
]


class MicroStabilityError(ValueError):
    """Micro time step violates the explicit stability bound."""


class BufferTooSmallError(ValueError):
    """Patch buffer cannot shield the tooth over the requested horizon."""


class ToothNotCoveredError(ValueError):
    """Micro samples do not span the tooth to be averaged."""


@dataclass(frozen=True)
class SdeModel:
    """Scalar SDE ``dx = drift(x) dt + noise_amplitude dW``.

    ``drift`` must accept and return numpy arrays elementwise (plain
    arithmetic lambdas qualify), so ensembles can be advanced in one call.
    """

    drift: Callable[[np.ndarray], np.ndarray]
    noise_amplitude: float = 1.0

    def __post_init__(self) -> None:
        amp = float(self.noise_amplitude)
        if not (math.isfinite(amp) and amp >= 0):
            raise ValueError("noise_amplitude must be finite and >= 0")
        object.__setattr__(self, "noise_amplitude", amp)

    @classmethod
    def pure_noise(cls, noise_amplitude: float = 1.0) -> "SdeModel":
        return cls(drift=lambda x: np.zeros(np.shape(x)), noise_amplitude=noise_amplitude)

    @classmethod
    def ornstein_uhlenbeck(cls, rate: float = 1.0, noise_amplitude: float = 1.0) -> "SdeModel":
        return cls(drift=lambda x, r=float(rate): -r * x, noise_amplitude=noise_amplitude)


@dataclass(frozen=True)
class MicroGrid:
    """Micro discretization: spacing ``dx`` and a ceiling ``dt`` on the step."""

    dx: float
    dt: float

    def __post_init__(self) -> None:
        dx = float(self.dx)
        dt = float(self.dt)
        if not (math.isfinite(dx) and dx > 0):
            raise ValueError("micro dx must be positive and finite")
        if not (math.isfinite(dt) and dt > 0):
            raise ValueError("micro dt must be positive and finite")
        object.__setattr__(self, "dx", dx)
        object.__setattr__(self, "dt", dt)


@dataclass(frozen=True)
class MicroFieldState:
    """Field samples on a uniform micro grid centered on a tooth.

    The last axis runs along the micro grid; a 2-d ``samples`` holds one
    tooth per row, each on the same grid about its own center.
    """

    center: float
    dx: float
    samples: np.ndarray
    time: float

    def __post_init__(self) -> None:
        samples = np.array(self.samples, dtype=float)
        if samples.ndim == 0 or samples.shape[-1] < 5:
            raise ValueError("MicroFieldState needs at least 5 samples along its last axis")
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "center", float(self.center))
        object.__setattr__(self, "dx", float(self.dx))
        object.__setattr__(self, "time", float(self.time))

    def grid(self) -> np.ndarray:
        return self.center + _centered_offsets(self.samples.shape[-1], self.dx)


def em_step(x, model: SdeModel, dt: float, xi):
    """One Euler-Maruyama step: ``x + dt b(x) + amp sqrt(dt) xi``.

    Works elementwise on arrays; ``xi`` holds the standard-normal draws.
    """
    if dt < 0:
        raise ValueError("dt must be >= 0")
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    step = dt * np.asarray(model.drift(x), dtype=float)
    noise = model.noise_amplitude * math.sqrt(dt) * xi
    if isinstance(step, np.ndarray) and step.shape == x.shape == noise.shape:
        # same operations as below, summed into the fresh ``dt*b`` array
        np.add(x, step, out=step)
        return np.add(step, noise, out=step)
    return x + step + noise


def propagator_matrix(pde: PdeSpec, degree: int, dt: float) -> np.ndarray:
    """Matrix of ``exp(dt L)`` on raw coefficient vectors of ``degree``.

    ``L = sum_r a_r d^r/dx^r`` shifts raw coefficients, so it is nilpotent
    on polynomials and the exponential series terminates exactly.  The
    matrix is cached and read-only.
    """
    degree = int(degree)
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if dt < 0:
        raise ValueError("dt must be >= 0")
    return _propagator_matrix(pde, degree, float(dt))


@functools.lru_cache(maxsize=64)
def _propagator_matrix(pde: PdeSpec, degree: int, dt: float) -> np.ndarray:
    # the matrix depends only on the operator, the degree and the step
    n = degree + 1
    L = np.zeros((n, n))
    for order, a in pde.terms:
        for k in range(n - order):
            L[k, k + order] += a
    M = np.eye(n)
    P = np.eye(n)
    factorial = 1.0
    for m in range(1, n + 1):
        P = P @ L
        if not P.any():
            break
        factorial *= m
        M = M + (dt**m / factorial) * P
    M.setflags(write=False)
    return M


def evolve_poly_exact(p: TaylorPolynomial, pde: PdeSpec, dt: float) -> TaylorPolynomial:
    """Exact free-space evolution of the polynomial field over ``dt``."""
    M = propagator_matrix(pde, p.degree, dt)
    return TaylorPolynomial(p.center, tuple(M @ np.asarray(p.coeffs)))


def stable_dt_bound(pde: PdeSpec, dx: float) -> float:
    """Largest admissible explicit micro step on spacing ``dx``."""
    if dx <= 0:
        raise ValueError("dx must be positive")
    bounds = []
    for order, a in pde.terms:
        if order == 1:
            bounds.append(0.8 * dx / abs(a))
        elif order == 2:
            bounds.append(0.4 * dx**2 / abs(a))
        elif order == 4:
            bounds.append(0.3 * dx**4 / (8.0 * abs(a)))
        else:
            raise ValueError(f"no finite-difference stencil for derivative order {order}")
    return min(bounds) if bounds else math.inf


def influence_radius(pde: PdeSpec, dt: float) -> float:
    """Distance boundary data can contaminate the interior within ``dt``.

    Advective transport moves |a| dt; diffusive spread is taken at six
    standard deviations of the corresponding kernel width.
    """
    if dt < 0:
        raise ValueError("dt must be >= 0")
    radius = 0.0
    for order, a in pde.terms:
        if order == 1:
            radius = max(radius, abs(a) * dt)
        elif order == 2:
            radius = max(radius, 6.0 * math.sqrt(abs(a) * dt))
        elif order == 4:
            radius = max(radius, 6.0 * (abs(a) * dt) ** 0.25)
        else:
            raise ValueError(f"no influence estimate for derivative order {order}")
    return radius


def _stencil_rhs(u: np.ndarray, pde: PdeSpec, dx: float) -> np.ndarray:
    """Spatial operator along the last axis; only interior entries are valid.

    ``u`` holds one patch or a stack of patches, one per row.
    """
    du = np.zeros_like(u)
    for order, a in pde.terms:
        if order == 1:
            slope = (u[..., 1:] - u[..., :-1]) / dx
            if a > 0:
                # information comes from the right (u_t = a u_x moves left)
                du[..., :-1] += a * slope
            else:
                du[..., 1:] += a * slope
        elif order == 2:
            du[..., 1:-1] += a * ((u[..., 2:] - 2.0 * u[..., 1:-1] + u[..., :-2]) / dx**2)
        elif order == 4:
            d4 = (
                u[..., 4:] - 4.0 * u[..., 3:-1] + 6.0 * u[..., 2:-2] - 4.0 * u[..., 1:-3]
                + u[..., :-4]
            )
            du[..., 2:-2] += a * (d4 / dx**4)
        else:  # pragma: no cover - rejected earlier by stable_dt_bound
            raise ValueError(f"no finite-difference stencil for derivative order {order}")
    return du


def _centered_offsets(n: int, dx: float) -> np.ndarray:
    """Positions of ``n`` micro samples relative to the tooth center."""
    return dx * (np.arange(n) - (n - 1) / 2.0)


def evolve_fd_buffered(
    coeffs: np.ndarray,
    pde: PdeSpec,
    dt: float,
    tooth: ToothConfig,
    grid: MicroGrid,
) -> MicroFieldState:
    """Explicit finite-difference evolution of local polynomials on buffered patches.

    ``coeffs`` holds raw-derivative coefficients about each tooth's center:
    one row per tooth, shape ``(n_teeth, degree+1)`` as
    ``patch.lift_coefficients`` returns them, or a single row for one tooth.
    Every tooth is sampled on the same micro grid about its own center, so
    all rows advance together in one stencil loop.  The samples have shape
    ``(n_teeth, n_micro)`` (``(n_micro,)`` for a single row) and sit in
    tooth-local coordinates, so the returned state has center 0.

    Each patch spans ``[center - H/2, center + H/2]``; boundary nodes are
    held at their initial values (frozen Dirichlet).  Raises
    ``MicroStabilityError`` if ``grid.dt`` violates the explicit bound and
    ``BufferTooSmallError`` if boundary influence could reach the tooth.
    """
    if dt < 0:
        raise ValueError("dt must be >= 0")
    if math.isinf(tooth.H):
        raise ValueError("finite patch width H required for the buffered solver")
    bound = stable_dt_bound(pde, grid.dx)
    if grid.dt > bound * (1.0 + 1e-12):
        raise MicroStabilityError(
            f"micro dt {grid.dt:g} exceeds the explicit stability bound {bound:g} "
            f"for dx {grid.dx:g}"
        )
    radius = influence_radius(pde, dt)
    if radius > tooth.buffer_width:
        raise BufferTooSmallError(
            f"influence radius {radius:g} exceeds buffer {tooth.buffer_width:g}; "
            f"need H >= {tooth.h + 2 * radius:g}"
        )

    coeffs = np.asarray(coeffs, dtype=float)
    n_half = max(2, int(math.ceil(tooth.H / (2.0 * grid.dx) - 1e-12)))
    offsets = _centered_offsets(2 * n_half + 1, grid.dx)
    # rows offsets^k / k!, so that coeffs @ basis evaluates every polynomial
    basis = np.empty((coeffs.shape[-1], offsets.size))
    basis[0] = 1.0
    for k in range(1, coeffs.shape[-1]):
        basis[k] = basis[k - 1] * offsets / k
    u = coeffs @ basis

    if dt > 0:
        n_steps = max(1, int(math.ceil(dt / grid.dt - 1e-12)))
        step = dt / n_steps
        # widest stencil arm decides how many boundary nodes stay frozen
        frozen = 2 if pde.max_order >= 3 else 1
        interior = np.s_[..., frozen:-frozen]
        for _ in range(n_steps):
            u[interior] += step * _stencil_rhs(u, pde, grid.dx)[interior]
    return MicroFieldState(center=0.0, dx=grid.dx, samples=u, time=dt)


def tooth_average(state: MicroFieldState, h: float):
    """Average of the micro field over the tooth ``[center - h/2, center + h/2]``.

    Trapezoidal rule on the micro samples, with linear interpolation to the
    exact tooth endpoints.  The rule is linear in the samples and the same
    for every row, so it is one weight vector: a stack of teeth gives an
    array with one average per row, a single tooth a float.
    """
    if h <= 0:
        raise ValueError("tooth width h must be positive")
    n = state.samples.shape[-1]
    s = _centered_offsets(n, state.dx)
    lo, hi = -h / 2.0, h / 2.0
    eps = 1e-12 * max(h, state.dx)
    if s[0] > lo + eps or s[-1] < hi - eps:
        c = state.center
        raise ToothNotCoveredError(
            f"micro samples span [{c + s[0]:g}, {c + s[-1]:g}] "
            f"but the tooth needs [{c + lo:g}, {c + hi:g}]"
        )
    avg = state.samples @ _tooth_weights(n, state.dx, float(h))
    return float(avg) if avg.ndim == 0 else avg


@functools.lru_cache(maxsize=64)
def _tooth_weights(n: int, dx: float, h: float) -> np.ndarray:
    # the weights depend only on the grid and the tooth, not on the samples
    s = _centered_offsets(n, dx)
    lo, hi = -h / 2.0, h / 2.0
    inside = (s > lo) & (s < hi)
    nodes = np.concatenate(([lo], s[inside], [hi]))

    def interpolation_row(x: float) -> np.ndarray:
        # linear interpolation on a uniform grid weighs each sample by a hat
        x = min(max(x, s[0]), s[-1])
        return np.maximum(0.0, 1.0 - np.abs(x - s) / dx)

    node_rows = np.vstack((interpolation_row(lo), np.eye(n)[inside], interpolation_row(hi)))
    weights = np.trapezoid(node_rows, nodes, axis=0) / h
    weights.setflags(write=False)
    return weights
