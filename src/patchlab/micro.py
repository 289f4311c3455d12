"""Microscale solvers: SDE time stepping and local PDE evolution.

A tooth is a row of raw-derivative coefficients (see ``core``), a stack
of teeth an ``(n_teeth, degree+1)`` array.  Two micro solvers evolve them:

* ``propagator_matrix`` is the exact propagator ``exp(dt L)`` on a row.
  The series terminates on polynomials, so ``coeffs @ M.T`` is the
  idealized no-boundary solver (``H = inf``) for a whole stack.
* ``evolve_fd_buffered`` samples every row on a buffered patch and runs an
  explicit finite-difference scheme with the boundary values frozen, all
  teeth in one stencil loop, and returns ``(n_teeth, n_micro)`` samples
  for ``tooth_average``.  The buffer must be wide enough that boundary
  contamination cannot reach the tooth within the requested horizon.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

from .core import PdeSpec, ToothConfig, at_least, frozen_array, positive, step_cap, value_type

__all__ = [
    "SdeModel",
    "MicroGrid",
    "em_step",
    "propagator_matrix",
    "evolve_fd_buffered",
    "stable_dt_bound",
    "influence_radius",
    "tooth_average",
]


@value_type
class SdeModel:
    """Scalar SDE ``dx = drift(x) dt + noise_amplitude dW``.

    ``drift`` must accept numpy arrays elementwise (plain arithmetic lambdas
    qualify), so ensembles can be advanced in one call, and return an array
    or a scalar that broadcasts against ``x``: ``pure_noise`` returns ``0.0``.
    """

    drift: Callable[[np.ndarray], np.ndarray]
    noise_amplitude: float = 1.0

    def __post_init__(self) -> dict:
        amp = float(self.noise_amplitude)
        if not (math.isfinite(amp) and amp >= 0):
            raise ValueError("noise_amplitude must be finite and >= 0")
        return {"noise_amplitude": amp}

    @classmethod
    def pure_noise(cls, noise_amplitude: float = 1.0) -> "SdeModel":
        return cls(drift=lambda x: 0.0, noise_amplitude=noise_amplitude)

    @classmethod
    def ornstein_uhlenbeck(cls, rate: float = 1.0, noise_amplitude: float = 1.0) -> "SdeModel":
        return cls(drift=lambda x, r=float(rate): -r * x, noise_amplitude=noise_amplitude)


@value_type
class MicroGrid:
    """Micro discretization: spacing ``dx`` and a ceiling ``dt`` on the step."""

    dx: float
    dt: float

    def __post_init__(self) -> dict:
        return {"dx": positive(self.dx, "micro dx"), "dt": positive(self.dt, "micro dt")}


def em_step(x, model: SdeModel, dt: float, xi):
    """One Euler-Maruyama step: ``x + dt b(x) + amp sqrt(dt) xi``.

    Works elementwise on arrays, evaluated left to right in that order;
    ``xi`` holds the standard-normal draws.
    """
    if not dt >= 0:  # also rejects nan
        raise ValueError("dt must be >= 0")
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    return (x + dt * np.asarray(model.drift(x), dtype=float)
            + model.noise_amplitude * math.sqrt(dt) * xi)


def propagator_matrix(pde: PdeSpec, degree: int, dt: float) -> np.ndarray:
    """Matrix of ``exp(dt L)`` on raw coefficient vectors of ``degree``.

    ``L = sum_r a_r d^r/dx^r`` shifts raw coefficients, so it is nilpotent
    on polynomials and the exponential series terminates exactly.  The
    matrix is cached and read-only; a ``dt`` that makes it non-finite, by
    overflow or as NaN, raises ``ValueError``.
    """
    degree = at_least(degree, 0, "degree")
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
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(1, n + 1):
            P = P @ L
            if not P.any():
                break
            factorial *= m
            try:
                scale = dt**m / factorial
            except OverflowError:
                scale = math.inf
            M = M + scale * P
    if not np.isfinite(M).all():
        # raised, so not cached: a smaller dt gets its own entry
        raise ValueError(f"the propagator exp(dt L) is not finite at dt = {dt!r}")
    return frozen_array(M)


# derivative order -> (stencil half-width, c of the stable step c dx**order / |a|,
# boundary spread within dt as a function of s = |a| dt): transport moves s,
# diffusion spreads six standard deviations of its kernel's width
_FD_ORDERS = {
    1: (1, 0.8, lambda s: s),
    2: (1, 0.4, lambda s: 6.0 * math.sqrt(s)),
    4: (2, 0.3 / 8.0, lambda s: 6.0 * s**0.25),
}


def _fd_order(order: int) -> tuple:
    try:
        return _FD_ORDERS[order]
    except KeyError:
        raise ValueError(f"no finite-difference stencil for derivative order {order}") from None


def stable_dt_bound(pde: PdeSpec, dx: float) -> float:
    """Largest admissible explicit micro step on spacing ``dx``."""
    dx = positive(dx, "dx")
    bound = math.inf
    for order, a in pde.terms:
        bound = min(bound, _fd_order(order)[1] * dx**order / abs(a))
    return bound


def influence_radius(pde: PdeSpec, dt: float) -> float:
    """Distance boundary data can contaminate the interior within ``dt``."""
    if not dt >= 0:  # also rejects nan
        raise ValueError("dt must be >= 0")
    radius = 0.0
    for order, a in pde.terms:
        radius = max(radius, _fd_order(order)[2](abs(a) * dt))
    return radius


def _centered_offsets(n: int, dx: float) -> np.ndarray:
    """Positions of ``n`` micro samples relative to the tooth center."""
    return dx * (np.arange(n) - (n - 1) / 2.0)


@functools.lru_cache(maxsize=64)
def _sampling_basis(n_coeffs: int, n_half: int, dx: float) -> np.ndarray:
    # rows offsets^k / k! on the 2 n_half + 1 micro nodes, so that
    # coeffs @ basis evaluates every polynomial; it depends only on the grid
    offsets = _centered_offsets(2 * n_half + 1, dx)
    basis = np.empty((n_coeffs, offsets.size))
    basis[0] = 1.0
    for k in range(1, n_coeffs):
        basis[k] = basis[k - 1] * offsets / k
    return frozen_array(basis)


def evolve_fd_buffered(
    coeffs: np.ndarray,
    pde: PdeSpec,
    dt: float,
    tooth: ToothConfig,
    grid: MicroGrid,
) -> np.ndarray:
    """Explicit finite-difference evolution of local polynomials on buffered patches.

    ``coeffs`` holds raw-derivative coefficients about each tooth's center:
    one row per tooth, shape ``(n_teeth, degree+1)`` as
    ``patch.lift_coefficients`` returns them, or a single row for one tooth.
    Every tooth is sampled on the same micro grid about its own center, so
    all rows advance together in one stencil loop.  The returned samples
    have shape ``(n_teeth, n_micro)`` (``(n_micro,)`` for a single row), at
    spacing ``grid.dx`` and symmetric about each tooth's center.

    Each patch spans ``[center - H/2, center + H/2]``; boundary nodes are
    held at their initial values (frozen Dirichlet).  Raises ``ValueError``
    if ``grid.dt`` violates the explicit bound, if boundary influence could
    reach the tooth, or if a row has no coefficient.
    """
    if not dt >= 0:  # also rejects nan
        raise ValueError("dt must be >= 0")
    if math.isinf(tooth.H):
        raise ValueError("finite patch width H required for the buffered solver")
    bound = stable_dt_bound(pde, grid.dx)
    if grid.dt > bound * (1.0 + 1e-12):
        raise ValueError(
            f"micro dt {grid.dt:g} exceeds the explicit stability bound {bound:g} "
            f"for dx {grid.dx:g}"
        )
    radius = influence_radius(pde, dt)
    if radius > tooth.buffer_width:
        raise ValueError(
            f"influence radius {radius:g} exceeds buffer {tooth.buffer_width:g}; "
            f"need H >= {tooth.h + 2 * radius:g}"
        )

    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim == 0 or coeffs.shape[-1] == 0:
        raise ValueError("coefficient rows need at least one coefficient")
    n_half = max(2, int(math.ceil(tooth.H / (2.0 * grid.dx) - 1e-12)))
    u = coeffs @ _sampling_basis(coeffs.shape[-1], n_half, grid.dx)

    if dt > 0:
        ratio = dt / grid.dt - 1e-12
        step_cap(ratio, "dt", dt, "micro steps of", grid.dt)
        n_steps = max(1, int(math.ceil(ratio)))
        step = dt / n_steps
        # widest stencil arm, the highest order's, decides how many boundary nodes stay frozen
        frozen = _FD_ORDERS[pde.max_order][0] if pde.terms else 1
        # node-major, so each stencil arm is one contiguous block of rows:
        # at[s] holds node j + s of every tooth for the interior nodes j
        v = np.ascontiguousarray(u.T)
        at = {s: v[frozen + s : len(v) - frozen + s] for s in range(-frozen, frozen + 1)}
        dx = grid.dx
        for _ in range(n_steps):
            # the operator sums from 0.0, so a -0.0 term leaves 0.0
            rhs = 0.0
            for order, a in pde.terms:
                if order == 1:
                    # u_t = a u_x moves left for a > 0: take the slope from the right
                    term = at[1] - at[0] if a > 0 else at[0] - at[-1]
                    term /= dx
                elif order == 2:
                    term = 2.0 * at[0]
                    np.subtract(at[1], term, out=term)
                    term += at[-1]
                    term /= dx**2
                else:  # order 4; stable_dt_bound refused any other
                    term = 4.0 * at[1]
                    np.subtract(at[2], term, out=term)
                    term += 6.0 * at[0]
                    term -= 4.0 * at[-1]
                    term += at[-2]
                    term /= dx**4
                term *= a
                rhs = np.add(rhs, term, out=term)
            rhs *= step
            at[0] += rhs
        u = np.ascontiguousarray(v.T)
    return u


def tooth_average(samples: np.ndarray, dx: float, h: float):
    """Average of micro samples over the tooth ``[-h/2, h/2]`` about their center.

    ``samples`` run along the last axis at spacing ``dx``, symmetric about
    the center, as ``evolve_fd_buffered`` returns them.  Trapezoidal rule
    with linear interpolation to the tooth endpoints: one weight vector, so
    a stack of teeth gives one average per row, a single tooth a float.
    """
    h = positive(h, "tooth width h")
    dx = positive(dx, "micro dx")
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 0 or samples.shape[-1] == 0:
        raise ValueError("tooth_average needs at least one sample along a last axis")
    avg = samples @ _tooth_weights(samples.shape[-1], dx, h)
    return float(avg) if avg.ndim == 0 else avg


@functools.lru_cache(maxsize=64)
def _tooth_weights(n: int, dx: float, h: float) -> np.ndarray:
    # the weights depend only on the grid and the tooth, not on the samples;
    # a grid that does not cover the tooth raises, so it is never cached
    s = _centered_offsets(n, dx)
    lo, hi = -h / 2.0, h / 2.0
    eps = 1e-12 * max(h, dx)
    if s[0] > lo + eps or s[-1] < hi - eps:
        raise ValueError(
            f"micro samples span [{s[0]:g}, {s[-1]:g}] but the tooth needs [{lo:g}, {hi:g}]"
        )
    inside = (s > lo) & (s < hi)
    nodes = np.concatenate(([lo], s[inside], [hi]))

    def interpolation_row(x: float) -> np.ndarray:
        # linear interpolation on a uniform grid weighs each sample by a hat
        x = min(max(x, s[0]), s[-1])
        return np.maximum(0.0, 1.0 - np.abs(x - s) / dx)

    node_rows = np.vstack((interpolation_row(lo), np.eye(n)[inside], interpolation_row(hi)))
    return frozen_array(np.trapezoid(node_rows, nodes, axis=0) / h)
