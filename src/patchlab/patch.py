"""Gap-tooth macro stepping for 1-d periodic fields.

Each macro node owns a tooth of width ``h`` (< grid spacing).  A step
lifts the node values to one row of raw-derivative coefficients per tooth
(an ``(n, degree+1)`` array), evolves the rows with a micro solver over
``dt_micro``, averages the result back over each tooth (restriction), and
extrapolates the chord over the macro step:

    U' = U + dt_macro * (restrict_dt - restrict_alpha) / ((1-alpha) dt_micro)

The lifting stencil decides which effective macro scheme this reproduces;
that choice, not the micro solver, is what controls stability and whether
high-order operators are seen at all.
"""

from __future__ import annotations

import math

import numpy as np

from .core import MacroState, PdeSpec, ToothConfig, at_least, average_weights, positive, value_type
from .micro import MicroGrid, evolve_fd_buffered, propagator_matrix, tooth_average

__all__ = [
    "LiftingScheme",
    "PatchConfig",
    "CENTRAL_D2",
    "UPWIND_D2",
    "CENTRAL_D4",
    "lift",
    "lift_coefficients",
    "restrict",
    "gap_tooth_step",
    "step_symbol",
]

# lifting variant -> (polynomial degree, stencil points)
LIFTING_VARIANTS = {"central_d2": (2, 3), "upwind_d2": (2, 3), "central_d4": (4, 5)}


@value_type
class LiftingScheme:
    """How node values become local polynomials.

    * ``central_d2``: centered second differences, quadratic polynomial.
    * ``upwind_d2``: quadratic, but the slope is one-sided against the
      transport direction (``wind_sign`` = sign of the transport velocity).
    * ``central_d4``: five-point stencils, quartic polynomial.
    """

    variant: str
    wind_sign: int = 1

    def __post_init__(self) -> None:
        if self.variant not in LIFTING_VARIANTS:
            raise ValueError(f"unknown lifting variant {self.variant!r}; "
                             f"expected one of {tuple(LIFTING_VARIANTS)}")
        if self.wind_sign not in (-1, 1):
            raise ValueError("wind_sign must be -1 or +1")

    @property
    def degree(self) -> int:
        return LIFTING_VARIANTS[self.variant][0]

    @property
    def stencil_points(self) -> int:
        return LIFTING_VARIANTS[self.variant][1]


CENTRAL_D2 = LiftingScheme("central_d2")
UPWIND_D2 = LiftingScheme("upwind_d2")
CENTRAL_D4 = LiftingScheme("central_d4")


@value_type
class PatchConfig:
    """Gap-tooth step parameters."""

    lifting: LiftingScheme
    tooth: ToothConfig
    dt_micro: float
    dt_macro: float
    alpha: float = 0.0
    evolution: str = "exact"
    micro: MicroGrid | None = None

    def __post_init__(self) -> dict:
        dt_micro = positive(self.dt_micro, "dt_micro")
        dt_macro = positive(self.dt_macro, "dt_macro")
        if dt_micro > dt_macro * (1.0 + 1e-12):
            raise ValueError("dt_micro must not exceed dt_macro")
        alpha = float(self.alpha)
        if not 0.0 <= alpha < 1.0:
            raise ValueError("alpha must lie in [0, 1)")
        if self.evolution not in ("exact", "fd"):
            raise ValueError("evolution must be 'exact' or 'fd'")
        if self.evolution == "fd" and self.micro is None:
            raise ValueError("finite-difference evolution requires a MicroGrid")
        if self.evolution == "fd" and math.isinf(self.tooth.H):
            raise ValueError("finite-difference evolution requires a finite patch width H")
        return {"dt_micro": dt_micro, "dt_macro": dt_macro, "alpha": alpha}


def lift_coefficients(U: MacroState, scheme: LiftingScheme, h: float) -> np.ndarray:
    """Raw-derivative coefficients for every tooth at once, shape (n, degree+1).

    Row ``j`` holds the coefficients of the polynomial attached to node
    ``j`` (periodic neighbors).  The constant coefficient is corrected so
    that the tooth average of the lifted polynomial reproduces ``U[j]``
    exactly.
    """
    if not (0 < h <= U.dx * (1.0 + 1e-12)):
        raise ValueError("tooth width h must satisfy 0 < h <= dx (teeth must not overlap)")
    u = U.values
    dx = U.dx
    if U.n_points < scheme.stencil_points:
        raise ValueError(
            f"{scheme.variant} lifting needs at least {scheme.stencil_points} grid points"
        )
    # periodic neighbours as views of one padded copy: padded[r + k] = U_{j+k}
    r = scheme.stencil_points // 2
    n = u.size
    padded = np.concatenate((u[n - r:], u, u[:r]))
    up1 = padded[r + 1:r + 1 + n]   # U_{j+1}
    um1 = padded[r - 1:r - 1 + n]   # U_{j-1}
    if scheme.variant == "central_d4":
        up2 = padded[r + 2:r + 2 + n]
        um2 = padded[r - 2:r - 2 + n]
        d1 = (-up2 + 8.0 * up1 - 8.0 * um1 + um2) / (12.0 * dx)
        d2 = (-up2 + 16.0 * up1 - 30.0 * u + 16.0 * um1 - um2) / (12.0 * dx**2)
        d3 = (up2 - 2.0 * up1 + 2.0 * um1 - um2) / (2.0 * dx**3)
        d4 = (up2 - 4.0 * up1 + 6.0 * u - 4.0 * um1 + um2) / dx**4
        d0 = u - h**2 * d2 / 24.0 - h**4 * d4 / 1920.0
        return _teeth_rows(d0, d1, d2, d3, d4)
    d2 = (up1 - 2.0 * u + um1) / dx**2
    if scheme.variant == "central_d2":
        d1 = (up1 - um1) / (2.0 * dx)
    else:  # upwind_d2: slope taken from the side the wind comes from
        d1 = (u - um1) / dx if scheme.wind_sign > 0 else (up1 - u) / dx
    d0 = u - h**2 * d2 / 24.0
    return _teeth_rows(d0, d1, d2)


def _teeth_rows(*columns: np.ndarray) -> np.ndarray:
    # one C-ordered row per tooth; np.stack(columns, axis=1) takes twice as long
    return np.array(columns).T.copy()


def lift(U: MacroState, j: int, scheme: LiftingScheme, h: float) -> np.ndarray:
    """Coefficient row of tooth ``j`` (about ``x_j = j*dx``): row ``j`` of ``lift_coefficients``."""
    j = at_least(j, 0, "j")
    if j >= U.n_points:
        raise ValueError(f"tooth index {j} outside grid of {U.n_points} points")
    return lift_coefficients(U, scheme, h)[j]


def restrict(coeffs: np.ndarray, h: float):
    """Tooth average of raw-derivative coefficients: ``coeffs @ average_weights``.

    A single row gives a float, a stack of rows one average per row.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    avg = coeffs @ average_weights(coeffs.shape[-1] - 1, h)
    return float(avg) if avg.ndim == 0 else avg


def _restricted_means_exact(coeffs: np.ndarray, pde: PdeSpec, dt: float, h: float) -> np.ndarray:
    M = propagator_matrix(pde, coeffs.shape[1] - 1, dt)
    return restrict(coeffs @ M.T, h)


def _restricted_means_fd(U: MacroState, pde: PdeSpec, cfg: PatchConfig):
    """Tooth averages at ``dt_micro`` and at ``alpha * dt_micro`` on the FD route.

    One lift serves both evolutions, and each evolution advances every tooth
    as one row of a single array.  A non-finite lifted row raises
    ``ValueError`` naming the first tooth that has one; every other check
    (lift, stability, buffer, coverage) holds for all teeth alike, so its
    ``ValueError`` names no tooth.
    """
    h = cfg.tooth.h
    coeffs = lift_coefficients(U, cfg.lifting, h)
    if not np.isfinite(coeffs).all():
        bad = np.flatnonzero(~np.isfinite(coeffs).all(axis=1))
        raise ValueError(f"tooth {bad[0]}: lifted coefficients must be finite")
    # chord base from the sampled field at alpha*dt_micro (0 steps when
    # alpha = 0), so the quadrature error of tooth_average cancels in the
    # difference instead of being amplified by dt_macro/dt_micro
    return tuple(
        tooth_average(evolve_fd_buffered(coeffs, pde, dt, cfg.tooth, cfg.micro), cfg.micro.dx, h)
        for dt in (cfg.dt_micro, cfg.alpha * cfg.dt_micro)
    )


def gap_tooth_step(U: MacroState, pde: PdeSpec, cfg: PatchConfig) -> MacroState:
    """One macro step of the gap-tooth scheme on a periodic grid."""
    h = cfg.tooth.h
    if cfg.evolution == "exact":
        coeffs = lift_coefficients(U, cfg.lifting, h)
        means_dt = _restricted_means_exact(coeffs, pde, cfg.dt_micro, h)
        # the chord starts from U itself at alpha = 0
        base = (_restricted_means_exact(coeffs, pde, cfg.alpha * cfg.dt_micro, h)
                if cfg.alpha > 0.0 else U.values)
    else:
        means_dt, base = _restricted_means_fd(U, pde, cfg)
    new_values = U.values + cfg.dt_macro * (means_dt - base) / ((1.0 - cfg.alpha) * cfg.dt_micro)
    return MacroState(new_values, U.dx, U.time + cfg.dt_macro)


def step_symbol(pde: PdeSpec, cfg: PatchConfig, n_points: int, dx: float) -> np.ndarray:
    """Amplification factor ``G(k)`` of one gap-tooth step, ``np.fft.fft`` order.

    On a periodic grid the step is a linear circulant map, so its response
    to a unit impulse at node 0 (column 0 of the step matrix, the stencil)
    fixes it: ``fft(step(u)) = G * fft(u)`` for every state ``u``, and
    ``np.fft.ifft(G).real`` gives the stencil back.  A step that overflows,
    so that the stencil is not finite, raises ``ValueError``.
    """
    impulse = np.zeros(at_least(n_points, 3, "n_points"))
    impulse[0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        stencil = gap_tooth_step(MacroState(impulse, dx), pde, cfg).values
    if not np.isfinite(stencil).all():
        raise ValueError(f"the gap-tooth step is not finite at dt_macro = {cfg.dt_macro!r}")
    return np.fft.fft(stencil)
