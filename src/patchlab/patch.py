"""Gap-tooth macro stepping for 1-d periodic fields.

Each macro node owns a tooth of width ``h`` (< grid spacing).  A step
interpolates node values to a local Taylor polynomial (lifting), evolves
it with a micro solver over ``dt_micro``, averages the result back over
the tooth (restriction), and extrapolates the chord over the macro step:

    U' = U + dt_macro * (restrict_dt - restrict_alpha) / ((1-alpha) dt_micro)

The lifting stencil decides which effective macro scheme this reproduces;
that choice, not the micro solver, is what controls stability and whether
high-order operators are seen at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    MacroState,
    PdeSpec,
    TaylorPolynomial,
    ToothConfig,
    average_weights,
    poly_average,
)
from .micro import (
    MicroFieldState,
    MicroGrid,
    evolve_fd_buffered,
    propagator_matrix,
    tooth_average,
)

__all__ = [
    "LiftingScheme",
    "PatchConfig",
    "GapToothError",
    "CENTRAL_D2",
    "UPWIND_D2",
    "CENTRAL_D4",
    "lift",
    "lift_coefficients",
    "restrict",
    "extrapolate",
    "gap_tooth_step",
]

_VARIANTS = ("central_d2", "upwind_d2", "central_d4")


class GapToothError(ValueError):
    """A tooth-local failure, annotated with the tooth index."""


@dataclass(frozen=True)
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
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown lifting variant {self.variant!r}; expected one of {_VARIANTS}")
        if self.wind_sign not in (-1, 1):
            raise ValueError("wind_sign must be -1 or +1")

    @property
    def degree(self) -> int:
        return 4 if self.variant == "central_d4" else 2

    @property
    def stencil_points(self) -> int:
        return 5 if self.variant == "central_d4" else 3


CENTRAL_D2 = LiftingScheme("central_d2")
UPWIND_D2 = LiftingScheme("upwind_d2")
CENTRAL_D4 = LiftingScheme("central_d4")


@dataclass(frozen=True)
class PatchConfig:
    """Gap-tooth step parameters."""

    lifting: LiftingScheme
    tooth: ToothConfig
    dt_micro: float
    dt_macro: float
    alpha: float = 0.0
    evolution: str = "exact"
    micro: MicroGrid | None = None

    def __post_init__(self) -> None:
        dt_micro = float(self.dt_micro)
        dt_macro = float(self.dt_macro)
        if not (math.isfinite(dt_micro) and dt_micro > 0):
            raise ValueError("dt_micro must be positive and finite")
        if not (math.isfinite(dt_macro) and dt_macro > 0):
            raise ValueError("dt_macro must be positive and finite")
        if dt_micro > dt_macro * (1.0 + 1e-12):
            raise ValueError("dt_micro must not exceed dt_macro")
        alpha = float(self.alpha)
        if not 0.0 <= alpha < 1.0:
            raise ValueError("alpha must lie in [0, 1)")
        if self.evolution not in ("exact", "fd"):
            raise ValueError("evolution must be 'exact' or 'fd'")
        if self.evolution == "fd" and self.micro is None:
            raise ValueError("finite-difference evolution requires a MicroGrid")
        object.__setattr__(self, "dt_micro", dt_micro)
        object.__setattr__(self, "dt_macro", dt_macro)
        object.__setattr__(self, "alpha", alpha)


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


def lift(U: MacroState, j: int, scheme: LiftingScheme, h: float) -> TaylorPolynomial:
    """Local polynomial for tooth ``j``, centered at ``x_j = j*dx``."""
    j = int(j)
    if not 0 <= j < U.n_points:
        raise ValueError(f"tooth index {j} outside grid of {U.n_points} points")
    coeffs = lift_coefficients(U, scheme, h)[j]
    return TaylorPolynomial(center=j * U.dx, coeffs=tuple(coeffs))


def restrict(field, h: float):
    """Tooth average of a local field (polynomial or micro samples).

    Micro samples holding a stack of teeth give one average per row.
    """
    if isinstance(field, TaylorPolynomial):
        return poly_average(field, h)
    if isinstance(field, MicroFieldState):
        return tooth_average(field, h)
    raise TypeError(f"cannot restrict {type(field).__name__}")


def extrapolate(u_now, u_tilde, dt_micro: float, dt_macro: float,
                alpha: float = 0.0, u_tilde_alpha=None):
    """Macro update from restricted micro values (elementwise on arrays).

    With ``alpha = 0`` the chord runs from ``u_now`` to ``u_tilde``;
    with ``alpha > 0`` it runs from the restricted state at ``alpha *
    dt_micro`` (which must be supplied) to the one at ``dt_micro``.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError("alpha must lie in [0, 1)")
    if alpha == 0.0:
        base = u_now if u_tilde_alpha is None else u_tilde_alpha
    else:
        if u_tilde_alpha is None:
            raise ValueError("alpha > 0 requires the restricted state at alpha*dt_micro")
        base = u_tilde_alpha
    u_now = np.asarray(u_now, dtype=float)
    out = u_now + dt_macro * (np.asarray(u_tilde, dtype=float) - np.asarray(base, dtype=float)) / (
        (1.0 - alpha) * dt_micro
    )
    return float(out) if out.ndim == 0 else out


def _restricted_means_exact(coeffs: np.ndarray, pde: PdeSpec, dt: float, h: float) -> np.ndarray:
    degree = coeffs.shape[1] - 1
    M = propagator_matrix(pde, degree, dt)
    w = average_weights(degree, h)
    return (coeffs @ M.T) @ w


def _restricted_means_fd(U: MacroState, pde: PdeSpec, cfg: PatchConfig):
    """Tooth averages at ``dt_micro`` and at ``alpha * dt_micro`` on the FD route.

    One lift serves both evolutions, and each evolution advances every tooth
    as one row of a single array.  Failures are reported for tooth 0, since
    the micro grid and its checks are the same for every tooth, except a
    non-finite lifted row, which names the first tooth that has one.
    """
    h = cfg.tooth.h
    tooth = 0
    try:
        coeffs = lift_coefficients(U, cfg.lifting, h)
        bad = np.flatnonzero(~np.isfinite(coeffs).all(axis=1))
        if bad.size:
            tooth = int(bad[0])
            raise ValueError("lifted coefficients must be finite")
        # chord base from the sampled field at alpha*dt_micro (0 steps when
        # alpha = 0), so the quadrature error of tooth_average cancels in the
        # difference instead of being amplified by dt_macro/dt_micro
        return tuple(
            tooth_average(evolve_fd_buffered(coeffs, pde, dt, cfg.tooth, cfg.micro), h)
            for dt in (cfg.dt_micro, cfg.alpha * cfg.dt_micro)
        )
    except ValueError as err:
        raise GapToothError(f"tooth {tooth}: {err}") from err


def gap_tooth_step(U: MacroState, pde: PdeSpec, cfg: PatchConfig) -> MacroState:
    """One macro step of the gap-tooth scheme on a periodic grid."""
    h = cfg.tooth.h
    if cfg.evolution == "exact":
        coeffs = lift_coefficients(U, cfg.lifting, h)
        means_dt = _restricted_means_exact(coeffs, pde, cfg.dt_micro, h)
        if cfg.alpha > 0.0:
            means_alpha = _restricted_means_exact(coeffs, pde, cfg.alpha * cfg.dt_micro, h)
        else:
            means_alpha = None
    else:
        means_dt, means_alpha = _restricted_means_fd(U, pde, cfg)
    new_values = extrapolate(
        U.values, means_dt, cfg.dt_micro, cfg.dt_macro, cfg.alpha, means_alpha
    )
    return MacroState(values=new_values, dx=U.dx, time=U.time + cfg.dt_macro)
