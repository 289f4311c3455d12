"""Structural laws of the steppers, on the code paths that use them.

The symbol, the effective scheme and every exact row read off a gap-tooth
step assume that the step is a linear, shift-equivariant (circulant) map of
the node values, on either micro solver.  These tests pin the laws
themselves, on seeded draws, so that a clip, a cache keyed on the wrong
value or a non-linear guard in the cycle fails here.
"""

import math

import numpy as np
import pytest

from patchlab import (
    CENTRAL_D2,
    CENTRAL_D4,
    UPWIND_D2,
    MacroState,
    MicroGrid,
    PatchConfig,
    PdeSpec,
    ToothConfig,
    gap_tooth_step,
    influence_radius,
    stable_dt_bound,
    step_symbol,
)

N = 32
# pde -> (factory, dt_ratio, its liftings); the ratios are the CLI's defaults
PDES = {
    "heat": (PdeSpec.heat, 0.4, (CENTRAL_D2, CENTRAL_D4)),
    "advection": (PdeSpec.advection, 0.5, (CENTRAL_D2, UPWIND_D2)),
    "biharmonic": (PdeSpec.biharmonic, 0.0375, (CENTRAL_D2, CENTRAL_D4)),
}
# the chord multiplies the step's rounding by dt_macro / ((1 - alpha) dt_micro)
# = 1000 or 2000; measured worst cases over 20 draws per config were 9.3e-13
# (exact) and 4.8e-12 (FD), so each bound leaves a margin of about 10
SUPERPOSITION_BOUND = {"exact": 1e-11, "fd": 5e-11}


def patch_config(lifting, pde, dx, dt_ratio, alpha=0.0, evolution="exact"):
    dt_macro = dt_ratio * dx**pde.max_order
    dt_micro = 1e-3 * dt_macro
    h = 0.2 * dx
    if evolution == "exact":
        return PatchConfig(lifting=lifting, tooth=ToothConfig(h=h), dt_micro=dt_micro,
                           dt_macro=dt_macro, alpha=alpha)
    micro_dx = h / 16.0
    return PatchConfig(
        lifting=lifting,
        tooth=ToothConfig(h=h, H=h + 2.5 * influence_radius(pde, dt_micro)),
        dt_micro=dt_micro,
        dt_macro=dt_macro,
        alpha=alpha,
        evolution="fd",
        micro=MicroGrid(dx=micro_dx, dt=0.5 * stable_dt_bound(pde, micro_dx)),
    )


CASES = [pytest.param(name, lifting, "exact", id=f"{name}-{lifting.variant}")
         for name, (_, _, liftings) in PDES.items() for lifting in liftings]
CASES.append(pytest.param("heat", CENTRAL_D2, "fd", id="heat-central_d2-fd"))


@pytest.mark.parametrize("alpha", [0.0, 0.5])
@pytest.mark.parametrize("name, lifting, evolution", CASES)
def test_the_gap_tooth_step_is_linear_and_shift_equivariant(name, lifting, evolution, alpha):
    factory, dt_ratio, _ = PDES[name]
    pde = factory()
    dx = 2.0 * math.pi / N
    cfg = patch_config(lifting, pde, dx, dt_ratio, alpha, evolution)

    def step(values):
        return gap_tooth_step(MacroState(values, dx), pde, cfg).values

    for seed in range(5):
        rng = np.random.default_rng(seed)
        u, v = rng.standard_normal((2, N))
        a, b = rng.standard_normal(2)
        shift = int(rng.integers(1, N))
        step_u, step_v = step(u), step(v)
        # the same stencil at every node, to the bit
        np.testing.assert_array_equal(step(np.roll(u, shift)), np.roll(step_u, shift))
        gap = np.max(np.abs(step(a * u + b * v) - a * step_u - b * step_v))
        assert gap <= SUPERPOSITION_BOUND[evolution] * np.max(np.abs(step_u)) * (abs(a) + abs(b))


def test_step_symbol_works_on_the_fd_route():
    # the benchmark's FD configuration: heat, central_d2, n = 128, a buffer of
    # 2.5 times 6 sqrt(dt_micro) on each side of the tooth
    n = 128
    pde = PdeSpec.heat(1.0)
    dx = 2.0 * math.pi / n
    h = 0.2 * dx
    dt_macro = 0.4 * dx**2
    dt_micro = 1e-3 * dt_macro
    micro_dx = h / 16.0
    exact = PatchConfig(lifting=CENTRAL_D2, tooth=ToothConfig(h=h), dt_micro=dt_micro,
                        dt_macro=dt_macro)
    fd = PatchConfig(lifting=CENTRAL_D2,
                     tooth=ToothConfig(h=h, H=h + 2.5 * 6.0 * math.sqrt(dt_micro)),
                     dt_micro=dt_micro, dt_macro=dt_macro, evolution="fd",
                     micro=MicroGrid(dx=micro_dx, dt=0.2 * micro_dx**2))
    g_fd = step_symbol(pde, fd, n, dx)
    g_exact = step_symbol(pde, exact, n, dx)
    # measured 1.6e-11: the routes differ by the micro solver's error alone
    assert np.max(np.abs(g_fd - g_exact)) <= 2e-10 * np.max(np.abs(1.0 - g_exact))
    # and the symbol steps a state as the FD step does
    u = np.random.default_rng(3).standard_normal(n)
    np.testing.assert_allclose(np.fft.ifft(g_fd * np.fft.fft(u)).real,
                               gap_tooth_step(MacroState(u, dx), pde, fd).values,
                               rtol=0, atol=1e-10)
