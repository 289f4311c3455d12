"""Structural laws of the steppers, on the code paths that use them.

The symbol, the effective scheme and every exact row read off a gap-tooth
step assume that the step is a linear, shift-equivariant (circulant) map of
the node values, on either micro solver.  The coarse projective step on a
linear drift is an affine map ``x -> phi x + s`` whose noise ``s`` is a fixed
weighting of that step's draws; the derivative black box is linear in its
point; the KP leapfrog's energy error scales as dt^2.  These tests pin the
laws themselves, on seeded draws, so that a clip, a cache keyed on the wrong
value or a non-linear guard in a stepper fails here.
"""

import math

import numpy as np
import pytest

from patchlab import (
    CENTRAL_D2,
    CENTRAL_D4,
    UPWIND_D2,
    CoarseStepConfig,
    MacroState,
    MicroGrid,
    PatchConfig,
    PdeSpec,
    RngStreamSpec,
    SdeModel,
    ToothConfig,
    coarse_projective_step,
    derivative_blackbox,
    ensemble_normals,
    ensemble_velocities,
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


# a miss over dt_macro / ((1 - alpha) k dt_micro) times the size of the
# starts; measured worst cases over 20 seeds of these 8 configs, 5 steps each,
# were 3.9e-16 (phi) and 3.3e-16 (s), so the bound leaves a margin of about 10
COARSE_BOUND = 4e-15


@pytest.mark.parametrize("alpha", [0.0, 0.5])
@pytest.mark.parametrize("rate", [0.0, 1.0, 15.0, 50.0])
def test_the_coarse_step_is_affine_in_its_start(rate, alpha):
    # on one stream the EM member is a^i x plus noise, a = 1 - r dt_micro, so
    # the step is x -> phi x + s with phi = 1 + c (a^k - a^j), j = alpha k, and
    # s = c sigma sqrt(dt_micro) mean_n sum_m (a^(k-m) - [m <= j] a^(j-m)) xi_nm
    n, k, dt_micro, dt_macro = 10, 10, 1e-3, 0.1
    cfg = CoarseStepConfig(n, k, dt_micro, dt_macro, alpha)
    model = SdeModel.ornstein_uhlenbeck(rate) if rate else SdeModel.pure_noise()
    a, j = 1.0 - rate * dt_micro, cfg.alpha_steps
    c = dt_macro / ((1.0 - alpha) * k * dt_micro)
    phi = 1.0 + c * (a**k - a**j)
    m = np.arange(1, k + 1)
    weights = a ** (k - m) - np.where(m <= j, a ** (j - m), 0.0)
    rng = np.random.default_rng(int(rate))
    for step in range(5):
        spec = RngStreamSpec(11, step_id=step)
        x1, x2 = rng.standard_normal(2)
        y1 = coarse_projective_step(x1, model, cfg, spec)
        y2 = coarse_projective_step(x2, model, cfg, spec)
        assert abs((y1 - y2) - phi * (x1 - x2)) <= COARSE_BOUND * c * (abs(x1) + abs(x2))
        s = c * math.sqrt(dt_micro) * np.mean(ensemble_normals(spec, n, k) @ weights)
        assert abs(y1 - phi * x1 - s) <= COARSE_BOUND * c * (abs(x1) + abs(s))


@pytest.mark.parametrize("pde", [PdeSpec.heat(), PdeSpec.advection(), PdeSpec.biharmonic()],
                         ids=["heat", "advection", "biharmonic"])
@pytest.mark.parametrize("d_max", [4, 8])
def test_the_derivative_black_box_is_linear_in_its_point(pde, d_max):
    box = derivative_blackbox(pde, d_max, 1e-3, 0.1)
    response = np.array([box(unit) for unit in np.eye(d_max + 1)])
    rng = np.random.default_rng(d_max)
    for _ in range(20):
        p, q = rng.standard_normal((2, d_max + 1))
        a, b = rng.standard_normal(2)
        # measured worst 4.0e-16 of the sum of the terms' sizes: margin 10
        scale = np.abs(response) @ (abs(a) * np.abs(p) + abs(b) * np.abs(q))
        assert abs(box(a * p + b * q) - a * box(p) - b * box(q)) <= 4e-15 * scale
        assert abs(box(p) - response @ p) <= 4e-15 * np.abs(response) @ np.abs(p)


def test_the_derivative_black_box_reads_back_the_advection_response():
    # exp(dt L) shifts x^d / d! to (x - dt)^d / d!; averaged over a tooth of
    # width h (mean x^2 = h^2 / 12) and divided by dt, the unit points give
    dt, h = 1e-3, 0.1
    box = derivative_blackbox(PdeSpec.advection(), 4, dt, h)
    response = [box(unit) for unit in np.eye(5)]
    exact = [0.0, -1.0, dt / 2, -(h**2 / 24 + dt**2 / 6), h**2 * dt / 48 + dt**3 / 24]
    # measured within 2.5e-14 relative: the margin of 40 covers BLAS's order
    np.testing.assert_allclose(response, exact, rtol=1e-12, atol=0)


def test_the_kp_energy_error_scales_as_dt_squared():
    # a flat 64-mode field at delta 0.3; each dt divides the sample interval
    # 1.6e-4, so it is the step taken
    dts = np.array([4e-5, 2e-5, 1e-5, 5e-6])
    errors = []
    for dt in dts:
        run = ensemble_velocities(1, 64, 0.0, 0.3, 0.008, dt, RngStreamSpec(5), n_samples=50)
        assert run.dt_used == dt
        errors.append(run.energy_error)
    slopes = np.diff(np.log(errors), axis=0) / np.diff(np.log(dts))[:, None]
    # the O(dt^4) term bends each slope; measured worst |slope - 2| per halving
    # over 30 fields was 1.7e-5, 4.3e-6 and 1.2e-6, so each bound is about 10 times it
    assert np.all(np.abs(slopes - 2.0) <= np.array([[2e-4], [5e-5], [1.2e-5]]))
