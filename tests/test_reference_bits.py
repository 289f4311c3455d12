"""Bit pins: the exact gap-tooth step and the order probe against reference copies.

The references below are the straightforward implementations the package
started from: operators rebuilt on every call, periodic neighbours taken
with ``np.roll``, the probe indexing its sweep array and evaluating
``response @ coeffs``.  The package caches its operators and moves data
differently, and these tests pin that it still computes the same bits.
"""

import math

import numpy as np
import pytest

from patchlab import (
    CENTRAL_D2,
    CENTRAL_D4,
    BlackBoxFunction,
    LiftingScheme,
    MacroState,
    PatchConfig,
    PdeSpec,
    ProbeSpec,
    RngStreamSpec,
    ToothConfig,
    UPWIND_D2,
    coordinate_variance,
    derivative_blackbox,
    extrapolate,
    gap_tooth_step,
    generator,
    lift_coefficients,
)

# ------------------------------------------------------------- references


def ref_propagator_matrix(pde, degree, dt):
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
    return M


def ref_average_weights(degree, h):
    w = np.zeros(degree + 1)
    for k in range(0, degree + 1, 2):
        w[k] = h**k / (math.factorial(k) * (k + 1) * 2**k)
    return w


def ref_lift_coefficients(U, scheme, h):
    u = U.values
    dx = U.dx
    up1 = np.roll(u, -1)
    um1 = np.roll(u, 1)
    if scheme.variant == "central_d4":
        up2 = np.roll(u, -2)
        um2 = np.roll(u, 2)
        d1 = (-up2 + 8.0 * up1 - 8.0 * um1 + um2) / (12.0 * dx)
        d2 = (-up2 + 16.0 * up1 - 30.0 * u + 16.0 * um1 - um2) / (12.0 * dx**2)
        d3 = (up2 - 2.0 * up1 + 2.0 * um1 - um2) / (2.0 * dx**3)
        d4 = (up2 - 4.0 * up1 + 6.0 * u - 4.0 * um1 + um2) / dx**4
        d0 = u - h**2 * d2 / 24.0 - h**4 * d4 / 1920.0
        return np.stack([d0, d1, d2, d3, d4], axis=1)
    d2 = (up1 - 2.0 * u + um1) / dx**2
    if scheme.variant == "central_d2":
        d1 = (up1 - um1) / (2.0 * dx)
    else:
        d1 = (u - um1) / dx if scheme.wind_sign > 0 else (up1 - u) / dx
    d0 = u - h**2 * d2 / 24.0
    return np.stack([d0, d1, d2], axis=1)


def ref_restricted_means(coeffs, pde, dt, h):
    degree = coeffs.shape[1] - 1
    M = ref_propagator_matrix(pde, degree, dt)
    w = ref_average_weights(degree, h)
    return (coeffs @ M.T) @ w


def ref_gap_tooth_step(U, pde, cfg):
    h = cfg.tooth.h
    coeffs = ref_lift_coefficients(U, cfg.lifting, h)
    means_dt = ref_restricted_means(coeffs, pde, cfg.dt_micro, h)
    means_alpha = None
    if cfg.alpha > 0.0:
        means_alpha = ref_restricted_means(coeffs, pde, cfg.alpha * cfg.dt_micro, h)
    new_values = extrapolate(U.values, means_dt, cfg.dt_micro, cfg.dt_macro, cfg.alpha, means_alpha)
    return MacroState(values=new_values, dx=U.dx, time=U.time + cfg.dt_macro)


def ref_coordinate_variance(box, index, probe):
    position = int(index) - box.first_index
    rng = generator(RngStreamSpec(master_seed=probe.seed, stream_id=position, step_id=0))
    hw = probe.halfwidth
    base = rng.uniform(-hw, hw, size=(probe.n_base, box.arity))
    sweeps = rng.uniform(-hw, hw, size=(probe.n_base, probe.n_perturb))
    total = 0.0
    values = np.empty(probe.n_perturb)
    for b in range(probe.n_base):
        point = base[b].copy()
        for s in range(probe.n_perturb):
            point[position] = sweeps[b, s]
            values[s] = box(point)
        total += float(values.var(ddof=1))
    return total / probe.n_base


def ref_response(pde, d_max, dt, h):
    M = ref_propagator_matrix(pde, d_max, dt)
    w = ref_average_weights(d_max, h)
    return (w @ M - w) / dt


def same_bits(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# ------------------------------------------------------------------ lift

SCHEMES = [
    LiftingScheme(variant, wind_sign)
    for variant in ("central_d2", "upwind_d2", "central_d4")
    for wind_sign in (1, -1)
]


@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: f"{s.variant}{s.wind_sign:+d}")
def test_lift_coefficients_match_reference(scheme):
    rng = np.random.default_rng(11)
    for n in range(scheme.stencil_points, 129):
        dx = 2.0 * math.pi / n
        h = 0.3 * dx
        values = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
        with_nan = values.copy()
        with_nan[rng.integers(n)] = math.nan
        for u in (values, with_nan):
            U = MacroState(u, dx)
            got = lift_coefficients(U, scheme, h)
            assert got.flags.c_contiguous
            assert same_bits(got, ref_lift_coefficients(U, scheme, h)), (n, u)


# ----------------------------------------------------------- exact step

STEP_CASES = [
    (PdeSpec.heat(), CENTRAL_D2, 64),
    (PdeSpec.advection(), CENTRAL_D2, 64),
    (PdeSpec.advection(), UPWIND_D2, 48),
    (PdeSpec.advection(-1.0), LiftingScheme("upwind_d2", -1), 48),
    (PdeSpec.biharmonic(), CENTRAL_D2, 32),
    (PdeSpec.biharmonic(), CENTRAL_D4, 32),
]


@pytest.mark.parametrize("alpha", [0.0, 0.5])
@pytest.mark.parametrize("pde, scheme, n", STEP_CASES)
def test_exact_gap_tooth_step_matches_reference(pde, scheme, n, alpha):
    dx = 2.0 * math.pi / n
    dt_macro = 0.2 * dx**pde.max_order
    cfg = PatchConfig(lifting=scheme, tooth=ToothConfig(h=0.2 * dx),
                      dt_micro=1e-3 * dt_macro, dt_macro=dt_macro, alpha=alpha)
    u = np.random.default_rng(n).standard_normal(n)
    got = ref = MacroState(u - u.mean(), dx)
    for _ in range(25):
        got = gap_tooth_step(got, pde, cfg)
        ref = ref_gap_tooth_step(ref, pde, cfg)
        assert same_bits(got.values, ref.values)
        assert got.time == ref.time


# ---------------------------------------------------------------- probe


@pytest.mark.parametrize("pde, d_max", [
    (PdeSpec.heat(), 2), (PdeSpec.advection(), 2), (PdeSpec.biharmonic(), 4),
])
def test_coordinate_variance_on_a_derivative_box_matches_reference(pde, d_max):
    probe = ProbeSpec(n_base=4, n_perturb=256, seed=3)
    for index in range(d_max + 1):
        box = derivative_blackbox(pde, d_max, 1e-3, 0.1)
        response = ref_response(pde, d_max, 1e-3, 0.1)
        ref_box = BlackBoxFunction(evaluator=lambda x: float(response @ x),
                                   arity=d_max + 1, first_index=0)
        got = coordinate_variance(box, index, probe)
        assert same_bits(got, ref_coordinate_variance(ref_box, index, probe))
        assert box.calls_used == ref_box.calls_used == 4 * 256


def test_coordinate_variance_on_the_adversarial_box_matches_reference():
    probe = ProbeSpec(n_base=4, n_perturb=256, seed=5)
    for index in (1, 2, 50, 100):
        box = BlackBoxFunction(evaluator=lambda pt: pt[0] + pt[99], arity=100)
        ref_box = BlackBoxFunction(evaluator=lambda pt: pt[0] + pt[99], arity=100)
        got = coordinate_variance(box, index, probe)
        assert same_bits(got, ref_coordinate_variance(ref_box, index, probe))
        assert box.calls_used == ref_box.calls_used == 4 * 256


@pytest.mark.parametrize("d_max", range(11))
def test_derivative_blackbox_evaluates_response_at_coeffs(d_max):
    rng = np.random.default_rng(d_max)
    for pde in (PdeSpec.heat(), PdeSpec.advection(), PdeSpec.biharmonic()):
        response = ref_response(pde, d_max, 1e-3, 0.1)
        box = derivative_blackbox(pde, d_max, 1e-3, 0.1)
        for trial in range(200):
            x = rng.uniform(-1.0, 1.0, d_max + 1) * 10.0 ** rng.uniform(-3, 3)
            if trial % 4 == 0:  # signed zeros, where a sum's start value shows
                x[rng.random(d_max + 1) < 0.5] = (0.0, -0.0)[trial % 8 // 4]
            assert same_bits(box(x), float(response @ x))
