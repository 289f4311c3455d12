"""Bit pins: both gap-tooth routes, the order probe and the coarse projective
trajectory against reference copies.

The references below are the straightforward implementations the package
started from: operators rebuilt on every call, periodic neighbours taken
with ``np.roll``, the FD route sampling and stepping each patch and
weighting the samples by its quadrature rule, the probe indexing its sweep
array and evaluating ``response @ coeffs``, the growth-factor probe taking
its norm with ``np.mean``, the coarse step drawing its whole block from
``generator`` and writing the Euler-Maruyama update out.  The package
caches its operators and moves data differently, and these tests pin that
it still computes the same bits.
"""

import math

import numpy as np
import pytest

from patchlab import micro
from patchlab import (
    CENTRAL_D2,
    CENTRAL_D4,
    BlackBoxFunction,
    CoarseStepConfig,
    LiftingScheme,
    MacroState,
    MicroGrid,
    PatchConfig,
    PdeSpec,
    ProbeSpec,
    RngStreamSpec,
    SdeModel,
    ToothConfig,
    UPWIND_D2,
    coordinate_variance,
    derivative_blackbox,
    evolve_fd_buffered,
    gap_tooth_step,
    generator,
    growth_factor_probe,
    influence_radius,
    lift_coefficients,
    parse_config,
    run_coarse_trajectory,
    seeded_noise_state,
    stable_dt_bound,
)
from patchlab.runner import _patch_setup

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
    base = U.values
    if cfg.alpha > 0.0:
        base = ref_restricted_means(coeffs, pde, cfg.alpha * cfg.dt_micro, h)
    new_values = U.values + cfg.dt_macro * (means_dt - base) / ((1.0 - cfg.alpha) * cfg.dt_micro)
    return MacroState(values=new_values, dx=U.dx, time=U.time + cfg.dt_macro)


def ref_stencil_rhs(u, pde, dx):
    du = np.zeros_like(u)
    for order, a in pde.terms:
        if order == 1:
            slope = (u[:, 1:] - u[:, :-1]) / dx
            if a > 0:
                du[:, :-1] += a * slope
            else:
                du[:, 1:] += a * slope
        elif order == 2:
            du[:, 1:-1] += a * ((u[:, 2:] - 2.0 * u[:, 1:-1] + u[:, :-2]) / dx**2)
        else:
            d4 = u[:, 4:] - 4.0 * u[:, 3:-1] + 6.0 * u[:, 2:-2] - 4.0 * u[:, 1:-3] + u[:, :-4]
            du[:, 2:-2] += a * (d4 / dx**4)
    return du


def ref_tooth_weights(n, dx, h):
    s = dx * (np.arange(n) - (n - 1) / 2.0)
    lo, hi = -h / 2.0, h / 2.0
    inside = (s > lo) & (s < hi)
    nodes = np.concatenate(([lo], s[inside], [hi]))

    def interpolation_row(x):
        x = min(max(x, s[0]), s[-1])
        return np.maximum(0.0, 1.0 - np.abs(x - s) / dx)

    node_rows = np.vstack((interpolation_row(lo), np.eye(n)[inside], interpolation_row(hi)))
    return np.trapezoid(node_rows, nodes, axis=0) / h


def ref_fd_restricted_means(coeffs, pde, dt, tooth, grid):
    # sample every row on its buffered patch, step with frozen ends, average
    n_half = max(2, int(math.ceil(tooth.H / (2.0 * grid.dx) - 1e-12)))
    n = 2 * n_half + 1
    offsets = grid.dx * (np.arange(n) - (n - 1) / 2.0)
    basis = np.empty((coeffs.shape[1], n))
    basis[0] = 1.0
    for k in range(1, coeffs.shape[1]):
        basis[k] = basis[k - 1] * offsets / k
    u = coeffs @ basis
    if dt > 0:
        n_steps = max(1, int(math.ceil(dt / grid.dt - 1e-12)))
        frozen = 2 if pde.max_order >= 3 else 1
        for _ in range(n_steps):
            rhs = ref_stencil_rhs(u, pde, grid.dx)
            u[:, frozen:-frozen] += (dt / n_steps) * rhs[:, frozen:-frozen]
    return u @ ref_tooth_weights(n, grid.dx, tooth.h)


def ref_fd_gap_tooth_step(U, pde, cfg):
    coeffs = ref_lift_coefficients(U, cfg.lifting, cfg.tooth.h)
    # the chord starts from the 0-step averages at alpha = 0, not from U
    means_dt, base = (
        ref_fd_restricted_means(coeffs, pde, dt, cfg.tooth, cfg.micro)
        for dt in (cfg.dt_micro, cfg.alpha * cfg.dt_micro)
    )
    new_values = U.values + cfg.dt_macro * (means_dt - base) / ((1.0 - cfg.alpha) * cfg.dt_micro)
    return MacroState(values=new_values, dx=U.dx, time=U.time + cfg.dt_macro)


def ref_evolve_fd_buffered(coeffs, pde, dt, tooth, grid):
    # the sampling and stepping of ref_fd_restricted_means, one row or a stack
    width = np.shape(coeffs)[-1]
    n_half = max(2, int(math.ceil(tooth.H / (2.0 * grid.dx) - 1e-12)))
    n = 2 * n_half + 1
    offsets = grid.dx * (np.arange(n) - (n - 1) / 2.0)
    basis = np.empty((width, n))
    basis[0] = 1.0
    for k in range(1, width):
        basis[k] = basis[k - 1] * offsets / k
    u = coeffs @ basis
    if dt > 0:
        u = np.atleast_2d(u)
        n_steps = max(1, int(math.ceil(dt / grid.dt - 1e-12)))
        frozen = 2 if pde.max_order >= 3 else 1
        for _ in range(n_steps):
            rhs = ref_stencil_rhs(u, pde, grid.dx)
            u[:, frozen:-frozen] += (dt / n_steps) * rhs[:, frozen:-frozen]
        u = u.reshape(np.shape(coeffs)[:-1] + (n,))
    return u


def ref_stable_dt_bound(pde, dx):
    bounds = []
    for order, a in pde.terms:
        if order == 1:
            bounds.append(0.8 * dx / abs(a))
        elif order == 2:
            bounds.append(0.4 * dx**2 / abs(a))
        else:
            bounds.append(0.3 * dx**4 / (8.0 * abs(a)))
    return min(bounds) if bounds else math.inf


def ref_influence_radius(pde, dt):
    radius = 0.0
    for order, a in pde.terms:
        if order == 1:
            radius = max(radius, abs(a) * dt)
        elif order == 2:
            radius = max(radius, 6.0 * math.sqrt(abs(a) * dt))
        else:
            radius = max(radius, 6.0 * (abs(a) * dt) ** 0.25)
    return radius


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


def ref_growth_factor_probe(stepper, initial, n_steps):
    u = initial
    norm = float(np.sqrt(np.mean(u.values**2)))
    log_ratios = []
    terminated = False
    for _ in range(n_steps):
        u = stepper(u)
        new_norm = float(np.sqrt(np.mean(u.values**2)))
        if not math.isfinite(new_norm) or new_norm > 1e100 or new_norm == 0.0:
            terminated = True
            break
        log_ratios.append(math.log(new_norm / norm))
        norm = new_norm
    start = int(len(log_ratios) * 0.25) if not terminated else 0
    tail = log_ratios[start:] or log_ratios
    return math.exp(sum(tail) / len(tail)), len(log_ratios), terminated


def ref_response(pde, d_max, dt, h):
    M = ref_propagator_matrix(pde, d_max, dt)
    w = ref_average_weights(d_max, h)
    return (w @ M - w) / dt


def ref_coarse_trajectory(x0, drift, amp, cfg, n_steps, rng):
    n, k, dt, alpha = cfg.ensemble_size, cfg.micro_steps, cfg.dt_micro, cfg.alpha
    x = float(x0)
    values = [x]
    for step in range(n_steps):
        xi = generator(rng.at(step_id=rng.step_id + step)).standard_normal((n, k))
        members = np.full(n, x)
        means = [x]  # the lift's mean is x itself
        for i in range(k):
            members = members + dt * drift(members) + amp * math.sqrt(dt) * xi[:, i]
            means.append(members.mean())
        mean_alpha = means[round(alpha * k)]
        x = x + cfg.dt_macro * (means[k] - mean_alpha) / ((1.0 - alpha) * (k * dt))
        values.append(x)
    return np.array(values)


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


# -------------------------------------------------------------- FD step

FD_CASES = [
    pytest.param(PdeSpec.heat(), CENTRAL_D2, 0.4, id="heat-central_d2"),
    pytest.param(PdeSpec.heat(), CENTRAL_D4, 0.4, id="heat-central_d4"),
    pytest.param(PdeSpec.advection(), UPWIND_D2, 0.5, id="advection-upwind_d2"),
]


@pytest.mark.parametrize("alpha", [0.0, 0.5])
@pytest.mark.parametrize("pde, scheme, dt_ratio", FD_CASES)
def test_fd_gap_tooth_step_matches_reference(pde, scheme, dt_ratio, alpha):
    n = 32
    dx = 2.0 * math.pi / n
    dt_macro = dt_ratio * dx**pde.max_order
    dt_micro = 1e-3 * dt_macro
    h = 0.2 * dx
    micro_dx = h / 16.0
    cfg = PatchConfig(
        lifting=scheme,
        tooth=ToothConfig(h=h, H=h + 2.5 * influence_radius(pde, dt_micro)),
        dt_micro=dt_micro,
        dt_macro=dt_macro,
        alpha=alpha,
        evolution="fd",
        micro=MicroGrid(dx=micro_dx, dt=0.5 * stable_dt_bound(pde, micro_dx)),
    )
    u = np.random.default_rng(n).standard_normal(n)
    got = ref = MacroState(u - u.mean(), dx)
    for _ in range(4):
        ref_next = ref_fd_gap_tooth_step(ref, pde, cfg)
        # each step from a cold cache of the grid's arrays, then from a warm one
        micro._sampling_basis.cache_clear()
        micro._tooth_weights.cache_clear()
        cold = gap_tooth_step(got, pde, cfg)
        warm = gap_tooth_step(got, pde, cfg)
        for step in (cold, warm):
            assert same_bits(step.values, ref_next.values)
            assert step.time == ref_next.time
        got, ref = warm, ref_next


FD_PDES = [
    pytest.param(PdeSpec.heat(), id="heat"),
    pytest.param(PdeSpec.advection(), id="advection-right"),
    pytest.param(PdeSpec.advection(-1.0), id="advection-left"),
    pytest.param(PdeSpec.biharmonic(), id="biharmonic"),
    pytest.param(PdeSpec({1: 0.3, 2: 1.0}), id="d1-d2"),
    pytest.param(PdeSpec({2: 0.5, 4: -0.1}), id="d2-d4"),
    pytest.param(PdeSpec({1: -0.2, 2: 0.7, 4: -0.05}), id="d1-d2-d4"),
]


@pytest.mark.parametrize("pde", FD_PDES)
def test_evolve_fd_buffered_matches_reference(pde):
    rng = np.random.default_rng(pde.max_order + len(pde.terms))
    h = 0.05
    micro_dx = h / 8.0
    grid = MicroGrid(dx=micro_dx, dt=0.5 * stable_dt_bound(pde, micro_dx))
    for dt in (0.0, grid.dt, 9.5 * grid.dt):
        tooth = ToothConfig(h=h, H=h + 2.5 * influence_radius(pde, 9.5 * grid.dt))
        for degree in range(1, 6):
            stack = rng.standard_normal((37, degree + 1)) * 10.0 ** rng.uniform(-3, 3, (37, 1))
            stack[5] = -0.0
            for coeffs in (stack, stack[:1], stack[0], stack[5]):
                got = evolve_fd_buffered(coeffs.copy(), pde, dt, tooth, grid)
                assert got.flags.c_contiguous
                ref = ref_evolve_fd_buffered(coeffs.copy(), pde, dt, tooth, grid)
                assert same_bits(got, ref), (dt, degree, coeffs.shape)


def test_fd_step_bound_and_influence_radius_match_reference():
    rng = np.random.default_rng(5)
    for _ in range(5000):
        orders = [order for order in (1, 2, 4) if rng.random() < 0.6]
        signs = rng.choice([-1.0, 1.0], len(orders))
        pde = PdeSpec({o: s * 10.0 ** rng.uniform(-4, 4) for o, s in zip(orders, signs)})
        dx = 10.0 ** rng.uniform(-5, 1)
        dt = 0.0 if rng.random() < 0.05 else 10.0 ** rng.uniform(-10, 1)
        assert same_bits(stable_dt_bound(pde, dx), ref_stable_dt_bound(pde, dx)), (pde, dx)
        assert same_bits(influence_radius(pde, dt), ref_influence_radius(pde, dt)), (pde, dt)


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


# ------------------------------------------------------- growth factor

# the stability probes of the benchmark's diagnostics patch runs
PROBE_CASES = {
    "heat-central_d2": "pde = heat\nlifting = central_d2\n",
    "advection-central_d2": "pde = advection\nlifting = central_d2\nprobe_steps = 300\n",
    "advection-upwind_d2": "pde = advection\nlifting = upwind_d2\n",
    "biharmonic-central_d2": "pde = biharmonic\nlifting = central_d2\nn_points = 32\n",
    "biharmonic-central_d4": "pde = biharmonic\nlifting = central_d4\nn_points = 32\n",
}


@pytest.mark.parametrize("parameters", PROBE_CASES.values(), ids=PROBE_CASES.keys())
def test_growth_factor_probe_matches_reference(parameters):
    p = parse_config(f"[experiment]\nname = patch\n[parameters]\n{parameters}").parameters
    pde, cfg, dx = _patch_setup(p, p["n_points"])
    u0 = seeded_noise_state(p["n_points"], dx, RngStreamSpec(master_seed=5))

    def step(u):
        return gap_tooth_step(u, pde, cfg)

    got = growth_factor_probe(step, u0, p["probe_steps"])
    factor, steps_used, terminated = ref_growth_factor_probe(step, u0, p["probe_steps"])
    assert same_bits(got.growth_factor, factor)
    assert got.steps_used == steps_used
    assert got.terminated_early == terminated


# ------------------------------------------------------ coarse projective

# model -> (SdeModel, its drift written out, its noise amplitude)
SDE_CASES = {
    "pure_noise": (SdeModel.pure_noise(0.7), np.zeros_like, 0.7),
    "ornstein_uhlenbeck": (SdeModel.ornstein_uhlenbeck(1.3, 0.7), lambda x: -1.3 * x, 0.7),
}


@pytest.mark.parametrize("alpha", [0.0, 0.5])
@pytest.mark.parametrize("ensemble_size", [1, 10, 1000])
@pytest.mark.parametrize("model", SDE_CASES)
def test_coarse_trajectory_matches_reference(model, ensemble_size, alpha):
    sde, drift, amp = SDE_CASES[model]
    cfg = CoarseStepConfig(ensemble_size=ensemble_size, micro_steps=10, dt_micro=1e-3,
                           dt_macro=0.1, alpha=alpha)
    rng = RngStreamSpec(master_seed=17, stream_id=2, step_id=5)
    got = run_coarse_trajectory(0.4, sde, cfg, 50, rng)
    assert got.diverged_at is None
    assert same_bits(got.values, ref_coarse_trajectory(0.4, drift, amp, cfg, 50, rng))
