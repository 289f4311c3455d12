"""Gap-tooth scheme: lifting stencils, round trips, and the three regimes.

The heat / advection / biharmonic trio is the core behavioral contract:
the lifting stencil, not the micro solver, decides which macro scheme the
gap-tooth step reproduces.
"""

import math

import numpy as np
import pytest

from patchlab import (
    CENTRAL_D2,
    CENTRAL_D4,
    UPWIND_D2,
    LiftingScheme,
    MacroState,
    MicroGrid,
    PatchConfig,
    PdeSpec,
    RngStreamSpec,
    ToothConfig,
    classify_growth,
    convergence_order,
    gap_tooth_step,
    growth_factor_probe,
    influence_radius,
    lift,
    lift_coefficients,
    propagator_matrix,
    restrict,
    seeded_noise_state,
    stable_dt_bound,
    step_symbol,
    symbol_stepper,
)
from patchlab.config import parse_config
from patchlab.runner import PATCH_PDES, _exact_solution, _patch_setup


def make_config(lifting, dx, dt_ratio, order, dt_micro_factor=1e-3, h_frac=0.2):
    dt_macro = dt_ratio * dx**order
    return PatchConfig(
        lifting=lifting,
        tooth=ToothConfig(h=h_frac * dx),
        dt_micro=dt_micro_factor * dt_macro,
        dt_macro=dt_macro,
    )


def test_lifting_scheme_validation():
    assert CENTRAL_D2.stencil_points == 3
    assert CENTRAL_D4.stencil_points == 5
    with pytest.raises(ValueError):
        LiftingScheme("cubic")
    with pytest.raises(ValueError):
        LiftingScheme("upwind_d2", wind_sign=0)


def test_lift_central_d2_oracle():
    u = MacroState(values=[0.0, 1.0, 4.0], dx=1.0)
    row = lift(u, 1, CENTRAL_D2, h=0.5)
    d2 = 0.0 - 2.0 + 4.0          # 2.0
    d1 = (4.0 - 0.0) / 2.0        # 2.0
    d0 = 1.0 - 0.5**2 * d2 / 24.0
    np.testing.assert_allclose(row, [d0, d1, d2], rtol=1e-15)
    assert row.tobytes() == lift_coefficients(u, CENTRAL_D2, h=0.5)[1].tobytes()


def test_lift_upwind_slope_sides():
    u = MacroState(values=[0.0, 1.0, 4.0], dx=1.0)
    with_wind = lift(u, 1, UPWIND_D2, h=0.5)
    against = lift(u, 1, LiftingScheme("upwind_d2", wind_sign=-1), h=0.5)
    assert with_wind[1] == 1.0   # (U_j - U_{j-1})/dx
    assert against[1] == 3.0     # (U_{j+1} - U_j)/dx


def test_lift_central_d4_exact_on_quartic():
    # five-point stencils recover all derivatives of a quartic exactly
    def f(x):
        return x**4 + 2.0 * x**3 - x**2 + 0.5 * x + 3.0

    dx, n, j = 0.25, 16, 8
    xs = dx * np.arange(n)
    u = MacroState(values=f(xs), dx=dx)
    h = 0.1
    row = lift(u, j, CENTRAL_D4, h=h)
    x0 = xs[j]
    d1 = 4 * x0**3 + 6 * x0**2 - 2 * x0 + 0.5
    d2 = 12 * x0**2 + 12 * x0 - 2
    d3 = 24 * x0 + 12
    d4 = 24.0
    d0 = f(x0) - h**2 * d2 / 24.0 - h**4 * d4 / 1920.0
    np.testing.assert_allclose(row, [d0, d1, d2, d3, d4], rtol=1e-9)


def test_lift_validation():
    u = MacroState(values=[0.0, 1.0, 4.0], dx=1.0)
    with pytest.raises(ValueError):
        lift(u, 3, CENTRAL_D2, h=0.5)
    with pytest.raises(ValueError):
        lift(u, 0, CENTRAL_D2, h=1.5)  # teeth would overlap
    with pytest.raises(ValueError):
        lift(u, 0, CENTRAL_D4, h=0.5)  # needs 5 points
    with pytest.raises(ValueError):
        lift_coefficients(u, CENTRAL_D2, h=0.0)


@pytest.mark.parametrize("scheme", [CENTRAL_D2, UPWIND_D2, CENTRAL_D4])
def test_round_trip_restores_node_values(scheme):
    rng = RngStreamSpec(2024, 5, 0)
    u = seeded_noise_state(17, dx=0.37, rng=rng)
    h = 0.2 * u.dx
    for j in range(u.n_points):
        mean = restrict(lift(u, j, scheme, h), h)
        assert type(mean) is float
        assert mean == pytest.approx(u.values[j], abs=1e-13)
    # a stack of rows restricts to one mean per row
    means = restrict(lift_coefficients(u, scheme, h), h)
    assert means.shape == (u.n_points,)
    np.testing.assert_allclose(means, u.values, rtol=0.0, atol=1e-13)


def test_patch_config_validation():
    tooth = ToothConfig(h=0.1)
    with pytest.raises(ValueError):
        PatchConfig(lifting=CENTRAL_D2, tooth=tooth, dt_micro=0.2, dt_macro=0.1)
    with pytest.raises(ValueError):
        PatchConfig(lifting=CENTRAL_D2, tooth=tooth, dt_micro=0.01, dt_macro=0.1, evolution="fd")
    with pytest.raises(ValueError):
        PatchConfig(lifting=CENTRAL_D2, tooth=tooth, dt_micro=0.01, dt_macro=0.1, evolution="rk4")
    # without a buffer the FD route cannot run: a config error, not a tooth failure
    with pytest.raises(ValueError, match="finite patch width"):
        PatchConfig(lifting=CENTRAL_D2, tooth=tooth, dt_micro=0.01, dt_macro=0.1,
                    evolution="fd", micro=MicroGrid(dx=0.01, dt=1e-5))


def heat_reference_step(values, lam):
    return values + lam * (np.roll(values, -1) - 2.0 * values + np.roll(values, 1))


def test_gap_tooth_heat_equals_classical_scheme():
    n = 16
    dx = 2.0 * math.pi / n
    cfg = make_config(CENTRAL_D2, dx, dt_ratio=0.4, order=2)
    pde = PdeSpec.heat(1.0)
    lam = cfg.dt_macro / dx**2
    rng = np.random.default_rng(8)
    u = MacroState(values=rng.normal(size=n), dx=dx)
    stepped = gap_tooth_step(u, pde, cfg)
    np.testing.assert_allclose(stepped.values, heat_reference_step(u.values, lam), atol=1e-12)
    assert stepped.time == pytest.approx(cfg.dt_macro)


def test_gap_tooth_advection_central_is_unstable():
    n = 32
    dx = 2.0 * math.pi / n
    cfg = make_config(CENTRAL_D2, dx, dt_ratio=0.5, order=1)
    pde = PdeSpec.advection(1.0)
    u0 = seeded_noise_state(n, dx, RngStreamSpec(1))
    report = growth_factor_probe(lambda u: gap_tooth_step(u, pde, cfg), u0, 300)
    assert report.classification == "unstable"
    # von Neumann factor for FTCS at lambda = 0.5 is sqrt(1.25)
    assert 1.05 < report.growth_factor < math.sqrt(1.25) + 1e-3


def test_gap_tooth_advection_upwind_is_stable():
    n = 32
    dx = 2.0 * math.pi / n
    cfg = make_config(UPWIND_D2, dx, dt_ratio=0.5, order=1)
    pde = PdeSpec.advection(1.0)
    u0 = seeded_noise_state(n, dx, RngStreamSpec(1))
    report = growth_factor_probe(lambda u: gap_tooth_step(u, pde, cfg), u0, 300)
    assert report.classification == "stable"
    assert report.growth_factor <= 1.0 + 1e-8


def test_gap_tooth_biharmonic_d2_is_identity():
    # quadratic lifting cannot see a fourth derivative: du/dt comes out 0
    n = 24
    dx = 2.0 * math.pi / n
    cfg = make_config(CENTRAL_D2, dx, dt_ratio=0.0375, order=4)
    u0 = seeded_noise_state(n, dx, RngStreamSpec(9))
    stepped = gap_tooth_step(u0, PdeSpec.biharmonic(1.0), cfg)
    np.testing.assert_allclose(stepped.values, u0.values, atol=1e-12)


def test_gap_tooth_biharmonic_d4_sees_the_operator():
    n = 24
    dx = 2.0 * math.pi / n
    cfg = make_config(CENTRAL_D4, dx, dt_ratio=0.0375, order=4)
    u0 = seeded_noise_state(n, dx, RngStreamSpec(9))
    stepped = gap_tooth_step(u0, PdeSpec.biharmonic(1.0), cfg)
    v = u0.values
    d4 = (np.roll(v, -2) - 4 * np.roll(v, -1) + 6 * v - 4 * np.roll(v, 1) + np.roll(v, 2)) / dx**4
    np.testing.assert_allclose(stepped.values, v - cfg.dt_macro * d4, atol=1e-12)


@pytest.mark.parametrize(
    "pde, lifting, dt_ratio, alpha, micro_per_tooth",
    [
        pytest.param(PdeSpec.heat(1.0), CENTRAL_D2, 0.4, 0.0, 16, id="heat"),
        # PdeSpec.advection(c) is u_t = -c u_x: forward differences when -c > 0
        pytest.param(PdeSpec.advection(-1.0), LiftingScheme("upwind_d2", wind_sign=-1),
                     0.5, 0.0, 16, id="advection-forward-differences"),
        pytest.param(PdeSpec.advection(1.0), UPWIND_D2, 0.5, 0.0, 16,
                     id="advection-backward-differences"),
        pytest.param(PdeSpec.biharmonic(1.0), CENTRAL_D4, 0.0375, 0.0, 8, id="biharmonic-d4"),
        pytest.param(PdeSpec.heat(1.0), CENTRAL_D2, 0.4, 0.5, 16, id="heat-alpha"),
    ],
)
def test_fd_route_agrees_with_exact_route(pde, lifting, dt_ratio, alpha, micro_per_tooth):
    n = 16
    dx = 2.0 * math.pi / n
    dt_macro = dt_ratio * dx**pde.max_order
    dt_micro = 1e-3 * dt_macro
    h = 0.2 * dx
    micro_dx = h / micro_per_tooth
    exact_cfg = PatchConfig(lifting=lifting, tooth=ToothConfig(h=h),
                            dt_micro=dt_micro, dt_macro=dt_macro, alpha=alpha)
    fd_cfg = PatchConfig(
        lifting=lifting,
        tooth=ToothConfig(h=h, H=h + 2.5 * influence_radius(pde, dt_micro)),
        dt_micro=dt_micro,
        dt_macro=dt_macro,
        alpha=alpha,
        evolution="fd",
        micro=MicroGrid(dx=micro_dx, dt=0.5 * stable_dt_bound(pde, micro_dx)),
    )
    u0 = MacroState(values=np.sin(dx * np.arange(n)), dx=dx)
    du_exact = (gap_tooth_step(u0, pde, exact_cfg).values - u0.values) / dt_macro
    du_fd = (gap_tooth_step(u0, pde, fd_cfg).values - u0.values) / dt_macro
    scale = np.max(np.abs(du_exact))
    assert np.max(np.abs(du_fd - du_exact)) <= 5e-3 * scale


@pytest.mark.parametrize("evolution", ["exact", "fd"])
def test_step_returns_a_fresh_read_only_state(evolution):
    n = 16
    dx = 2.0 * math.pi / n
    pde = PdeSpec.heat(1.0)
    dt_macro = 0.4 * dx**2
    dt_micro = 1e-3 * dt_macro
    h = 0.2 * dx
    fd = dict(evolution="fd", micro=MicroGrid(dx=h / 16, dt=0.5 * stable_dt_bound(pde, h / 16)))
    cfg = PatchConfig(
        lifting=CENTRAL_D2,
        tooth=ToothConfig(h=h, H=h + 2.5 * influence_radius(pde, dt_micro)),
        dt_micro=dt_micro,
        dt_macro=dt_macro,
        **(fd if evolution == "fd" else {}),
    )
    u0 = MacroState(values=np.sin(dx * np.arange(n)), dx=dx, time=0.25)
    u1 = gap_tooth_step(u0, pde, cfg)
    assert u1.values.dtype == np.float64 and u1.values.shape == (n,)
    assert not u1.values.flags.writeable
    assert not np.shares_memory(u1.values, u0.values)
    with pytest.raises(ValueError):
        u1.values[0] = 1.0
    assert u1.dx == dx and u1.time == 0.25 + dt_macro


def test_fd_route_wraps_tooth_failures():
    n = 16
    dx = 2.0 * math.pi / n
    pde = PdeSpec.heat(1.0)
    dt_macro = 0.4 * dx**2
    cfg = PatchConfig(
        lifting=CENTRAL_D2,
        tooth=ToothConfig(h=0.2 * dx, H=0.21 * dx),  # buffer far too thin
        dt_micro=1e-3 * dt_macro,
        dt_macro=dt_macro,
        evolution="fd",
        micro=MicroGrid(dx=0.01 * dx, dt=1e-9),
    )
    u0 = seeded_noise_state(n, dx, RngStreamSpec(2))
    # the buffer check holds for every tooth alike, so its message names none
    with pytest.raises(ValueError, match="^influence radius .* exceeds buffer .*; need H >= ") as err:
        gap_tooth_step(u0, pde, cfg)
    assert "tooth " not in str(err.value)

    # a NaN at node 5 spoils the central lifts of teeth 4, 5 and 6
    roomy = PatchConfig(
        lifting=CENTRAL_D2,
        tooth=ToothConfig(h=0.2 * dx, H=0.6 * dx),
        dt_micro=1e-3 * dt_macro,
        dt_macro=dt_macro,
        evolution="fd",
        micro=MicroGrid(dx=0.01 * dx, dt=1e-9),
    )
    values = u0.values.copy()
    values[5] = np.nan
    with pytest.raises(ValueError) as err:
        gap_tooth_step(MacroState(values=values, dx=dx), pde, roomy)
    assert str(err.value) == "tooth 4: lifted coefficients must be finite"


def test_alpha_window_matches_manual_chord():
    n = 16
    dx = 2.0 * math.pi / n
    pde = PdeSpec.heat(1.0)
    dt_macro = 0.4 * dx**2
    dt_micro = 1e-3 * dt_macro
    h = 0.2 * dx
    cfg = PatchConfig(lifting=CENTRAL_D2, tooth=ToothConfig(h=h),
                      dt_micro=dt_micro, dt_macro=dt_macro, alpha=0.5)
    u0 = seeded_noise_state(n, dx, RngStreamSpec(4))
    stepped = gap_tooth_step(u0, pde, cfg)

    want = np.empty(n)
    for j in range(n):
        row = lift(u0, j, CENTRAL_D2, h)
        a_half = restrict(propagator_matrix(pde, 2, 0.5 * dt_micro) @ row, h)
        a_full = restrict(propagator_matrix(pde, 2, dt_micro) @ row, h)
        want[j] = u0.values[j] + dt_macro * (a_full - a_half) / (0.5 * dt_micro)
    np.testing.assert_allclose(stepped.values, want, rtol=1e-12, atol=1e-12)


# ------------------------------------------------------------ exact symbol

_PDES = {
    "heat": (PdeSpec.heat(1.0), 0.4),
    "advection": (PdeSpec.advection(1.0), 0.5),
    "biharmonic": (PdeSpec.biharmonic(1.0), 0.0375),
}
_LIFTINGS = {
    "central_d2": CENTRAL_D2,
    "upwind_d2": UPWIND_D2,
    "upwind_d2-against": LiftingScheme("upwind_d2", wind_sign=-1),
    "central_d4": CENTRAL_D4,
}


@pytest.mark.parametrize("alpha", [0.0, 0.5])
@pytest.mark.parametrize("lifting", _LIFTINGS.values(), ids=_LIFTINGS.keys())
@pytest.mark.parametrize("pde_name", _PDES)
def test_step_symbol_is_the_fft_of_the_circulant_step(pde_name, lifting, alpha):
    pde, dt_ratio = _PDES[pde_name]
    n = 16
    dx = 2.0 * math.pi / n
    dt_macro = dt_ratio * dx**pde.max_order
    cfg = PatchConfig(lifting=lifting, tooth=ToothConfig(h=0.2 * dx),
                      dt_micro=1e-3 * dt_macro, dt_macro=dt_macro, alpha=alpha)
    columns = np.column_stack(
        [gap_tooth_step(MacroState(values=e, dx=dx), pde, cfg).values for e in np.eye(n)]
    )
    for j in range(n):
        np.testing.assert_allclose(columns[:, j], np.roll(columns[:, 0], j), rtol=0, atol=1e-12)
    symbol = step_symbol(pde, cfg, n, dx)
    np.testing.assert_array_equal(symbol, np.fft.fft(columns[:, 0]))
    # the chord multiplies the step's rounding by dt_macro / ((1 - alpha) dt_micro) <= 2000
    u = seeded_noise_state(n, dx, RngStreamSpec(3))
    np.testing.assert_allclose(
        np.fft.ifft(symbol * np.fft.fft(u.values)).real,
        gap_tooth_step(u, pde, cfg).values, rtol=0, atol=1e-10,
    )


# the stability probes of the benchmark's diagnostics patch runs, and one
# whose iterated probe overflows and stops early
SYMBOL_CASES = {
    "heat-central_d2": "pde = heat\nlifting = central_d2\ngrids = 32, 64, 128\nfinal_time = 0.5\n",
    "advection-central_d2": "pde = advection\nlifting = central_d2\nprobe_steps = 300\n",
    "advection-central_d2-overflow": "pde = advection\nlifting = central_d2\nprobe_steps = 3000\n",
    "advection-upwind_d2": "pde = advection\nlifting = upwind_d2\ngrids = 32, 64, 128\n",
    "biharmonic-central_d2": "pde = biharmonic\nlifting = central_d2\nn_points = 32\n",
    "biharmonic-central_d4": "pde = biharmonic\nlifting = central_d4\nn_points = 32\n"
                             "grids = 16, 24, 32\n",
}


def _patch_parameters(text):
    return parse_config(f"[experiment]\nname = patch\n[parameters]\n{text}").parameters


@pytest.mark.parametrize("parameters", SYMBOL_CASES.values(), ids=SYMBOL_CASES.keys())
def test_symbol_growth_factor_matches_the_iterated_probe(parameters):
    p = _patch_parameters(parameters)
    pde, cfg, dx = _patch_setup(p, p["n_points"])
    u0 = seeded_noise_state(p["n_points"], dx, RngStreamSpec(master_seed=5))
    iterated = growth_factor_probe(lambda u: gap_tooth_step(u, pde, cfg), u0, p["probe_steps"])
    symbol = step_symbol(pde, cfg, p["n_points"], dx)
    assert classify_growth(np.abs(symbol[1:]).max()) == iterated.classification
    # the step is a normal matrix, ||A^n|| = max|G|^n: no iterated factor exceeds max|G|
    assert iterated.growth_factor <= np.abs(symbol).max() * (1 + 1e-12)
    if "3000" in parameters:
        assert iterated.terminated_early and iterated.steps_used < 3000


@pytest.mark.parametrize(
    "parameters",
    [text for text in SYMBOL_CASES.values() if "grids" in text],
    ids=[name for name, text in SYMBOL_CASES.items() if "grids" in text],
)
def test_symbol_convergence_study_matches_the_iterated_one(parameters):
    p = _patch_parameters(parameters)
    final_time = p["final_time"] or PATCH_PDES[p["pde"]][2]

    def problem(n, exact_steps):
        pde, cfg, dx = _patch_setup(p, n)
        u0 = MacroState(values=np.sin(dx * np.arange(n)), dx=dx)
        if exact_steps:
            return symbol_stepper(step_symbol(pde, cfg, n, dx), cfg.dt_macro, final_time), u0
        return (lambda u: gap_tooth_step(u, pde, cfg)), u0

    exact = _exact_solution(p["pde"], p["coefficient"])
    iterated = convergence_order(lambda n: problem(n, False), p["grids"], final_time, exact)
    symbol = convergence_order(lambda n: problem(n, True), p["grids"], final_time, exact)
    assert symbol.spacings == iterated.spacings
    np.testing.assert_allclose(symbol.errors, iterated.errors, rtol=1e-5, atol=0)
    assert symbol.fitted_order == pytest.approx(iterated.fitted_order, abs=1e-6)
