"""Micro solver tests: SDE stepping, exact propagation of coefficient rows, buffered FD."""

import math

import numpy as np
import pytest

from patchlab import (
    MicroGrid,
    PdeSpec,
    RngStreamSpec,
    SdeModel,
    ToothConfig,
    average_weights,
    em_step,
    evolve_fd_buffered,
    generator,
    influence_radius,
    propagator_matrix,
    stable_dt_bound,
    tooth_average,
)


def manual_eval(coeffs, center, x):
    return sum(c * (x - center) ** k / math.factorial(k) for k, c in enumerate(coeffs))


# ------------------------------------------------------------------ SDE part


def test_sde_model_validation():
    with pytest.raises(ValueError):
        SdeModel(drift=lambda x: x, noise_amplitude=-1.0)
    model = SdeModel.pure_noise(2.0)
    np.testing.assert_array_equal(model.drift(np.array([1.0, -3.0])), [0.0, 0.0])
    ou = SdeModel.ornstein_uhlenbeck(rate=2.0)
    np.testing.assert_allclose(ou.drift(np.array([1.0, -0.5])), [-2.0, 1.0])


def test_em_step_formula():
    model = SdeModel(drift=lambda x: -2.0 * x, noise_amplitude=0.5)
    x = np.array([1.0, -1.0])
    xi = np.array([0.3, -0.7])
    dt = 0.01
    expected = x - 2.0 * x * dt + 0.5 * math.sqrt(dt) * xi
    np.testing.assert_allclose(em_step(x, model, dt, xi), expected, rtol=1e-15)
    with pytest.raises(ValueError):
        em_step(x, model, -0.1, xi)


def _em_reference(x, model, dt, xi):
    x = np.asarray(x, dtype=float)
    drift = np.asarray(model.drift(x), dtype=float)
    return x + dt * drift + model.noise_amplitude * math.sqrt(dt) * np.asarray(xi, dtype=float)


_EM_CASES = {
    "0-d x": (np.float64(0.37), SdeModel.ornstein_uhlenbeck(1.3, 0.7), 0.01, np.float64(-1.1)),
    "float x": (0.37, SdeModel.ornstein_uhlenbeck(1.3, 0.7), 0.01, -1.1),
    "0-d x, array xi": (0.37, SdeModel.pure_noise(0.7), 0.01, np.linspace(-2.0, 2.0, 7)),
    "broadcast xi": (np.linspace(-1.0, 3.0, 6), SdeModel.ornstein_uhlenbeck(0.9), 0.003, 0.25),
    "broadcast rows": (np.linspace(-1.0, 3.0, 6).reshape(3, 2), SdeModel.ornstein_uhlenbeck(),
                       0.003, np.array([0.4, -1.7])),
    "integer x": (np.arange(-3, 4), SdeModel.ornstein_uhlenbeck(0.5, 2.0), 0.02,
                  np.linspace(-1.0, 1.0, 7)),
    "drift returns its argument": (np.linspace(-1.0, 1.0, 5), SdeModel(drift=lambda x: x),
                                   0.1, np.linspace(0.3, -0.9, 5)),
    "constant drift": (np.linspace(-1.0, 1.0, 5), SdeModel(drift=lambda x: 2.5, noise_amplitude=0.3),
                       0.1, np.linspace(0.3, -0.9, 5)),
    "strided xi": (np.linspace(-1.0, 1.0, 4), SdeModel.pure_noise(1.5), 1e-3,
                   np.linspace(-2.0, 2.0, 40).reshape(4, 10)[:, 3]),
}


@pytest.mark.parametrize("case", list(_EM_CASES))
def test_em_step_has_the_bits_of_the_reference_expression(case):
    x, model, dt, xi = _EM_CASES[case]
    x_before, xi_before = np.array(x, copy=True), np.array(xi, copy=True)
    want = _em_reference(x, model, dt, xi)
    got = em_step(x, model, dt, xi)
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    # the inputs are left as they were
    assert np.array_equal(x, x_before) and np.asarray(x).dtype == x_before.dtype
    assert np.array_equal(xi, xi_before)


def test_em_path_ou_stationary_variance():
    # EM chain x' = (1-r dt)x + sqrt(dt) xi has variance 1/(r(2 - r dt));
    # 100 independent chains advance together, step i taking row i of the draws
    dt, rate = 0.05, 1.0
    n_chains, n_steps, burn_in = 100, 2200, 200
    model = SdeModel.ornstein_uhlenbeck(rate)
    draws = generator(RngStreamSpec(5)).standard_normal(n_chains * n_steps)
    draws = draws.reshape(n_steps, n_chains)
    x = np.zeros(n_chains)
    tail = []
    for i in range(n_steps):
        x = em_step(x, model, dt, draws[i])
        if i >= burn_in:
            tail.append(x)
    expected = 1.0 / (rate * (2.0 - rate * dt))
    assert np.var(tail) == pytest.approx(expected, rel=0.05)


# --------------------------------------------------- exact evolution of a row


def test_propagator_matrix_heat_quadratic():
    M = propagator_matrix(PdeSpec.heat(0.7), degree=2, dt=0.3)
    expected = np.eye(3)
    expected[0, 2] = 0.7 * 0.3
    np.testing.assert_allclose(M, expected, atol=1e-15)


def test_propagator_series_terminates_exactly():
    # advection degree 4: exp(dt L) has the full triangular fill, L^5 = 0
    a, dt = -1.3, 0.25
    M = propagator_matrix(PdeSpec({1: a}), degree=4, dt=dt)
    for k in range(5):
        for j in range(5):
            if j >= k:
                assert M[k, j] == pytest.approx((a * dt) ** (j - k) / math.factorial(j - k), rel=1e-14)
            else:
                assert M[k, j] == 0.0


def test_propagator_matrix_is_read_only():
    M = propagator_matrix(PdeSpec.heat(0.7), degree=2, dt=0.3)
    with pytest.raises(ValueError):
        M[0, 2] = 0.0
    assert propagator_matrix(PdeSpec.heat(0.7), degree=2, dt=0.3)[0, 2] == 0.7 * 0.3


def test_propagator_matrix_keys_on_the_operator():
    matrices = [
        propagator_matrix(pde, degree=4, dt=0.3).tobytes()
        for pde in (PdeSpec.heat(), PdeSpec.advection(), PdeSpec.biharmonic())
    ]
    assert len(set(matrices)) == 3


@pytest.mark.parametrize("degree, dt", [(-1, 0.1), (2, -1e-3)])
def test_propagator_matrix_rejects_bad_input_on_every_call(degree, dt):
    propagator_matrix(PdeSpec.heat(), 2, 0.1)
    for _ in range(2):
        with pytest.raises(ValueError):
            propagator_matrix(PdeSpec.heat(), degree, dt)


@pytest.mark.parametrize(
    "pde, degree, dt",
    [
        (PdeSpec.advection(1.0), 2, 1e200),  # dt**2 overflows a Python float
        (PdeSpec.heat(1e10), 4, 1e150),      # the series term overflows in numpy
        (PdeSpec.heat(1.0), 2, math.nan),
    ],
    ids=["float-overflow", "array-overflow", "nan"],
)
def test_propagator_matrix_rejects_a_dt_it_cannot_represent(pde, degree, dt):
    for _ in range(2):  # raised, not cached
        with pytest.raises(ValueError, match="not finite at dt = "):
            propagator_matrix(pde, degree, dt)
    assert np.isfinite(propagator_matrix(pde, degree, 1e-3)).all()


def test_propagator_matrix_takes_numpy_scalars():
    pde = PdeSpec.advection(-1.3)
    M = propagator_matrix(pde, 4, 0.25)
    for degree, dt in [(np.int64(4), 0.25), (4, np.float64(0.25)), (np.int32(4), np.float64(0.25))]:
        other = propagator_matrix(pde, degree, dt)
        assert other.dtype == M.dtype and other.tobytes() == M.tobytes()


def test_evolve_poly_exact_advection_is_translation():
    # du/dt = -c u_x evolves any profile by translation: u(x, t) = u0(x - c t)
    c, dt = 1.7, 0.4
    coeffs = np.array([0.2, -1.0, 3.0, 0.7])
    evolved = propagator_matrix(PdeSpec.advection(c), 3, dt) @ coeffs
    for x in (-1.0, 0.5, 2.0):
        assert manual_eval(evolved, 0.5, x) == pytest.approx(
            manual_eval(coeffs, 0.5, x - c * dt), rel=1e-12, abs=1e-12
        )


def test_evolve_poly_exact_heat_quartic_closed_form():
    # on a quartic, u(t) = p + t nu p'' + t^2 nu^2 p''''/2 exactly
    nu, t = 0.3, 0.8
    coeffs = np.array([1.0, 0.5, -2.0, 0.25, 4.0])
    evolved = propagator_matrix(PdeSpec.heat(nu), 4, t) @ coeffs
    expected = coeffs.copy()
    expected[0] += t * nu * coeffs[2] + 0.5 * (t * nu) ** 2 * coeffs[4]
    expected[1] += t * nu * coeffs[3]
    expected[2] += t * nu * coeffs[4]
    np.testing.assert_allclose(evolved, expected, rtol=1e-14)


def test_evolve_poly_exact_zero_dt_is_identity():
    coeffs = np.array([1.0, 2.0, 3.0])
    evolved = propagator_matrix(PdeSpec.biharmonic(), 2, 0.0) @ coeffs
    assert evolved.tobytes() == coeffs.tobytes()


# --------------------------------------------------------- FD solver guards


def test_stable_dt_bound_formulas():
    dx = 0.1
    assert stable_dt_bound(PdeSpec.advection(2.0), dx) == pytest.approx(0.8 * dx / 2.0)
    assert stable_dt_bound(PdeSpec.heat(0.5), dx) == pytest.approx(0.4 * dx**2 / 0.5)
    assert stable_dt_bound(PdeSpec.biharmonic(2.0), dx) == pytest.approx(0.3 * dx**4 / 16.0)
    mixed = PdeSpec({1: 1.0, 2: 1.0})
    assert stable_dt_bound(mixed, dx) == pytest.approx(min(0.8 * dx, 0.4 * dx**2))
    assert math.isinf(stable_dt_bound(PdeSpec({}), dx))
    with pytest.raises(ValueError):
        stable_dt_bound(PdeSpec({3: 1.0}), dx)


def test_influence_radius_formulas():
    dt = 1e-3
    assert influence_radius(PdeSpec.advection(2.0), dt) == pytest.approx(2.0 * dt)
    assert influence_radius(PdeSpec.heat(0.5), dt) == pytest.approx(6.0 * math.sqrt(0.5 * dt))
    assert influence_radius(PdeSpec.biharmonic(1.0), dt) == pytest.approx(6.0 * dt**0.25)
    assert influence_radius(PdeSpec.heat(1.0), 0.0) == 0.0


def test_an_order_without_a_stencil_gets_one_message_everywhere():
    pde = PdeSpec({2: 1.0, 3: 1.0})
    tooth, grid = ToothConfig(h=0.05, H=1.0), MicroGrid(dx=0.01, dt=1e-6)
    for call in (
        lambda: stable_dt_bound(pde, 0.01),
        lambda: influence_radius(pde, 1e-4),
        lambda: evolve_fd_buffered([1.0, 0.0, 0.0], pde, 1e-4, tooth, grid),
    ):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == "no finite-difference stencil for derivative order 3"


def test_fd_refuses_more_micro_steps_than_the_cap_before_stepping(monkeypatch):
    import patchlab.core as core

    monkeypatch.setattr(core, "_MAX_STEPS", 10)
    pde, tooth = PdeSpec.heat(1.0), ToothConfig(h=0.05, H=0.5)
    grid = MicroGrid(dx=0.01, dt=1e-5)
    evolve_fd_buffered([1.0, 0.0, 0.0], pde, 1e-4, tooth, grid)  # ten steps
    with pytest.raises(ValueError) as err:
        evolve_fd_buffered([1.0, 0.0, 0.0], pde, 1.05e-4, tooth, grid)
    assert str(err.value) == "dt 0.000105 needs more than 10 micro steps of 1e-05"
    # a micro step of 1e-300 is refused at once, not stepped 1e296 times
    monkeypatch.undo()
    with pytest.raises(ValueError, match="needs more than 10000000 micro steps of 1e-300"):
        evolve_fd_buffered([1.0, 0.0, 0.0], pde, 1e-4, tooth, MicroGrid(dx=0.01, dt=1e-300))


def test_fd_rejects_unstable_micro_step():
    pde = PdeSpec.heat(1.0)
    grid = MicroGrid(dx=0.01, dt=1.0)  # far above 0.4 dx^2
    tooth = ToothConfig(h=0.05, H=1.0)
    with pytest.raises(ValueError, match="^micro dt 1 exceeds the explicit stability bound 4e-05 "
                                         "for dx 0.01$"):
        evolve_fd_buffered([1.0, 0.0, 0.0], pde, 1e-4, tooth, grid)


def test_fd_rejects_too_small_buffer():
    pde = PdeSpec.heat(1.0)
    grid = MicroGrid(dx=0.005, dt=1e-6)
    tooth = ToothConfig(h=0.05, H=0.06)  # buffer 0.005 << radius 6*sqrt(dt_total)
    with pytest.raises(ValueError, match="^influence radius .* exceeds buffer 0.005; need H >= "):
        evolve_fd_buffered([1.0, 0.0, 0.0], pde, 1e-3, tooth, grid)


def test_fd_requires_finite_patch():
    with pytest.raises(ValueError):
        evolve_fd_buffered(
            [1.0, 0.0, 0.0], PdeSpec.heat(), 1e-4, ToothConfig(h=0.05), MicroGrid(0.005, 1e-6)
        )


def test_fd_boundary_stays_frozen():
    pde = PdeSpec.heat(1.0)
    grid = MicroGrid(dx=0.02, dt=1e-4)
    tooth = ToothConfig(h=0.1, H=0.8)
    coeffs = (0.0, 0.0, 2.0)
    samples = evolve_fd_buffered(coeffs, pde, 1e-3, tooth, grid)
    xs = grid.dx * (np.arange(samples.size) - (samples.size - 1) / 2.0)
    assert samples[0] == pytest.approx(manual_eval(coeffs, 0.0, xs[0]), rel=1e-14)
    assert samples[-1] == pytest.approx(manual_eval(coeffs, 0.0, xs[-1]), rel=1e-14)


def test_fd_heat_matches_exact_propagator_on_quartic():
    """The two micro solvers must agree on the restricted average."""
    nu = 1.0
    pde = PdeSpec.heat(nu)
    h = 0.08
    dt = 2e-4
    grid = MicroGrid(dx=h / 16.0, dt=0.5 * 0.4 * (h / 16.0) ** 2 / nu)
    H = h + 2.5 * influence_radius(pde, dt)
    tooth = ToothConfig(h=h, H=H)
    p = np.array([0.5, -1.0, 2.0, 1.5, -3.0])
    fd_avg = tooth_average(evolve_fd_buffered(p, pde, dt, tooth, grid), grid.dx, h)
    exact_avg = average_weights(4, h) @ (propagator_matrix(pde, 4, dt) @ p)
    # spatial truncation O(dx^2) plus one-step time error
    assert abs(fd_avg - exact_avg) <= 10.0 * grid.dx**2 + 10.0 * grid.dt

    # a stack of teeth evolves row by row as each tooth does alone
    q = np.array([-2.0, 0.5, 6.0, -1.0, 8.0])
    q_samples = evolve_fd_buffered(q, pde, dt, tooth, grid)
    samples = evolve_fd_buffered(np.array([p, q]), pde, dt, tooth, grid)
    assert samples.shape == (2, q_samples.size)
    row_avgs = tooth_average(samples, grid.dx, h)
    alone = [fd_avg, tooth_average(q_samples, grid.dx, h)]
    np.testing.assert_allclose(row_avgs, alone, rtol=1e-13, atol=1e-13)


def test_fd_advection_upwind_exact_on_linear():
    # one-sided differences are exact on linear data, so transport is exact
    c = -1.5  # a = -c = +1.5 > 0: forward differences
    pde = PdeSpec.advection(c)
    dt = 1e-3
    grid = MicroGrid(dx=0.01, dt=2e-4)
    tooth = ToothConfig(h=0.05, H=0.3)
    p = np.array([0.7, 2.0, 0.0])
    samples = evolve_fd_buffered(p, pde, dt, tooth, grid)
    avg = tooth_average(samples, grid.dx, 0.05)
    exact = average_weights(2, 0.05) @ (propagator_matrix(pde, 2, dt) @ p)
    assert avg == pytest.approx(exact, rel=1e-10)


def test_tooth_average_exact_on_linear_field():
    xs_vals = 3.0 + 2.0 * np.linspace(-0.2, 0.2, 9)
    assert tooth_average(xs_vals, 0.05, 0.3) == pytest.approx(3.0, rel=1e-13)


def test_tooth_average_requires_coverage():
    samples = np.zeros(5)
    with pytest.raises(ValueError, match=r"^micro samples span \[-0.02, 0.02\] but the tooth needs "
                                         r"\[-0.5, 0.5\]$"):
        tooth_average(samples, 0.01, 1.0)
    with pytest.raises(ValueError):
        tooth_average(samples, 0.01, -0.1)
    with pytest.raises(ValueError):
        tooth_average(1.0, 0.01, 0.005)  # no sample axis
