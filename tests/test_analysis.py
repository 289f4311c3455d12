import math

import numpy as np
import pytest

from patchlab import (
    CENTRAL_D2,
    MacroState,
    PatchConfig,
    PdeSpec,
    RngStreamSpec,
    ToothConfig,
    classify_growth,
    convergence_order,
    growth_factor_probe,
    increment_moments,
    seeded_noise_state,
    stationary_variance_test,
    step_symbol,
    symbol_stepper,
)
from patchlab.analysis import STABLE_THRESHOLD, UNSTABLE_THRESHOLD


def scale_stepper(factor):
    def step(u):
        return MacroState(values=u.values * factor, dx=u.dx, time=u.time + 1.0)
    return step


def test_seeded_noise_state_properties():
    u = seeded_noise_state(64, dx=0.1, rng=RngStreamSpec(3))
    assert u.n_points == 64
    assert u.dx == 0.1
    assert abs(u.values.mean()) < 1e-15
    v = seeded_noise_state(64, dx=0.1, rng=RngStreamSpec(3))
    assert u.values.tobytes() == v.values.tobytes()


def test_growth_factor_decaying_stepper():
    u0 = seeded_noise_state(32, 1.0, RngStreamSpec(0))
    report = growth_factor_probe(scale_stepper(0.5), u0, 40)
    assert report.growth_factor == pytest.approx(0.5, rel=1e-12)
    assert report.classification == "stable"
    assert report.steps_used == 40
    assert not report.terminated_early


def test_growth_factor_growing_stepper():
    u0 = seeded_noise_state(32, 1.0, RngStreamSpec(0))
    report = growth_factor_probe(scale_stepper(2.0), u0, 40)
    assert report.growth_factor == pytest.approx(2.0, rel=1e-12)
    assert report.classification == "unstable"


def test_growth_factor_identity_is_marginal():
    u0 = seeded_noise_state(32, 1.0, RngStreamSpec(0))
    report = growth_factor_probe(scale_stepper(1.0), u0, 40)
    assert report.growth_factor == pytest.approx(1.0, abs=1e-14)
    assert report.classification == "marginal"


def test_growth_factor_overflow_terminates_early():
    u0 = seeded_noise_state(32, 1.0, RngStreamSpec(0))
    report = growth_factor_probe(scale_stepper(1e60), u0, 40)
    assert report.terminated_early
    assert report.steps_used < 40
    assert report.classification == "unstable"


def test_growth_factor_validation():
    u0 = seeded_noise_state(8, 1.0, RngStreamSpec(0))
    with pytest.raises(ValueError):
        growth_factor_probe(scale_stepper(0.5), u0, 3)
    zero = MacroState(values=np.zeros(8), dx=1.0)
    with pytest.raises(ValueError):
        growth_factor_probe(scale_stepper(0.5), zero, 10)
    # a decaying stepper from a norm above 1e100 leaves no ratio to read
    huge = MacroState(values=u0.values * 1e120, dx=1.0)
    with pytest.raises(ValueError, match="overflowed immediately"):
        growth_factor_probe(scale_stepper(0.5), huge, 10)


def test_classify_growth_thresholds():
    assert classify_growth(np.nextafter(UNSTABLE_THRESHOLD, 2.0)) == "unstable"
    assert classify_growth(UNSTABLE_THRESHOLD) == "marginal"
    assert classify_growth(1.0) == "marginal"
    assert classify_growth(STABLE_THRESHOLD) == "marginal"
    assert classify_growth(np.nextafter(STABLE_THRESHOLD, 0.0)) == "stable"


@pytest.mark.parametrize(
    "factor, n_steps", [(0.5, 40), (2.0, 40), (1.0, 40), (1e60, 40), (2.0, 400)]
)
def test_symbol_growth_factor_matches_the_probe_on_scale_steppers(factor, n_steps):
    # a scale stepper is the circulant map whose symbol is constant: its
    # growth factor from the symbol, max|G|, is ``factor``
    u0 = seeded_noise_state(32, 1.0, RngStreamSpec(0))
    probe = growth_factor_probe(scale_stepper(factor), u0, n_steps)
    assert probe.growth_factor == pytest.approx(factor, rel=1e-12)
    assert probe.classification == classify_growth(factor)
    # the probe stops once the norm passes 1e100 (after one ratio at 1e60,
    # after 332 at 2.0 over 400 steps)
    assert probe.terminated_early == (n_steps * math.log10(factor) > 100)


def test_symbol_growth_factor_follows_the_dominant_mode():
    # one growing mode among decaying ones: its growth, max|G|, wins after the transient
    u0 = seeded_noise_state(16, 1.0, RngStreamSpec(2))
    symbol = np.full(16, 0.9, dtype=complex)
    symbol[3], symbol[-3] = 1.05j, -1.05j  # G(-k) = conj(G(k)) keeps a real state real

    def step(u):
        return MacroState(values=np.fft.ifft(symbol * np.fft.fft(u.values)).real, dx=u.dx)

    report = growth_factor_probe(step, u0, 400)
    assert report.growth_factor == pytest.approx(1.05, rel=1e-10)
    assert report.classification == classify_growth(np.abs(symbol).max()) == "unstable"


def test_symbol_growth_factor_validation():
    # the growth read from the symbol, max|G|, needs a finite step: a step
    # that overflows is refused when its symbol is formed
    n = 8
    dx = 2.0 * math.pi / n
    dt_macro = 1e160 * dx**2
    cfg = PatchConfig(lifting=CENTRAL_D2, tooth=ToothConfig(h=0.2 * dx),
                      dt_micro=1e-3 * dt_macro, dt_macro=dt_macro)
    with pytest.raises(ValueError, match="the gap-tooth step is not finite at dt_macro"):
        step_symbol(PdeSpec.heat(), cfg, n, dx)
    # no norm is iterated, so a factor far above the probe's 1e100 stop is read
    assert classify_growth(1e150) == "unstable"
    assert classify_growth(0.5) == "stable"
    # the iterated probe needs four steps and a finite, nonzero state
    u0 = seeded_noise_state(8, 1.0, RngStreamSpec(0))
    with pytest.raises(ValueError, match="probe_steps must be >= 4"):
        growth_factor_probe(scale_stepper(0.5), u0, 3)
    with pytest.raises(ValueError, match="finite and nonzero"):
        growth_factor_probe(scale_stepper(0.5), MacroState(np.zeros(8), 1.0), 10)


def heat_problem(n):
    """Plain explicit heat scheme on [0, 2pi), independent of the package."""
    dx = 2.0 * math.pi / n
    dt = 0.4 * dx * dx

    def step(u):
        v = u.values
        lap = (np.roll(v, -1) - 2.0 * v + np.roll(v, 1)) / dx**2
        return MacroState(values=v + dt * lap, dx=dx, time=u.time + dt)

    xs = dx * np.arange(n)
    return step, MacroState(values=np.sin(xs), dx=dx)


def test_convergence_order_second_order_scheme():
    report = convergence_order(
        heat_problem, (16, 32, 64), final_time=0.5,
        exact=lambda xs, t: math.exp(-t) * np.sin(xs),
    )
    assert report.fitted_order == pytest.approx(2.0, abs=0.3)
    assert len(report.errors) == 3
    assert report.errors[0] > report.errors[1] > report.errors[2]
    assert report.excluded == ()


def test_convergence_order_excludes_rounding_level_errors():
    def make(n):
        dx = 2.0 * math.pi / n
        xs = dx * np.arange(n)
        u0 = MacroState(values=np.sin(xs), dx=dx)
        return scale_stepper(1.0), u0

    def exact(xs, t):
        base = np.sin(xs)
        if xs.size == 16:
            return base  # exact on the coarsest grid: rounding-level error
        return base + (xs[1] - xs[0]) ** 2

    with pytest.warns(RuntimeWarning):
        report = convergence_order(make, (16, 32, 64), final_time=1.0, exact=exact)
    assert report.excluded == (0,)
    assert report.fitted_order == pytest.approx(2.0, abs=1e-6)


def test_convergence_order_needs_two_usable_points():
    def make(n):
        dx = 2.0 * math.pi / n
        xs = dx * np.arange(n)
        return scale_stepper(1.0), MacroState(values=np.sin(xs), dx=dx)

    # every error is at rounding level: nothing is left to fit
    with pytest.warns(RuntimeWarning):
        report = convergence_order(make, (16, 32), final_time=1.0,
                                   exact=lambda xs, t: np.sin(xs))
    assert report.excluded == (0, 1)
    assert math.isnan(report.fitted_order)
    assert report.errors[0] < 1e-12 and report.errors[1] < 1e-12


def test_convergence_order_leaves_out_errors_that_are_not_finite(recwarn):
    def make(n):
        dx = 2.0 * math.pi / n
        return scale_stepper(1.0), MacroState(values=np.sin(dx * np.arange(n)), dx=dx)

    def exact(xs, t):
        # off by dx**2, except an error of inf on 16 points and nan on 32
        spoiled = {16: math.inf, 32: math.nan}.get(xs.size, (xs[1] - xs[0]) ** 2)
        return np.sin(xs) + spoiled

    report = convergence_order(make, (16, 32, 64, 128), final_time=1.0, exact=exact)
    assert report.excluded == (0, 1)
    assert math.isinf(report.errors[0]) and math.isnan(report.errors[1])
    assert report.fitted_order == pytest.approx(2.0, abs=1e-6)
    assert [str(w.message) for w in recwarn] == [
        "excluding non-finite or rounding-dominated errors at grid indices (0, 1)"]


def test_convergence_order_needs_distinct_grid_sizes():
    with pytest.raises(ValueError, match="distinct"):
        convergence_order(heat_problem, (32, 32), final_time=0.5,
                          exact=lambda xs, t: math.exp(-t) * np.sin(xs))


def constant_step_problem(dt):
    """A stepper that only advances time by ``dt``, on an exact solution off by dx**2."""
    def make(n):
        dx = 2.0 * math.pi / n

        def step(u):
            return MacroState(values=u.values, dx=u.dx, time=u.time + dt)

        return step, MacroState(values=np.sin(dx * np.arange(n)), dx=dx)
    return make


def off_by_dx2(xs, t):
    return np.sin(xs) - (xs[1] - xs[0]) ** 2


def test_convergence_order_refuses_more_steps_than_the_cap(monkeypatch):
    import patchlab.core as core

    monkeypatch.setattr(core, "_MAX_STEPS", 10)
    # ten steps of 0.125 are accepted
    report = convergence_order(constant_step_problem(0.125), (16, 32), 1.25, off_by_dx2)
    assert report.fitted_order == pytest.approx(2.0)
    calls = []

    def counted(n):
        step, u = constant_step_problem(0.125)(n)
        return lambda u: calls.append(n) or step(u), u

    with pytest.raises(ValueError) as err:
        convergence_order(counted, (16, 32), 1.375, off_by_dx2)
    assert str(err.value) == "final_time 1.375 needs more than 10 macro steps of 0.125"
    assert calls == [16]  # refused after the first step
    monkeypatch.undo()
    # steps of 1e-300 would need 1e300 of them: refused after the first
    with pytest.raises(ValueError, match="^final_time 1 needs more than 10000000 macro steps"):
        convergence_order(constant_step_problem(1e-300), (16, 32), 1.0, off_by_dx2)


def test_growth_factor_probe_refuses_more_steps_than_the_cap_before_stepping(monkeypatch):
    import patchlab.core as core

    def never(u):
        raise AssertionError("the probe stepped before checking its step count")

    u0 = seeded_noise_state(8, 1.0, RngStreamSpec(0))
    # used to loop until killed
    with pytest.raises(ValueError) as err:
        growth_factor_probe(never, u0, 10**12)
    assert str(err.value) == "probe_steps 1000000000000 needs more than 10000000 macro steps"
    monkeypatch.setattr(core, "_MAX_STEPS", 10)
    assert growth_factor_probe(scale_stepper(0.5), u0, 10).steps_used == 10
    with pytest.raises(ValueError, match="^probe_steps 11 needs more than 10 macro steps$"):
        growth_factor_probe(never, u0, 11)


def test_a_count_past_the_step_cap_is_printed_in_full():
    # ":g" printed one step past the cap as 1e+07, which reads as within it
    u0 = seeded_noise_state(8, 1.0, RngStreamSpec(0))
    with pytest.raises(ValueError) as err:
        growth_factor_probe(lambda u: u, u0, 10**7 + 1)
    assert str(err.value) == "probe_steps 10000001 needs more than 10000000 macro steps"


def test_convergence_order_refuses_a_step_that_does_not_advance():
    with pytest.raises(ValueError) as err:
        convergence_order(constant_step_problem(0.0), (16, 32), 1.0, off_by_dx2)
    assert str(err.value) == "a step on grid 16 stays at time 0, short of final_time 1"


def test_symbol_stepper_lands_where_iterated_steps_stop():
    # the explicit heat scheme is circulant with symbol 1 - 4 lam sin^2(k dx / 2)
    n = 32
    step, u0 = heat_problem(n)
    dx = u0.dx
    dt = 0.4 * dx * dx
    symbol = 1.0 - 1.6 * np.sin(np.pi * np.fft.fftfreq(n)) ** 2 + 0j
    iterated = u0
    while iterated.time < 0.5 * (1.0 - 1e-9):
        iterated = step(iterated)
    jumped = symbol_stepper(symbol, dt, 0.5)(u0)
    assert jumped.time == iterated.time
    np.testing.assert_allclose(jumped.values, iterated.values, rtol=0, atol=1e-12)


def test_symbol_stepper_refuses_more_steps_than_its_cap_before_stepping():
    symbol = np.ones(4)
    # 1e7 steps of 0.1, the most it takes, are accepted (and not taken here)
    symbol_stepper(symbol, 0.1, 1e6)
    with pytest.raises(ValueError) as err:
        symbol_stepper(symbol, 0.1, 1e15)
    assert str(err.value) == "final_time 1e+15 needs more than 10000000 macro steps of 0.1"
    # far past the last float step, where t + dt_macro == t
    with pytest.raises(ValueError, match="^final_time 1e\\+300 needs more than"):
        symbol_stepper(symbol, 1e-300, 1e300)


def test_increment_moments_oracle():
    mom = increment_moments(np.array([0.0, 1.0, 3.0, 6.0]))
    assert mom.n == 3
    assert mom.mean == pytest.approx(2.0)
    assert mom.std == pytest.approx(1.0)
    assert mom.se_mean == pytest.approx(1.0 / math.sqrt(3.0))
    assert mom.se_std == pytest.approx(1.0 / math.sqrt(6.0))
    with pytest.raises(ValueError):
        increment_moments(np.array([1.0, 2.0]))


def test_stationary_variance_test_pass_and_fail():
    rng = np.random.default_rng(12)
    values = rng.normal(scale=2.0, size=20_000)
    check = stationary_variance_test(values, expected=4.0, tolerance_fraction=0.05)
    assert check.passed
    assert check.n_tail == 18_000
    wrong = stationary_variance_test(values, expected=2.0, tolerance_fraction=0.05)
    assert not wrong.passed


def test_stationary_variance_test_discards_burn_in():
    rng = np.random.default_rng(13)
    transient = np.full(1000, 50.0)
    tail = rng.normal(size=19_000)
    values = np.concatenate([transient, tail])
    check = stationary_variance_test(values, expected=1.0, tolerance_fraction=0.05)
    assert check.passed  # transient sits inside the discarded 10%


def test_stationary_variance_test_validation():
    with pytest.raises(ValueError):
        stationary_variance_test(np.zeros(100), expected=1.0, tolerance_fraction=0.1)
    with pytest.raises(ValueError):
        stationary_variance_test(np.ones(5000), expected=-1.0, tolerance_fraction=0.1)
