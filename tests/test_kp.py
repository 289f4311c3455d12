"""Particle in a random force field: integrator fidelity and MSD exponents."""

import math
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

import patchlab.kp
from patchlab import (
    SELF_CONSISTENCY_TOL,
    RandomForceField,
    RngStreamSpec,
    ScaledTrajectory,
    energy,
    ensemble_velocities,
    generator,
    kp_integrate,
    msd_exponent,
    synthesize_force_field,
)


def small_field(seed=0, n_modes=16):
    return synthesize_force_field(n_modes, spectrum=0.0, rng=RngStreamSpec(seed))


def test_force_field_validation():
    with pytest.raises(ValueError):
        RandomForceField(amplitudes=[1.0], wavenumbers=[1.0, 2.0], phases=[0.0])
    with pytest.raises(ValueError):
        RandomForceField(amplitudes=[1.0], wavenumbers=[0.0], phases=[0.0])


def test_force_field_stack_validation():
    with pytest.raises(ValueError):  # last axis of the phases is not n_modes
        RandomForceField(amplitudes=[1.0, 2.0], wavenumbers=[1.0, 2.0], phases=np.zeros((3, 4)))
    with pytest.raises(ValueError):  # a stack of stacks
        RandomForceField(amplitudes=[1.0, 2.0], wavenumbers=[1.0, 2.0], phases=np.zeros((2, 3, 2)))
    stack = RandomForceField(amplitudes=[1.0, 2.0], wavenumbers=[1.0, 2.0], phases=np.zeros((3, 2)))
    assert stack.phases.shape == (3, 2)


def stacked(fields):
    return RandomForceField(
        amplitudes=fields[0].amplitudes,
        wavenumbers=fields[0].wavenumbers,
        phases=np.stack([field.phases for field in fields]),
    )


def fields_from(seed, n_fields, n_modes):
    rng = RngStreamSpec(seed)
    return [synthesize_force_field(n_modes, 0.0, rng.at(stream_id=i)) for i in range(n_fields)]


def failing_rows(energy_error):
    """The rows that fail the step check: an energy error above the tolerance or not finite."""
    return np.flatnonzero(~(np.atleast_1d(energy_error) <= SELF_CONSISTENCY_TOL)).tolist()


@pytest.mark.parametrize("n_modes", [7, 256])
@pytest.mark.parametrize("n_fields", [1, 3, 24])
def test_stacked_force_and_potential_match_each_row(n_fields, n_modes):
    fields = fields_from(21, n_fields, n_modes)
    stack = stacked(fields)
    x = np.linspace(-3.0, 5.0, n_fields)
    force, potential = stack.force(x), stack.potential(x)
    assert force.shape == potential.shape == (n_fields,)
    for i, field in enumerate(fields):
        assert force[i] == field.force(x[i])
        assert potential[i] == field.potential(x[i])


@pytest.mark.parametrize("n_modes", [7, 256])
@pytest.mark.parametrize("n_fields", [1, 3, 24])
def test_stacked_integration_matches_each_row_alone(n_fields, n_modes):
    fields = fields_from(22, n_fields, n_modes)
    run = dict(delta=0.3, total_time=0.008, dt=1e-4, initial=(0.2, 1.0), n_samples=50)
    together = kp_integrate(stacked(fields), **run)
    assert together.positions.shape == together.velocities.shape == (n_fields, 51)
    for i, field in enumerate(fields):
        alone = kp_integrate(field, **run)
        np.testing.assert_array_equal(together.positions[i], alone.positions)
        np.testing.assert_array_equal(together.velocities[i], alone.velocities)
    assert together.dt_used == alone.dt_used
    np.testing.assert_array_equal(together.times, alone.times)


@pytest.mark.parametrize("n_modes", [7, 256])
@pytest.mark.parametrize("n_fields", [1, 3, 24])
def test_stacked_energy_matches_each_row_alone(n_fields, n_modes):
    fields = fields_from(23, n_fields, n_modes)
    stack = stacked(fields)
    traj = kp_integrate(stack, delta=0.3, total_time=0.008, dt=1e-4, initial=(0.2, 1.0),
                        n_samples=50)
    together = energy(stack, 0.3, traj.positions, traj.velocities)
    assert together.shape == (n_fields, 51)
    assert stack.force(traj.positions).shape == (n_fields, 51)
    for i, field in enumerate(fields):
        alone = energy(field, 0.3, traj.positions[i], traj.velocities[i])
        np.testing.assert_array_equal(together[i], alone)
        np.testing.assert_array_equal(stack.force(traj.positions)[i],
                                      field.force(traj.positions[i]))
    # a stack still evaluates every field at one shared position
    np.testing.assert_array_equal(stack.force(0.4), [f.force(0.4) for f in fields])


def test_stack_error_names_the_lowest_failing_row():
    # at seed 141 row 0 passes the energy check (relative energy error 0.0033)
    # and row 1 is the first to fail it (0.0057)
    fields = fields_from(141, 4, 256)
    run = dict(delta=0.02, total_time=0.008, dt=5e-6, n_samples=400)
    alone = [kp_integrate(field, **run).energy_error for field in fields]
    assert alone[0] == pytest.approx(0.0033, abs=1e-4)
    assert alone[1] == pytest.approx(0.00566, abs=1e-5)
    error = kp_integrate(stacked(fields), **run).energy_error
    # each stack row is its field's error alone, so row 1 is the lowest failing row
    np.testing.assert_array_equal(error, alone)
    assert failing_rows(error)[0] == 1
    pair = ensemble_velocities(n_trajectories=4, n_modes=256, spectrum=0.0,
                               rng=RngStreamSpec(141), **run)
    np.testing.assert_array_equal(pair.energy_error, error)


@pytest.mark.parametrize("cpus", [1, 2, 5, 24])
def test_blocks_of_rows_keep_every_bit(monkeypatch, cpus):
    # every field runs as min(rows, cpus) blocks, the first in the calling
    # thread and each other in a thread of its own; no row may depend on how
    # the rows are split, and a single field is a block of one row
    run = dict(delta=0.3, total_time=0.008, dt=1e-4, n_samples=50)
    fields = fields_from(24, 24, 8)
    stack = stacked(fields)
    blocks, starts = [], []

    def counted(field, *args):
        blocks.append(field.phases.shape)
        return leapfrog(field, *args)

    def started(thread):
        starts.append(thread)
        start(thread)

    def runs(n_cpus):
        blocks.clear()
        starts.clear()
        monkeypatch.setattr(patchlab.kp, "_usable_cpus", lambda: n_cpus)
        return (kp_integrate(stack, **run),
                ensemble_velocities(n_trajectories=24, n_modes=8, spectrum=0.0,
                                    rng=RngStreamSpec(24), **run))

    leapfrog, start = patchlab.kp._leapfrog, threading.Thread.start
    monkeypatch.setattr(patchlab.kp, "_leapfrog", counted)
    monkeypatch.setattr(threading.Thread, "start", started)
    one_cpu = runs(1)
    assert blocks == [(24, 8), (24, 8)] and starts == []
    split = runs(cpus)
    sizes = [len(rows) for rows in np.array_split(range(24), cpus)]
    assert sorted(blocks) == sorted(2 * [(size, 8) for size in sizes])
    assert len(starts) == 2 * (len(sizes) - 1)
    for alone, together in zip(one_cpu, split):
        for name in ("positions", "velocities", "energy_error"):
            assert getattr(together, name).tobytes() == getattr(alone, name).tobytes()
    assert kp_integrate(stack, validate=False, **run).energy_error is None
    blocks.clear()
    starts.clear()
    single = kp_integrate(fields[5], **run)
    assert blocks == [(1, 8)] and starts == []
    for name in ("positions", "velocities", "energy_error"):
        row = getattr(one_cpu[0], name)[5]
        assert getattr(single, name).shape == row.shape
        assert getattr(single, name).tobytes() == row.tobytes()


@pytest.mark.parametrize("bad_row", [0, 3])
def test_every_block_runs_under_the_callers_errstate(monkeypatch, bad_row):
    # two blocks of two rows: row 0 runs in the calling thread, row 3 in a
    # helper; at x = 1e308 the phase k x + phi overflows in the row whose
    # phase is 1e308, and only there
    monkeypatch.setattr(patchlab.kp, "_usable_cpus", lambda: 2)
    phases = np.zeros((4, 2))
    phases[bad_row] = 1e308
    stack = RandomForceField(amplitudes=[1.0, 1.0], wavenumbers=[1.0, 0.5], phases=phases)
    run = dict(delta=1.0, total_time=0.008, dt=1e-4, initial=(1e308, 1.0), n_samples=50)
    threads = threading.active_count()
    with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
        kp_integrate(stack, **run)
    assert threading.active_count() == threads


def test_the_lowest_failing_block_raises(monkeypatch):
    # four blocks of one row; blocks 2 and 3 fail, each in a helper thread
    monkeypatch.setattr(patchlab.kp, "_usable_cpus", lambda: 4)

    def fail_from_row_2(field, *args):
        if field.phases[0, 0] >= 2:
            raise ValueError(f"block of row {field.phases[0, 0]:g}")
        return leapfrog(field, *args)

    leapfrog = patchlab.kp._leapfrog
    monkeypatch.setattr(patchlab.kp, "_leapfrog", fail_from_row_2)
    stack = RandomForceField(amplitudes=[1.0], wavenumbers=[1.0],
                             phases=[[0.0], [1.0], [2.0], [3.0]])
    threads = threading.active_count()
    with pytest.raises(ValueError, match="^block of row 2$"):
        kp_integrate(stack, 1.0, total_time=0.008, dt=1e-4, n_samples=50)
    assert threading.active_count() == threads


def test_force_and_potential_shapes():
    field = RandomForceField(amplitudes=[2.0], wavenumbers=[3.0], phases=[0.5])
    assert field.force(0.0) == pytest.approx(2.0 * math.cos(0.5))
    xs = np.array([0.0, 1.0])
    assert field.force(xs).shape == (2,)
    assert field.potential(0.0) == pytest.approx(-2.0 / 3.0 * math.sin(0.5))


def test_potential_gradient_is_minus_force():
    field = small_field(3)
    eps = 1e-7
    for x in (0.0, 0.7, -2.3):
        grad = (field.potential(x + eps) - field.potential(x - eps)) / (2 * eps)
        assert -grad == pytest.approx(field.force(x), rel=1e-5, abs=1e-5)


def test_synthesize_force_field_spectrum():
    field = synthesize_force_field(8, spectrum=1.5, rng=RngStreamSpec(4))
    np.testing.assert_allclose(field.wavenumbers, np.arange(1, 9))
    np.testing.assert_allclose(field.amplitudes, np.arange(1, 9) ** -1.5)
    again = synthesize_force_field(8, spectrum=1.5, rng=RngStreamSpec(4))
    assert field.phases.tobytes() == again.phases.tobytes()


def test_zero_amplitude_field_gives_free_motion():
    field = RandomForceField(amplitudes=[0.0], wavenumbers=[1.0], phases=[0.0])
    delta = 0.5
    traj = kp_integrate(field, delta, total_time=1.0, dt=1e-3, initial=(0.3, 2.0))
    np.testing.assert_allclose(traj.velocities, 2.0, rtol=1e-13)
    np.testing.assert_allclose(
        traj.positions, 0.3 + 2.0 * traj.times / delta**2, rtol=1e-12
    )
    # a particle at rest stays at rest: no drift over no kinetic scale reads 0
    at_rest = kp_integrate(field, delta, total_time=1.0, dt=1e-3, initial=(0.3, 0.0))
    assert at_rest.energy_error == 0.0


def test_energy_is_conserved_to_second_order():
    field = small_field(1)
    delta = 0.3

    def max_drift(dt):
        traj = kp_integrate(field, delta, total_time=0.02, dt=dt,
                            n_samples=100, validate=False)
        e = energy(field, delta, traj.positions, traj.velocities)
        return float(np.max(np.abs(e - e[0])))

    coarse = max_drift(2e-4)
    fine = max_drift(1e-4)
    assert coarse < 1e-4  # bounded oscillation, not secular growth
    assert 2.5 < coarse / fine < 6.0  # halving dt cuts the error ~4x


def test_leapfrog_is_time_reversible():
    field = small_field(2)
    delta = 0.4
    fwd = kp_integrate(field, delta, total_time=0.05, dt=1e-4,
                       initial=(0.1, 1.0), n_samples=50, validate=False)
    back = kp_integrate(field, delta, total_time=0.05, dt=fwd.dt_used,
                        initial=(fwd.positions[-1], -fwd.velocities[-1]),
                        n_samples=50, validate=False)
    assert back.positions[-1] == pytest.approx(0.1, abs=1e-9)
    assert back.velocities[-1] == pytest.approx(-1.0, abs=1e-9)


def test_phase_shift_is_a_translation():
    # adding k_m * s to every phase translates the trajectory by -s
    base = small_field(5)
    s = 0.8
    shifted = RandomForceField(
        amplitudes=base.amplitudes,
        wavenumbers=base.wavenumbers,
        phases=base.phases + base.wavenumbers * s,
    )
    t1 = kp_integrate(base, 0.5, total_time=0.05, dt=1e-4, initial=(s, 1.0), validate=False)
    t2 = kp_integrate(shifted, 0.5, total_time=0.05, dt=1e-4, initial=(0.0, 1.0), validate=False)
    np.testing.assert_allclose(t2.positions + s, t1.positions, rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(t2.velocities, t1.velocities, rtol=1e-10, atol=1e-10)


def test_dt_is_a_ceiling():
    field = small_field(0)
    traj = kp_integrate(field, 1.0, total_time=0.008, dt=1.0, n_samples=400, validate=False)
    assert traj.dt_used == pytest.approx(0.008 / 400)
    traj2 = kp_integrate(field, 1.0, total_time=0.008, dt=7e-6, n_samples=400, validate=False)
    assert traj2.dt_used <= 7e-6 * (1 + 1e-12)
    assert traj2.times.size == 401


def test_self_consistency_check_rejects_coarse_dt():
    # a stiff, strongly forced run at delta = 0.02 cannot survive dt = 2e-5
    field = synthesize_force_field(256, spectrum=0.0, rng=RngStreamSpec(9))
    traj = kp_integrate(field, 0.02, total_time=0.008, dt=2e-5, n_samples=400)
    assert failing_rows(traj.energy_error) == [0]


def test_non_finite_energy_error_fails_the_step_check():
    # v0 = 1e200 overflows v**2: the energy error is NaN, not a pass at 0.0,
    # and it is returned without a numpy warning
    field = small_field(0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        traj = kp_integrate(field, 1.0, total_time=0.008, dt=1e-4, initial=(0.0, 1e200),
                            n_samples=50)
    assert math.isnan(traj.energy_error)
    assert failing_rows(traj.energy_error) == [0]
    for initial in ((math.nan, 1.0), (0.0, math.inf)):
        with pytest.raises(ValueError, match="initial position and velocity must be finite"):
            kp_integrate(field, 1.0, total_time=0.008, dt=1e-4, initial=initial, validate=False)


def test_non_finite_energy_error_does_not_blame_the_step():
    # an overflowing velocity is no unresolved step: a smaller dt does not mend
    # it, and every row of a stack reports it
    field = small_field(0)
    stack = RandomForceField(field.amplitudes, field.wavenumbers, np.stack([field.phases] * 2))
    for dt in (1e-4, 1e-5):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            traj = kp_integrate(stack, 1.0, total_time=0.008, dt=dt, initial=(0.0, 1e200),
                                n_samples=50)
        assert np.isnan(traj.energy_error).all()


@pytest.mark.parametrize("delta", [math.inf, math.nan, 0.0, -1.0])
def test_kp_integrate_rejects_a_delta_that_is_not_positive_and_finite(monkeypatch, delta):
    def no_run(*args, **kwargs):
        raise AssertionError("kp integrated at a bad delta")

    monkeypatch.setattr(patchlab.kp, "_leapfrog", no_run)
    with pytest.raises(ValueError, match="^delta must be positive and finite$"):
        kp_integrate(small_field(0), delta, total_time=0.008, dt=1e-4)


@pytest.mark.parametrize("delta", [1e160, 1e300])
def test_kp_integrate_refuses_a_delta_whose_square_overflows(monkeypatch, delta):
    def no_run(*args, **kwargs):
        raise AssertionError("kp integrated at a delta whose square overflows")

    monkeypatch.setattr(patchlab.kp, "_leapfrog", no_run)
    with pytest.raises(ValueError) as err:
        kp_integrate(small_field(0), delta, total_time=0.008, dt=1e-4)
    assert str(err.value) == f"delta {delta:g} is too large: delta**2 overflows"


@pytest.mark.parametrize("delta", [1e-160, 1e-200])
def test_kp_integrate_refuses_a_delta_whose_inverse_square_overflows(monkeypatch, delta):
    # delta**2 is subnormal at 1e-160 and rounds to 0 at 1e-200
    def no_run(*args, **kwargs):
        raise AssertionError("kp integrated at a delta whose 1/delta**2 overflows")

    monkeypatch.setattr(patchlab.kp, "_leapfrog", no_run)
    with pytest.raises(ValueError) as err:
        kp_integrate(small_field(0), delta, total_time=0.008, dt=1e-5)
    assert str(err.value) == f"delta {delta:g} is too small: 1/delta**2 overflows"


def test_kp_integrate_refuses_more_steps_than_the_cap_before_integrating(monkeypatch):
    field = small_field(0)
    with monkeypatch.context() as patch:
        patch.setattr(patchlab.core, "_MAX_STEPS", 400)
        # one step per sample interval of 2e-5: 400 steps are accepted
        traj = kp_integrate(field, 1.0, total_time=0.008, dt=2e-5, validate=False)
        assert traj.dt_used == pytest.approx(2e-5)

        def no_run(*args, **kwargs):
            raise AssertionError("kp integrated past the step cap")

        patch.setattr(patchlab.kp, "_leapfrog", no_run)
        with pytest.raises(ValueError) as err:
            kp_integrate(field, 1.0, total_time=0.008, dt=1.9e-5)
        assert str(err.value) == "total_time 0.008 needs more than 400 leapfrog steps of 1.9e-05"
        with pytest.raises(ValueError, match="needs more than 400 leapfrog steps of 1e-300$"):
            kp_integrate(field, 1.0, total_time=0.008, dt=1e-300)
        # the smallest positive dt makes an infinite ratio, refused the same way
        with pytest.raises(ValueError, match="needs more than 400 leapfrog steps of 4.94066e-324$"):
            kp_integrate(field, 1.0, total_time=1e300, dt=5e-324, n_samples=1)


def test_ensemble_self_consistency_error_names_trajectory():
    # trajectory 0 draws its field from the same stream as the test above
    run = ensemble_velocities(
        n_trajectories=1, n_modes=256, spectrum=0.0, delta=0.02,
        total_time=0.008, dt=2e-5, rng=RngStreamSpec(9), n_samples=400,
    )
    assert failing_rows(run.energy_error) == [0]


def test_energy_check_is_monotone_in_dt():
    # seed 0, trajectory 0 at delta 0.02: the old step-halving check passed at
    # dt 2e-5 and 5e-6 but failed at 1e-5, because it compared the endpoints of
    # chaotic runs; the energy error falls with the step (0.31, 0.15, 0.0043)
    field = fields_from(0, 1, 256)[0]
    run = dict(delta=0.02, total_time=0.008, n_samples=400)
    errors = [kp_integrate(field, dt=dt, **run).energy_error for dt in (2e-5, 1e-5, 5e-6)]
    assert errors[0] > errors[1] > SELF_CONSISTENCY_TOL > errors[2] > 0.0


def test_energy_error_is_the_sampled_drift_over_the_kinetic_scale():
    fields = fields_from(3, 3, 64)
    run = dict(delta=0.1, total_time=0.008, dt=1e-4, n_samples=80)
    traj = kp_integrate(stacked(fields), **run)
    assert traj.energy_error.shape == (3,)
    for i, field in enumerate(fields):
        e = energy(field, 0.1, traj.positions[i], traj.velocities[i])
        expected = np.max(np.abs(e - e[0])) / (0.5 * np.mean(traj.velocities[i] ** 2))
        assert traj.energy_error[i] == pytest.approx(expected, rel=1e-12)
    pair = ensemble_velocities(n_trajectories=3, n_modes=64, spectrum=0.0,
                               rng=RngStreamSpec(3), **run)
    times, vels = pair
    np.testing.assert_array_equal(vels, traj.velocities)
    np.testing.assert_array_equal(pair.energy_error, traj.energy_error)
    assert kp_integrate(stacked(fields), validate=False, **run).energy_error is None


def test_checked_run_integrates_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return leapfrog(*args)

    leapfrog = patchlab.kp._leapfrog
    monkeypatch.setattr(patchlab.kp, "_leapfrog", counted)
    kp_integrate(small_field(0), 0.3, total_time=0.008, dt=1e-4, n_samples=50, validate=True)
    assert len(calls) == 1


def test_energy_check_memory_stays_per_sample():
    # the whole-run energy of a 24 x 256-mode stack over 401 samples would
    # build a (24, 401, 256) phase array and its sine: about 40 MB
    fields = fields_from(5, 24, 256)
    tracemalloc.start()
    try:
        kp_integrate(stacked(fields), 1.0, total_time=0.008, dt=2e-5, n_samples=400)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_ensemble_velocities_uses_per_trajectory_streams():
    rng = RngStreamSpec(77)
    times, vels = ensemble_velocities(
        n_trajectories=3, n_modes=32, spectrum=0.0, delta=0.3,
        total_time=0.008, dt=1e-4, rng=rng, n_samples=50,
    )
    assert vels.shape == (3, 51)
    field1 = synthesize_force_field(32, 0.0, rng.at(stream_id=1))
    solo = kp_integrate(field1, 0.3, total_time=0.008, dt=1e-4, n_samples=50)
    np.testing.assert_array_equal(vels[1], solo.velocities)

    _, again = ensemble_velocities(
        n_trajectories=3, n_modes=32, spectrum=0.0, delta=0.3,
        total_time=0.008, dt=1e-4, rng=rng, n_samples=50,
    )
    assert vels.tobytes() == again.tobytes()


def test_ensemble_velocities_returns_the_stack_run():
    # one result type per KP run: the ensemble is the stacked kp_integrate run
    run = dict(delta=0.3, total_time=0.008, dt=1e-4, n_samples=50)
    ensemble = ensemble_velocities(n_trajectories=3, n_modes=32, spectrum=0.0,
                                   rng=RngStreamSpec(77), **run)
    stack = kp_integrate(stacked(fields_from(77, 3, 32)), **run)
    assert isinstance(ensemble, ScaledTrajectory)
    for name in ("times", "positions", "velocities", "energy_error"):
        np.testing.assert_array_equal(getattr(ensemble, name), getattr(stack, name))
    assert (ensemble.delta, ensemble.dt_used) == (stack.delta, stack.dt_used)
    times, velocities = ensemble
    assert times is ensemble.times and velocities is ensemble.velocities


def test_msd_exponent_ballistic_is_exact():
    times = np.linspace(0.0, 1.0, 401)
    slopes = np.array([[1.0], [2.0], [-1.5]])
    vels = slopes * times[None, :]
    fit = msd_exponent(times, vels, 0.02, 0.2)
    assert fit.gamma == pytest.approx(2.0, abs=1e-10)
    assert np.all(np.diff(fit.lags) > 0)


def test_msd_exponent_brownian_calibration():
    gen = generator(RngStreamSpec(15))
    n, steps = 64, 400
    dt = 1.0 / steps
    increments = gen.standard_normal((n, steps)) * math.sqrt(dt)
    walks = np.concatenate([np.zeros((n, 1)), np.cumsum(increments, axis=1)], axis=1)
    times = np.linspace(0.0, 1.0, steps + 1)
    fit = msd_exponent(times, walks, 0.012, 0.24)
    assert abs(fit.gamma - 1.0) <= 0.1


@pytest.mark.parametrize("n_samples", [8, 37, 400, 4000])
def test_msd_lags_are_the_unique_rounded_lags(n_samples):
    times = np.linspace(0.0, 1.0, n_samples + 1)
    sample_dt = times[1] - times[0]
    vels = np.random.default_rng(n_samples).standard_normal((2, n_samples + 1))
    for lag_lo, lag_hi in [(0.01, 0.25), (0.012, 0.24), (0.05, 0.06), (0.2, 0.2001)]:
        for n_lags in (2, 3, 10, 25, 60):
            raw = np.logspace(math.log10(lag_lo), math.log10(lag_hi), n_lags)
            steps = np.unique(np.maximum(1, np.round(raw / sample_dt).astype(int)))
            if steps.size < 2:
                # one lag step leaves a single point: no line to fit
                with pytest.raises(ValueError, match="two distinct lag steps"):
                    msd_exponent(times, vels, lag_lo, lag_hi, n_lags)
                continue
            fit = msd_exponent(times, vels, lag_lo, lag_hi, n_lags)
            assert fit.lags.tobytes() == (steps * sample_dt).tobytes(), (lag_lo, lag_hi, n_lags)


@pytest.mark.parametrize("n_lags", [0, 1])
def test_msd_exponent_needs_two_lags(n_lags):
    times = np.linspace(0.0, 1.0, 401)
    vels = np.random.default_rng(3).standard_normal((2, 401))
    with pytest.raises(ValueError, match="n_lags must be >= 2"):
        msd_exponent(times, vels, 0.02, 0.2, n_lags)


def test_msd_exponent_refuses_a_one_point_fit():
    # two samples per unit time: every lag in [T/100, T/4] rounds to one step,
    # which used to give a rank-deficient fit with a RankWarning
    times = np.linspace(0.0, 1.0, 3)
    vels = np.random.default_rng(4).standard_normal((2, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="round to one sample step"):
            msd_exponent(times, vels, 0.01, 0.25)


def test_msd_exponent_window_validation():
    times = np.linspace(0.0, 1.0, 101)
    vels = np.ones((2, 101))
    with pytest.raises(ValueError):
        msd_exponent(times, vels, 0.001, 0.2)   # lag_lo below T/100
    with pytest.raises(ValueError):
        msd_exponent(times, vels, 0.02, 0.5)    # lag_hi above T/4
    ragged = np.concatenate([times[:50], times[50:] + 0.1])
    with pytest.raises(ValueError):
        msd_exponent(ragged, vels, 0.02, 0.2)


def test_msd_exponent_of_a_velocity_that_does_not_move_is_nan():
    # constant v: the MSD is zero at every lag and there is no exponent to fit
    times = np.linspace(0.0, 1.0, 101)
    fit = msd_exponent(times, np.ones((2, 101)), 0.02, 0.2)
    assert math.isnan(fit.gamma)
    assert fit.lags.size >= 2 and not np.any(fit.msd)


def test_gamma_depends_on_delta():
    """The headline effect: same protocol, different scale, different exponent."""
    rng = RngStreamSpec(11)
    gammas = {}
    for delta in (1.0, 0.05):
        dt = min(1e-3 * delta**2, 0.008 / 400)
        times, vels = ensemble_velocities(
            n_trajectories=8, n_modes=256, spectrum=0.0, delta=delta,
            total_time=0.008, dt=dt, rng=rng,
        )
        gammas[delta] = msd_exponent(times, vels, 1e-4, 1e-3).gamma
    assert 1.6 <= gammas[1.0] <= 2.2      # ballistic window
    assert 0.75 <= gammas[0.05] <= 1.25   # diffusive window
