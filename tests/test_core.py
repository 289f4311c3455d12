import math
import random
import sys
import threading

import numpy as np
import pytest

from patchlab import (
    CENTRAL_D2,
    BlackBoxFunction,
    CoarseStepConfig,
    MacroState,
    MicroGrid,
    PatchConfig,
    PdeSpec,
    ProbeSpec,
    RngStreamSpec,
    SdeModel,
    ToothConfig,
    average_weights,
    convergence_order,
    coordinate_variance,
    derivative_blackbox,
    detect_order,
    em_step,
    ensemble_normals,
    ensemble_velocities,
    evolve_fd_buffered,
    generator,
    growth_factor_probe,
    influence_radius,
    kp_integrate,
    lift,
    msd_exponent,
    propagator_matrix,
    replace,
    run_coarse_trajectory,
    seeded_noise_state,
    stable_dt_bound,
    stationary_variance_test,
    step_symbol,
    symbol_stepper,
    synthesize_force_field,
    tooth_average,
)
from patchlab.cli import run_experiment
from patchlab.config import parse_config


def manual_eval(coeffs, center, x):
    return sum(c * (x - center) ** k / math.factorial(k) for k, c in enumerate(coeffs))


def sampled(coeffs, dx=0.25, half_width=1.0):
    """Coefficient rows evaluated on micro offsets ``-half_width..half_width``.

    The buffered FD solver samples its rows this way before stepping, so at
    ``dt = 0`` it returns the polynomials' values on the micro grid.
    """
    tooth = ToothConfig(h=dx, H=2.0 * half_width)
    grid = MicroGrid(dx=dx, dt=0.1 * dx**2)
    samples = evolve_fd_buffered(coeffs, PdeSpec.heat(), 0.0, tooth, grid)
    n = samples.shape[-1]
    return samples, dx * (np.arange(n) - (n - 1) / 2.0)


def test_poly_eval_scalar_oracle():
    samples, xs = sampled([1.0, 2.0, 2.0])
    # 1 + 2x + 2 x^2/2 at x=0 and x=1
    assert xs[4] == 0.0 and xs[-1] == 1.0
    assert samples[4] == 1.0
    assert samples[-1] == pytest.approx(4.0, abs=1e-15)


def test_poly_eval_matches_manual_series():
    rng = np.random.default_rng(7)
    coeffs = rng.normal(size=5)
    samples, xs = sampled(coeffs, dx=0.1, half_width=2.0)
    for x, value in zip(xs, samples):
        assert value == pytest.approx(manual_eval(coeffs, 0.0, x), rel=1e-13, abs=1e-15)


def test_poly_eval_array_shape():
    rows = np.array([[0.0, 1.0], [2.0, -1.0]])
    stack, xs = sampled(rows)
    assert stack.shape == (2, xs.size)
    np.testing.assert_allclose(stack, [xs, 2.0 - xs])
    for row, samples in zip(rows, stack):
        assert sampled(row)[0].tobytes() == samples.tobytes()


def test_average_weights_closed_form():
    h = 0.7
    w = average_weights(4, h)
    np.testing.assert_allclose(
        w, [1.0, 0.0, h**2 / 24.0, 0.0, h**4 / 1920.0], rtol=1e-15
    )


def test_average_weights_rejects_bad_h():
    with pytest.raises(ValueError):
        average_weights(2, 0.0)
    with pytest.raises(ValueError):
        average_weights(2, math.inf)


def test_average_weights_are_read_only():
    w = average_weights(4, 0.3)
    with pytest.raises(ValueError):
        w[0] = 2.0
    assert average_weights(4, 0.3)[0] == 1.0


def test_average_weights_tell_nearby_widths_apart():
    h = 0.3
    near = float(np.nextafter(h, 1.0))
    assert average_weights(4, h).tobytes() != average_weights(4, near).tobytes()
    assert average_weights(4, near)[2] == near**2 / 24.0


@pytest.mark.parametrize("degree, h", [
    (2, 0.0), (2, -0.1), (2, math.inf), (2, math.nan), (-1, 0.1),
])
def test_average_weights_reject_bad_input_on_every_call(degree, h):
    average_weights(2, 0.1)
    for _ in range(2):
        with pytest.raises(ValueError):
            average_weights(degree, h)


def test_average_weights_take_numpy_scalars():
    w = average_weights(4, 0.3)
    for degree, h in [(np.int64(4), 0.3), (4, np.float64(0.3)), (np.int32(4), np.float64(0.3))]:
        other = average_weights(degree, h)
        assert other.dtype == w.dtype and other.tobytes() == w.tobytes()


def test_average_weights_name_the_degree_they_overflow_at():
    # k! (k+1) 2^k passes the largest float at k = 150, h^k at k = 31 for h = 1e10
    w = average_weights(148, 0.1)
    assert w.tobytes() == np.array(
        [0.1**k / (math.factorial(k) * (k + 1) * 2**k) if k % 2 == 0 else 0.0
         for k in range(149)]
    ).tobytes()
    for degree, h in [(150, 0.1), (151, 0.1), (400, 0.1), (40, 1e10)]:
        with pytest.raises(ValueError, match=rf"overflow at degree {degree}, h = {h!r}$"):
            average_weights(degree, h)


def test_poly_average_oracle():
    # 1 + x^2 averaged over [-1/2, 1/2]
    average = average_weights(2, 1.0) @ np.array([1.0, 0.0, 2.0])
    assert average == pytest.approx(13.0 / 12.0, rel=1e-15)


def test_poly_average_matches_dense_quadrature():
    # second route: brute-force numerical average over the tooth
    rng = np.random.default_rng(11)
    for _ in range(5):
        coeffs = rng.normal(size=rng.integers(1, 6))
        center = float(rng.uniform(-1, 1))
        h = float(rng.uniform(0.1, 2.0))
        xs = np.linspace(center - h / 2, center + h / 2, 20001)
        brute = np.trapezoid(manual_eval(coeffs, center, xs), xs) / h
        average = average_weights(coeffs.size - 1, h) @ coeffs
        assert average == pytest.approx(brute, rel=1e-9, abs=1e-12)


def test_macro_state_basics():
    u = MacroState(values=[1.0, 2.0, 3.0, 4.0], dx=0.5, time=1.5)
    assert u.n_points == 4
    np.testing.assert_allclose(u.grid(), [0.0, 0.5, 1.0, 1.5])
    assert u.time == 1.5
    with pytest.raises(ValueError):
        u.values[0] = 9.0


def test_macro_state_copies_its_input():
    a = np.array([1.0, 2.0, 3.0])
    u = MacroState(values=a, dx=1.0)
    a[0] = 9.0
    assert u.values.tolist() == [1.0, 2.0, 3.0]
    assert a.flags.writeable


def test_macro_state_validation():
    with pytest.raises(ValueError):
        MacroState(values=[1.0, 2.0], dx=0.1)
    with pytest.raises(ValueError):
        MacroState(values=[1.0, 2.0, 3.0], dx=-1.0)
    # non-finite values are deliberately allowed: a stability probe must be
    # able to hold a diverged state
    u = MacroState(values=[1.0, math.inf, 3.0], dx=1.0)
    assert not np.isfinite(u.values).all()


def test_pde_spec_factories():
    heat = PdeSpec.heat(0.7)
    assert heat.terms == ((2, 0.7),)
    adv = PdeSpec.advection(2.0)
    assert adv.terms == ((1, -2.0),)
    bih = PdeSpec.biharmonic(0.5)
    assert bih.terms == ((4, -0.5),)
    assert bih.max_order == 4


def test_pde_spec_drops_zero_terms_and_sorts():
    spec = PdeSpec({4: 1.0, 2: 0.0, 1: -3.0})
    assert spec.terms == ((1, -3.0), (4, 1.0))
    assert PdeSpec({}).max_order == 0
    with pytest.raises(ValueError):
        PdeSpec({0: 1.0})
    with pytest.raises(ValueError):
        PdeSpec({2: math.nan})


def test_pde_spec_is_built_from_pairs_or_a_mapping_and_replaced_like_any_value():
    pairs = PdeSpec(((4, 1.0), (2, 0.0), (1, -3)))
    assert pairs == PdeSpec({1: -3.0, 4: 1.0}) == PdeSpec(terms={4: 1.0, 1: -3.0})
    assert pairs.terms == ((1, -3.0), (4, 1.0))
    assert replace(PdeSpec.heat(), terms=((2, 2.0),)) == PdeSpec.heat(2.0)
    with pytest.raises(ValueError, match="derivative orders must be >= 1"):
        replace(PdeSpec.heat(), terms=((0, 1.0),))
    with pytest.raises(ValueError, match="coefficients must be finite"):
        PdeSpec(((2, math.inf),))
    with pytest.raises(ValueError, match="derivative orders must be distinct"):
        PdeSpec(((2, 1.0), (4, 1.0), (2, 3.0)))
    with pytest.raises(ValueError, match="derivative orders must be distinct"):
        PdeSpec({"2": 1.0, 2: 3.0})


def test_tooth_config():
    t = ToothConfig(h=0.1, H=0.5)
    assert t.buffer_width == pytest.approx(0.2)
    assert math.isinf(ToothConfig(h=0.1).H)
    with pytest.raises(ValueError):
        ToothConfig(h=0.5, H=0.1)
    with pytest.raises(ValueError):
        ToothConfig(h=0.1, H=math.nan)
    with pytest.raises(ValueError):
        ToothConfig(h=0.0)


def test_rng_stream_spec_validation():
    spec = RngStreamSpec(master_seed=5, stream_id=2, step_id=3)
    assert spec.at(step_id=9) == RngStreamSpec(5, 2, 9)
    assert spec.at(stream_id=1) == RngStreamSpec(5, 1, 3)
    assert list(spec.steps(3)) == [RngStreamSpec(5, 2, step) for step in (3, 4, 5)]
    assert list(spec.steps(0)) == []
    with pytest.raises(ValueError):
        RngStreamSpec(master_seed=-1)
    with pytest.raises(ValueError):
        RngStreamSpec(master_seed=2**64)
    with pytest.raises(ValueError):
        RngStreamSpec(master_seed=0, stream_id=-1)


def test_identical_stream_triples_are_bit_identical():
    a = generator(RngStreamSpec(99, 4, 7)).standard_normal(256)
    b = generator(RngStreamSpec(99, 4, 7)).standard_normal(256)
    assert a.tobytes() == b.tobytes()


def test_distinct_stream_triples_differ():
    base = RngStreamSpec(99, 4, 7)
    ref = generator(base).standard_normal(64)
    for other in (base.at(stream_id=5), base.at(step_id=8), RngStreamSpec(100, 4, 7)):
        assert not np.array_equal(ref, generator(other).standard_normal(64))


def test_stream_consumption_order_is_irrelevant():
    # reading stream B first must not change what stream A returns
    a1 = generator(RngStreamSpec(1, 0, 0)).standard_normal(32)
    _ = generator(RngStreamSpec(1, 1, 0)).standard_normal(32)
    a2 = generator(RngStreamSpec(1, 0, 0)).standard_normal(32)
    assert a1.tobytes() == a2.tobytes()


def test_generator_normal_moments():
    draws = generator(RngStreamSpec(2024)).standard_normal(200_000)
    assert abs(draws.mean()) < 0.01
    assert abs(draws.std() - 1.0) < 0.01


def test_ensemble_normals_layout_is_member_major():
    spec = RngStreamSpec(42, 0, 3)
    block = ensemble_normals(spec, 3, 5)
    flat = generator(spec).standard_normal(15)
    # row j is the contiguous slice of the single underlying stream
    np.testing.assert_array_equal(block.ravel(), flat)
    np.testing.assert_array_equal(block[1], flat[5:10])


def test_ensemble_normals_validation():
    with pytest.raises(ValueError):
        ensemble_normals(RngStreamSpec(0), 0, 5)
    with pytest.raises(ValueError):
        ensemble_normals(RngStreamSpec(0), 2, -1)
    assert ensemble_normals(RngStreamSpec(0), 2, 0).shape == (2, 0)


def test_generator_is_fresh_per_call():
    spec = RngStreamSpec(7)
    g1 = generator(spec)
    g1.standard_normal(10)  # advance one instance
    g2 = generator(spec)
    # a fresh generator starts at the beginning of the stream
    assert g2.standard_normal(3).tobytes() == generator(spec).standard_normal(3).tobytes()


def _reference_normals(spec, n_members, n_draws):
    return generator(spec).standard_normal((n_members, n_draws))


def _random_triples(rnd, count):
    seeds = (0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1)
    streams = (0, 1, 2**32 - 1, 2**32, 2**64, 2**70 + 3)
    steps = (0, 1, 1023, 1024, 1025, 2047, 2048, 2**32 - 1, 2**32, 2**32 + 1023, 2**64 + 1024)
    for _ in range(count):
        seed = rnd.choice(seeds) if rnd.random() < 0.3 else rnd.randrange(2**64)
        stream = rnd.choice(streams) if rnd.random() < 0.3 else rnd.randrange(2**rnd.choice((8, 33, 65)))
        step = rnd.choice(steps) if rnd.random() < 0.4 else rnd.randrange(2**rnd.choice((11, 20, 40)))
        yield RngStreamSpec(seed, stream, step)


def test_ensemble_normals_has_the_bits_of_a_fresh_generator():
    rnd = random.Random(20260)
    specs = list(_random_triples(rnd, 1200))
    assert any(s.master_seed >= 2**32 for s in specs)
    assert any(s.stream_id >= 2**32 for s in specs)
    assert any(s.step_id >= 2**32 for s in specs)
    for spec in specs:
        n, k = rnd.randint(1, 4), rnd.randint(0, 5)
        assert ensemble_normals(spec, n, k).tobytes() == _reference_normals(spec, n, k).tobytes(), spec


def test_ensemble_normals_at_key_block_edges_in_any_order():
    specs = [RngStreamSpec(seed, stream, step)
             for seed in (3, 2**40 + 7) for stream in (0, 2**33)
             for step in (0, 1, 1022, 1023, 1024, 1025, 2047, 2048,
                          2**32 - 1024, 2**32 - 1, 2**32, 2**32 + 1)]
    want = {spec: _reference_normals(spec, 3, 7).tobytes() for spec in specs}
    order = specs + specs[::-1] + random.Random(5).sample(specs, len(specs))
    for spec in order:  # forwards, backwards and shuffled, across key blocks
        assert ensemble_normals(spec, 3, 7).tobytes() == want[spec], spec
    # an odd draw count leaves a half-used Philox word; the next stream starts clean
    odd, even = RngStreamSpec(9, 0, 5), RngStreamSpec(9, 0, 6)
    assert ensemble_normals(odd, 1, 3).tobytes() == _reference_normals(odd, 1, 3).tobytes()
    assert ensemble_normals(even, 2, 2).tobytes() == _reference_normals(even, 2, 2).tobytes()


def test_ensemble_normals_from_interleaved_threads():
    specs = list(_random_triples(random.Random(77), 120))
    want = [_reference_normals(spec, 4, 9).tobytes() for spec in specs]
    errors = []

    def draw(offset):
        for i in range(offset, offset + 3 * len(specs)):
            j = i % len(specs)
            if ensemble_normals(specs[j], 4, 9).tobytes() != want[j]:
                errors.append(specs[j])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=draw, args=(offset,)) for offset in (0, 37, 71)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


# ------------------------------------------ one check per kind of input

_COARSE = CoarseStepConfig(10, 10, 1e-3, 0.1)
_FIELD = synthesize_force_field(8, 0.0, RngStreamSpec(0))
_KP = parse_config(
    "[experiment]\nname = kp\n[parameters]\ndeltas = 1.0\nn_trajectories = 2\nn_modes = 8\n"
    "calibrate = false\n"
)


def _kp_run(**changes):
    return run_experiment(replace(_KP, parameters={**_KP.parameters, **changes}))


def _never_built(n):
    raise AssertionError("a problem was built before final_time was checked")


_FD_TOOTH = ToothConfig(h=0.1, H=1.0)
_FD_GRID = MicroGrid(dx=0.0125, dt=1e-5)
_NOISE = seeded_noise_state(8, 0.1, RngStreamSpec(0))
_PATCH = PatchConfig(CENTRAL_D2, ToothConfig(0.01), 1e-5, 1e-3)
_TIMES = np.linspace(0.0, 1.0, 401)


# (call with the value under test, a bad value, the exact message)
BAD_INPUTS = {
    "MacroState-dx": (lambda v: MacroState(np.zeros(3), v), 0.0,
                      "MacroState dx must be positive and finite"),
    "ToothConfig-h": (lambda v: ToothConfig(v), -1.0, "tooth width h must be positive and finite"),
    "average_weights-degree": (lambda v: average_weights(v, 0.1), -1, "degree must be >= 0"),
    "average_weights-h": (lambda v: average_weights(2, v), 0.0,
                          "tooth width h must be positive and finite"),
    "MicroGrid-dx": (lambda v: MicroGrid(v, 1e-5), 0.0, "micro dx must be positive and finite"),
    "MicroGrid-dt": (lambda v: MicroGrid(0.01, v), -1e-5, "micro dt must be positive and finite"),
    "propagator_matrix-degree": (lambda v: propagator_matrix(PdeSpec.heat(), v, 0.1), -1,
                                 "degree must be >= 0"),
    "stable_dt_bound-dx": (lambda v: stable_dt_bound(PdeSpec.heat(), v), 0.0,
                           "dx must be positive and finite"),
    "tooth_average-h": (lambda v: tooth_average(np.zeros(5), 0.1, v), 0.0,
                        "tooth width h must be positive and finite"),
    "tooth_average-dx": (lambda v: tooth_average(np.zeros(5), v, 0.1), math.nan,
                         "micro dx must be positive and finite"),
    "tooth_average-samples": (lambda v: tooth_average(v, 0.01, 0.02), np.zeros((3, 0)),
                              "tooth_average needs at least one sample along a last axis"),
    "PatchConfig-dt_micro": (lambda v: PatchConfig(CENTRAL_D2, ToothConfig(0.1), v, 0.1), 0.0,
                             "dt_micro must be positive and finite"),
    "PatchConfig-dt_macro": (lambda v: PatchConfig(CENTRAL_D2, ToothConfig(0.1), 1e-3, v), 0.0,
                             "dt_macro must be positive and finite"),
    "CoarseStepConfig-ensemble_size": (lambda v: CoarseStepConfig(v, 10, 1e-3, 0.1), 0,
                                       "ensemble_size must be >= 1"),
    "CoarseStepConfig-micro_steps": (lambda v: CoarseStepConfig(10, v, 1e-3, 0.1), 0,
                                     "micro_steps must be >= 1"),
    "CoarseStepConfig-dt_micro": (lambda v: CoarseStepConfig(10, 10, v, 0.1), 0.0,
                                  "dt_micro must be positive and finite"),
    "CoarseStepConfig-dt_macro": (lambda v: CoarseStepConfig(10, 10, 1e-3, v), -0.1,
                                  "dt_macro must be positive and finite"),
    "run_coarse_trajectory-n_steps": (
        lambda v: run_coarse_trajectory(0.0, SdeModel.pure_noise(), _COARSE, v, RngStreamSpec(0)),
        -1, "n_steps must be >= 0"),
    "BlackBoxFunction-arity": (lambda v: BlackBoxFunction(sum, v), 0, "arity must be >= 1"),
    "BlackBoxFunction-first_index": (lambda v: BlackBoxFunction(sum, 3, first_index=v), -1,
                                     "first_index must be >= 0"),
    "ProbeSpec-n_base": (lambda v: ProbeSpec(n_base=v), 0, "n_base must be >= 1"),
    "ProbeSpec-n_perturb": (lambda v: ProbeSpec(n_perturb=v), 1, "n_perturb must be >= 2"),
    "ProbeSpec-halfwidth": (lambda v: ProbeSpec(halfwidth=v), 0.0,
                            "halfwidth must be positive and finite"),
    "ProbeSpec-halfwidth-box": (lambda v: ProbeSpec(halfwidth=v), 1e308,
                                "halfwidth 1e+308 is too large: the box width overflows"),
    "derivative_blackbox-d_max": (lambda v: derivative_blackbox(PdeSpec.heat(), v, 1e-3, 0.1), -1,
                                  "d_max must be >= 0"),
    "derivative_blackbox-dt": (lambda v: derivative_blackbox(PdeSpec.heat(), 2, v, 0.1), 0.0,
                               "dt must be positive and finite"),
    "synthesize_force_field-n_modes": (lambda v: synthesize_force_field(v, 0.0, RngStreamSpec(0)),
                                       0, "n_modes must be >= 1"),
    # finite, but the amplitude 8**1e308 is not
    "synthesize_force_field-spectrum": (
        lambda v: synthesize_force_field(8, v, RngStreamSpec(0)), -1e308,
        "spectrum -1e+308 overflows the amplitudes m**-spectrum"),
    "kp_integrate-delta": (lambda v: kp_integrate(_FIELD, v, 0.008, 1e-4), 0.0,
                           "delta must be positive and finite"),
    "kp_integrate-total_time": (lambda v: kp_integrate(_FIELD, 1.0, v, 1e-4), 0.0,
                                "total_time must be positive and finite"),
    "kp_integrate-dt": (lambda v: kp_integrate(_FIELD, 1.0, 0.008, v), -1e-4,
                        "dt must be positive and finite"),
    "kp_integrate-n_samples": (lambda v: kp_integrate(_FIELD, 1.0, 0.008, 1e-4, n_samples=v), 0,
                               "n_samples must be >= 1"),
    "ensemble_velocities-n_trajectories": (
        lambda v: ensemble_velocities(v, 8, 0.0, 1.0, 0.008, 1e-4, RngStreamSpec(0)), 0,
        "n_trajectories must be >= 1"),
    "kp_runner-n_samples": (lambda v: _kp_run(n_samples=v), 0, "kp: n_samples must be >= 1"),
    "kp_runner-delta": (lambda v: _kp_run(deltas=(1.0, v)), -0.05,
                        "kp: delta must be positive and finite"),
    "kp_runner-total_time": (lambda v: _kp_run(total_time=v), 0.0,
                             "kp: total_time must be positive and finite"),
    "kp_runner-dt_scale": (lambda v: _kp_run(dt_scale=v), -1e-3,
                           "kp: dt_scale must be positive and finite"),
    "convergence_order-final_time": (
        lambda v: convergence_order(_never_built, (8, 16), v, None), 0.0,
        "final_time must be positive and finite"),
    "symbol_stepper-dt_macro": (lambda v: symbol_stepper(np.ones(4), v, 1.0), 0.0,
                                "dt_macro must be positive and finite"),
    "symbol_stepper-final_time": (lambda v: symbol_stepper(np.ones(4), 0.1, v), -1.0,
                                  "final_time must be positive and finite"),
    "RngStreamSpec-stream_id": (lambda v: RngStreamSpec(0, v), -1, "stream_id must be >= 0"),
    "RngStreamSpec-step_id": (lambda v: RngStreamSpec(0, 0, v), -1, "step_id must be >= 0"),
    # a micro step may be 0 but not NaN, which would leave the state unevolved
    "em_step-dt": (lambda v: em_step(0.0, SdeModel.pure_noise(), v, 0.0), math.nan,
                   "dt must be >= 0"),
    "influence_radius-dt": (lambda v: influence_radius(PdeSpec.heat(), v), math.nan,
                            "dt must be >= 0"),
    "evolve_fd_buffered-dt": (
        lambda v: evolve_fd_buffered([1.0, 0.0, 1.0], PdeSpec.heat(), v, _FD_TOOTH, _FD_GRID),
        math.nan, "dt must be >= 0"),
    "evolve_fd_buffered-coeffs": (
        lambda v: evolve_fd_buffered(v, PdeSpec.heat(), 1e-4, _FD_TOOTH, _FD_GRID), 1.0,
        "coefficient rows need at least one coefficient"),
    "PdeSpec-order": (lambda v: PdeSpec({v: 1.0}), 2.5, "derivative orders must be integers"),
    # a seed must be a whole number in [0, 2**64)
    "RngStreamSpec-master_seed": (lambda v: RngStreamSpec(v), 2.7,
                                  "master_seed must be an unsigned 64-bit integer"),
    "ProbeSpec-seed": (lambda v: ProbeSpec(seed=v), -1, "seed must be an unsigned 64-bit integer"),
    # counts and indices that a bare int() used to truncate
    "RngStreamSpec.steps-n": (lambda v: list(RngStreamSpec(0).steps(v)), -1, "n must be >= 0"),
    "ensemble_normals-n_members": (lambda v: ensemble_normals(RngStreamSpec(0), v, 3), 0,
                                   "n_members must be >= 1"),
    "ensemble_normals-n_draws": (lambda v: ensemble_normals(RngStreamSpec(0), 2, v), -1,
                                 "n_draws must be >= 0"),
    "seeded_noise_state-n_points": (lambda v: seeded_noise_state(v, 0.1, RngStreamSpec(0)), 2,
                                    "n_points must be >= 3"),
    "growth_factor_probe-n_steps": (lambda v: growth_factor_probe(lambda u: u, _NOISE, v), 3,
                                    "probe_steps must be >= 4"),
    "convergence_order-grid_sizes": (lambda v: convergence_order(_never_built, (8, v), 1.0, None),
                                     2, "grids must be >= 3"),
    "msd_exponent-n_lags": (lambda v: msd_exponent(_TIMES, np.zeros((2, 401)), 0.02, 0.2, v), 1,
                            "n_lags must be >= 2"),
    "BlackBoxFunction-evaluation_budget": (
        lambda v: BlackBoxFunction(sum, 3, evaluation_budget=v), -1,
        "evaluation_budget must be >= 0"),
    "coordinate_variance-index": (lambda v: coordinate_variance(BlackBoxFunction(sum, 3), v), 0,
                                  "index must be >= 1"),
    "detect_order-stop_after": (lambda v: detect_order(BlackBoxFunction(sum, 3), stop_after=v), 0,
                                "stop_after must be >= 1"),
    "lift-j": (lambda v: lift(_NOISE, v, CENTRAL_D2, 0.01), -1, "j must be >= 0"),
    "step_symbol-n_points": (lambda v: step_symbol(PdeSpec.heat(), _PATCH, v, 0.1), 2,
                             "n_points must be >= 3"),
    # checks that no other run or test reaches: three config values a user can
    # set, and three library inputs
    "PatchConfig-alpha": (lambda v: PatchConfig(CENTRAL_D2, ToothConfig(0.1), 1e-3, 0.1, v), 1.0,
                          "alpha must lie in [0, 1)"),
    "kp_runner-spectrum": (lambda v: _kp_run(spectrum=v), math.inf,
                           "kp: spectrum exponent must be finite"),
    "kp_runner-fit_lags": (lambda v: _kp_run(fit_lag_lo=v, fit_lag_hi=v), 5e-4,
                           "kp: fit_lag_lo 0.0005 and fit_lag_hi 0.0005 must satisfy "
                           "total_time/100 <= fit_lag_lo < fit_lag_hi <= total_time/4 "
                           "at total_time 0.008"),
    "msd_exponent-times": (lambda v: msd_exponent(_TIMES[:v], np.zeros((2, v)), 0.02, 0.2), 2,
                           "times must be a 1-d array of at least 3 samples"),
    "msd_exponent-velocities": (lambda v: msd_exponent(_TIMES, np.zeros((2, v)), 0.02, 0.2), 400,
                                "velocity rows must match the time grid"),
    "stationary_variance_test-values": (
        lambda v: stationary_variance_test(v, 1.0, 0.1), np.zeros((2, 2000)),
        "trajectory must be 1-d"),
}
_STEPS_AND_WIDTHS = {
    key: (call, message) for key, (call, _, message) in BAD_INPUTS.items()
    if "positive" in message
}


# a count that is refused as "<name> must be >= <minimum>" (a micro step dt
# is no count) is refused as "<name> must be an integer" unless it is whole
_COUNTS = {
    key: (call, message.split(" >= ")[0] + " an integer")
    for key, (call, _, message) in BAD_INPUTS.items()
    if " must be >= " in message and not message.startswith("dt ")
}
_SEEDS = {
    key: (call, message) for key, (call, _, message) in BAD_INPUTS.items()
    if "64-bit" in message
}


@pytest.mark.parametrize("call, bad, message", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_a_bad_step_width_time_or_count_is_refused_in_one_wording(call, bad, message):
    with pytest.raises(ValueError) as err:
        call(bad)
    assert str(err.value) == message


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize(
    "call, message", _STEPS_AND_WIDTHS.values(), ids=_STEPS_AND_WIDTHS.keys()
)
def test_a_step_width_or_time_must_be_finite(call, message, bad):
    with pytest.raises(ValueError) as err:
        call(bad)
    assert str(err.value) == message


@pytest.mark.parametrize("bad", [2.5, math.inf, math.nan, "ten"], ids=["2.5", "inf", "nan", "text"])
@pytest.mark.parametrize("call, message", _COUNTS.values(), ids=_COUNTS.keys())
def test_a_count_must_be_whole_not_truncated(call, message, bad):
    with pytest.raises(ValueError) as err:
        call(bad)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "bad", [2.7, -1, 2**64, math.inf, math.nan, "abc", "7.0"],
    ids=["2.7", "-1", "2**64", "inf", "nan", "text", "decimal-point-text"],
)
@pytest.mark.parametrize("call, message", _SEEDS.values(), ids=_SEEDS.keys())
def test_a_seed_must_be_a_whole_unsigned_64_bit_number(call, message, bad):
    with pytest.raises(ValueError) as err:
        call(bad)
    assert str(err.value) == message


def test_whole_floats_numpy_ints_and_decimal_text_are_still_accepted():
    cfg = CoarseStepConfig(np.int64(10), 10.0, 1e-3, 0.1)
    assert (cfg.ensemble_size, cfg.micro_steps) == (10, 10)
    assert type(cfg.ensemble_size) is int and type(cfg.micro_steps) is int
    spec = RngStreamSpec(np.uint64(2**64 - 1), 2.0, np.int64(3))
    assert spec == RngStreamSpec(2**64 - 1, 2, 3)
    assert type(spec.master_seed) is int
    assert RngStreamSpec(7.0) == RngStreamSpec(" 7 ") == RngStreamSpec(7)
    assert ProbeSpec(seed=np.int32(5)).seed == 5
    assert PdeSpec({2.0: 1.0, np.int64(4): -1.0}).terms == ((2, 1.0), (4, -1.0))
    row = lift(_NOISE, 1.0, CENTRAL_D2, 0.01)
    assert row.tobytes() == lift(_NOISE, 1, CENTRAL_D2, 0.01).tobytes()
    assert ensemble_normals(RngStreamSpec(0), np.int64(2), 3.0).shape == (2, 3)
