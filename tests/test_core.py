import math
import random
import sys
import threading

import numpy as np
import pytest

from patchlab import (
    MacroState,
    PdeSpec,
    RngStreamSpec,
    TaylorPolynomial,
    ToothConfig,
    average_weights,
    ensemble_normals,
    generator,
    normal_stream,
    poly_average,
    poly_eval,
)


def manual_eval(coeffs, center, x):
    return sum(c * (x - center) ** k / math.factorial(k) for k, c in enumerate(coeffs))


def test_poly_eval_scalar_oracle():
    p = TaylorPolynomial(center=0.0, coeffs=(1.0, 2.0, 2.0))
    # 1 + 2x + 2 x^2/2 at x=1
    assert poly_eval(p, 1.0) == pytest.approx(4.0, abs=1e-15)


def test_poly_eval_center_shift():
    p = TaylorPolynomial(center=3.0, coeffs=(5.0, -1.0))
    assert poly_eval(p, 3.0) == 5.0
    assert poly_eval(p, 4.0) == 4.0


def test_poly_eval_matches_manual_series():
    rng = np.random.default_rng(7)
    coeffs = tuple(rng.normal(size=5))
    p = TaylorPolynomial(center=0.3, coeffs=coeffs)
    for x in rng.uniform(-2, 2, size=10):
        assert poly_eval(p, x) == pytest.approx(manual_eval(coeffs, 0.3, x), rel=1e-13)


def test_poly_eval_array_shape():
    p = TaylorPolynomial(center=0.0, coeffs=(0.0, 1.0))
    xs = np.array([[0.0, 1.0], [2.0, 3.0]])
    out = poly_eval(p, xs)
    assert out.shape == (2, 2)
    np.testing.assert_allclose(out, xs)


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


def test_poly_average_oracle():
    p = TaylorPolynomial(center=0.0, coeffs=(1.0, 0.0, 2.0))
    assert poly_average(p, 1.0) == pytest.approx(13.0 / 12.0, rel=1e-15)


def test_poly_average_matches_dense_quadrature():
    # second route: brute-force numerical average over the tooth
    rng = np.random.default_rng(11)
    for _ in range(5):
        coeffs = tuple(rng.normal(size=rng.integers(1, 6)))
        center = float(rng.uniform(-1, 1))
        h = float(rng.uniform(0.1, 2.0))
        p = TaylorPolynomial(center=center, coeffs=coeffs)
        xs = np.linspace(center - h / 2, center + h / 2, 20001)
        brute = np.trapezoid(poly_eval(p, xs), xs) / h
        assert poly_average(p, h) == pytest.approx(brute, rel=1e-9, abs=1e-12)


def test_taylor_polynomial_validation():
    with pytest.raises(ValueError):
        TaylorPolynomial(center=0.0, coeffs=())
    with pytest.raises(ValueError):
        TaylorPolynomial(center=0.0, coeffs=(1.0, math.nan))
    with pytest.raises(ValueError):
        TaylorPolynomial(center=math.inf, coeffs=(1.0,))
    assert TaylorPolynomial(center=0, coeffs=(1, 2)).degree == 1


def test_macro_state_basics():
    u = MacroState(values=[1.0, 2.0, 3.0, 4.0], dx=0.5, time=1.5)
    assert u.n_points == 4
    np.testing.assert_allclose(u.grid(), [0.0, 0.5, 1.0, 1.5])
    assert u.time == 1.5
    with pytest.raises(ValueError):
        u.values[0] = 9.0


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


def test_tooth_config():
    t = ToothConfig(h=0.1, H=0.5)
    assert t.buffer_width == pytest.approx(0.2)
    assert math.isinf(ToothConfig(h=0.1).H)
    with pytest.raises(ValueError):
        ToothConfig(h=0.5, H=0.1)
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
    a = normal_stream(RngStreamSpec(99, 4, 7), 256)
    b = normal_stream(RngStreamSpec(99, 4, 7), 256)
    assert a.tobytes() == b.tobytes()


def test_distinct_stream_triples_differ():
    base = RngStreamSpec(99, 4, 7)
    ref = normal_stream(base, 64)
    for other in (base.at(stream_id=5), base.at(step_id=8), RngStreamSpec(100, 4, 7)):
        assert not np.array_equal(ref, normal_stream(other, 64))


def test_stream_consumption_order_is_irrelevant():
    # reading stream B first must not change what stream A returns
    a1 = normal_stream(RngStreamSpec(1, 0, 0), 32)
    _ = normal_stream(RngStreamSpec(1, 1, 0), 32)
    a2 = normal_stream(RngStreamSpec(1, 0, 0), 32)
    assert a1.tobytes() == a2.tobytes()


def test_normal_stream_moments():
    draws = normal_stream(RngStreamSpec(2024), 200_000)
    assert abs(draws.mean()) < 0.01
    assert abs(draws.std() - 1.0) < 0.01


def test_ensemble_normals_layout_is_member_major():
    spec = RngStreamSpec(42, 0, 3)
    block = ensemble_normals(spec, 3, 5)
    flat = normal_stream(spec, 15)
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
