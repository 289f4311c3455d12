"""Variance-based order detection, including its designed failure mode."""

import numpy as np
import pytest

from patchlab import (
    BlackBoxFunction,
    BudgetExhaustedError,
    PdeSpec,
    ProbeSpec,
    coordinate_variance,
    derivative_blackbox,
    detect_order,
    propagator_matrix,
    restrict,
)


def test_blackbox_counts_and_validates():
    box = BlackBoxFunction(evaluator=lambda p: float(p.sum()), arity=3)
    assert box(np.array([1.0, 2.0, 3.0])) == 6.0
    assert box.calls_used == 1
    for wrong in (np.zeros(4), np.zeros((1, 3)), [1.0, 2.0]):
        with pytest.raises(ValueError):
            box(wrong)
    assert box.calls_used == 1
    with pytest.raises(ValueError):
        BlackBoxFunction(evaluator=lambda p: 0.0, arity=0)


def test_blackbox_hands_the_evaluator_a_float64_array():
    seen = []
    box = BlackBoxFunction(evaluator=lambda p: seen.append(p) or 0.5, arity=3)
    point = np.array([1.0, 2.0, 3.0])
    for given in (point, [1, 2, 3], np.array([1, 2, 3]), point.astype(np.float32)):
        assert box(given) == 0.5
    assert seen[0] is point
    for p in seen:
        assert type(p) is np.ndarray and p.dtype == np.float64
        assert p.tolist() == [1.0, 2.0, 3.0]
    assert box.calls_used == 4


def test_blackbox_budget_exhaustion():
    box = BlackBoxFunction(evaluator=lambda p: 0.0, arity=2, evaluation_budget=2)
    box(np.zeros(2))
    box(np.zeros(2))
    with pytest.raises(BudgetExhaustedError) as err:
        box(np.zeros(2))
    assert str(err.value) == "evaluation budget of 2 exhausted"
    assert box.calls_used == 2


def test_coordinate_variance_linear_oracle():
    # f = x1 + 3 x2 on [-1,1]^2: sweeping x2 gives 9*Var(U(-1,1)) = 3
    box = BlackBoxFunction(evaluator=lambda p: p[0] + 3.0 * p[1], arity=2)
    v2 = coordinate_variance(box, 2, ProbeSpec(seed=0))
    assert v2 == pytest.approx(3.0, rel=0.1)
    v1 = coordinate_variance(box, 1, ProbeSpec(seed=0))
    assert v1 == pytest.approx(1.0 / 3.0, rel=0.1)


def test_coordinate_variance_independent_coordinate_is_zero():
    box = BlackBoxFunction(evaluator=lambda p: p[0] ** 2, arity=2)
    assert coordinate_variance(box, 2, ProbeSpec(seed=0)) < 1e-30


def test_coordinate_variance_is_seeded():
    box = BlackBoxFunction(evaluator=lambda p: p[0] * p[1], arity=2)
    a = coordinate_variance(box, 1, ProbeSpec(seed=7))
    b = coordinate_variance(box, 1, ProbeSpec(seed=7))
    c = coordinate_variance(box, 1, ProbeSpec(seed=8))
    assert a == b
    assert a != c


def test_coordinate_variance_label_bounds():
    box = BlackBoxFunction(evaluator=lambda p: 0.0, arity=2)  # labels 1..2
    with pytest.raises(ValueError):
        coordinate_variance(box, 0, ProbeSpec())
    with pytest.raises(ValueError):
        coordinate_variance(box, 3, ProbeSpec())


def test_detect_order_flags_the_right_coordinate():
    box = BlackBoxFunction(evaluator=lambda p: 5.0 * p[1], arity=3)
    report = detect_order(box, ProbeSpec(seed=0))
    assert report.indices == (1, 2, 3)
    assert report.dependent == (False, True, False)
    assert report.detected_order == 2
    assert not report.stopped_early
    assert report.budget_used == box.calls_used


def test_stop_rule_misses_distant_dependency():
    # f(x_1, x_100): the inductive stop rule gives up after 5 quiet coordinates
    def f(p):
        return p[0] + p[99]

    fooled = detect_order(BlackBoxFunction(f, arity=100), ProbeSpec(seed=0), stop_after=5)
    assert fooled.stopped_early
    assert fooled.detected_order == 1
    assert fooled.indices == (1, 2, 3, 4, 5, 6)

    patient = detect_order(BlackBoxFunction(f, arity=100), ProbeSpec(seed=0))
    assert not patient.stopped_early
    assert patient.detected_order == 100


def test_budget_exhaustion_yields_partial_report():
    per_coord = 8 * 1024
    box = BlackBoxFunction(lambda p: p[0] + p[2], arity=3,
                           evaluation_budget=per_coord + 10)
    report = detect_order(box, ProbeSpec(seed=0))
    assert report.budget_exhausted
    assert report.indices == (1,)          # only the first coordinate finished
    assert report.detected_order == 1
    assert report.budget_used <= per_coord + 10


def test_detect_order_validation():
    box = BlackBoxFunction(lambda p: 0.0, arity=1)
    with pytest.raises(ValueError):
        detect_order(box, ProbeSpec(), stop_after=0)
    with pytest.raises(ValueError):
        ProbeSpec(n_perturb=1)


# ------------------------------------------------- derivative black boxes


def box_response(pde, d_max, dt, h):
    """Probe the linear response row by evaluating on unit vectors."""
    box = derivative_blackbox(pde, d_max=d_max, dt=dt, h=h)
    out = np.empty(d_max + 1)
    for k in range(d_max + 1):
        e = np.zeros(d_max + 1)
        e[k] = 1.0
        out[k] = box(e)
    return out


def test_overflowing_weights_are_refused_before_the_propagator_is_built(monkeypatch):
    import patchlab.order_detect as order_detect

    def no_series(*args, **kwargs):
        raise AssertionError("the propagator was built before the weights were checked")

    # the weights overflow from degree 150 on, while the propagator's series on a
    # (d_max + 1)**2 matrix runs for minutes at a d_max in the thousands
    monkeypatch.setattr(order_detect, "propagator_matrix", no_series)
    with pytest.raises(ValueError, match="average weights overflow at degree 150, h = 0.1"):
        derivative_blackbox(PdeSpec.heat(), d_max=150, dt=1e-3, h=0.1)


def test_heat_blackbox_response():
    resp = box_response(PdeSpec.heat(1.0), d_max=2, dt=1e-3, h=0.1)
    np.testing.assert_allclose(resp, [0.0, 0.0, 1.0], atol=1e-12)


def test_advection_blackbox_response():
    c, dt = 1.0, 1e-3
    resp = box_response(PdeSpec.advection(c), d_max=2, dt=dt, h=0.1)
    np.testing.assert_allclose(resp, [0.0, -c, c**2 * dt / 2.0], atol=1e-12)


def test_biharmonic_blackbox_responses():
    resp4 = box_response(PdeSpec.biharmonic(1.0), d_max=4, dt=1e-3, h=0.1)
    np.testing.assert_allclose(resp4, [0.0, 0.0, 0.0, 0.0, -1.0], atol=1e-12)
    # a quadratic window cannot express D_4 at all
    resp2 = box_response(PdeSpec.biharmonic(1.0), d_max=2, dt=1e-3, h=0.1)
    np.testing.assert_allclose(resp2, [0.0, 0.0, 0.0], atol=1e-15)


def test_blackbox_agrees_with_literal_lift_evolve_average():
    """Dual route: the black box must equal the explicit pipeline."""
    pde = PdeSpec({1: -0.7, 2: 0.4})
    dt, h, d_max = 2e-3, 0.15, 3
    box = derivative_blackbox(pde, d_max=d_max, dt=dt, h=h)
    rng = np.random.default_rng(21)
    for _ in range(5):
        coeffs = rng.normal(size=d_max + 1)
        before = restrict(coeffs, h)
        after = restrict(propagator_matrix(pde, d_max, dt) @ coeffs, h)
        assert box(coeffs) == pytest.approx((after - before) / dt, rel=1e-12, abs=1e-12)


def test_derivative_boxes_detect_expected_orders():
    probe = ProbeSpec(seed=0)
    heat = detect_order(derivative_blackbox(PdeSpec.heat(1.0), 2, 1e-3, 0.1), probe)
    assert heat.detected_order == 2
    adv = detect_order(derivative_blackbox(PdeSpec.advection(1.0), 2, 1e-3, 0.1), probe)
    assert adv.detected_order == 1
    bih4 = detect_order(derivative_blackbox(PdeSpec.biharmonic(1.0), 4, 1e-3, 0.1), probe)
    assert bih4.detected_order == 4
    bih2 = detect_order(derivative_blackbox(PdeSpec.biharmonic(1.0), 2, 1e-3, 0.1), probe)
    assert bih2.detected_order == 0


def test_advection_d2_sensitivity_is_below_threshold():
    # the box depends on D_2 only at O(dt); at dt=1e-3 that signal must sit
    # below the relative threshold while D_1 towers above it
    report = detect_order(derivative_blackbox(PdeSpec.advection(1.0), 2, 1e-3, 0.1),
                          ProbeSpec(seed=0))
    variances = dict(zip(report.indices, report.variances))
    assert variances[2] < report.threshold
    assert variances[1] / max(variances[2], 1e-300) > 1e5


def test_derivative_box_labels_are_orders():
    box = derivative_blackbox(PdeSpec.heat(1.0), d_max=2, dt=1e-3, h=0.1)
    assert box.first_index == 0
    report = detect_order(box, ProbeSpec(seed=0))
    assert report.indices == (0, 1, 2)
