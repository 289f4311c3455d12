"""Coarse projective integration: noise law, AR(1) variance, cost ledger."""

import math

import patchlab.projective

import numpy as np
import pytest

from patchlab import (
    CoarseStepConfig,
    RngStreamSpec,
    SdeModel,
    coarse_projective_step,
    effective_noise_std,
    em_step,
    ensemble_normals,
    increment_moments,
    predicted_ou_tail_variance,
    run_coarse_trajectory,
)

CFG = CoarseStepConfig(ensemble_size=10, micro_steps=10, dt_micro=1e-3, dt_macro=0.1)


def test_config_validation():
    with pytest.raises(ValueError):
        CoarseStepConfig(ensemble_size=0, micro_steps=10, dt_micro=1e-3, dt_macro=0.1)
    with pytest.raises(ValueError):
        # micro horizon k*dt exceeds the macro step
        CoarseStepConfig(ensemble_size=10, micro_steps=200, dt_micro=1e-3, dt_macro=0.1)
    with pytest.raises(ValueError):
        CoarseStepConfig(ensemble_size=10, micro_steps=10, dt_micro=1e-3, dt_macro=0.1, alpha=1.0)
    with pytest.raises(ValueError):
        # alpha*k = 2.5 is not a whole number of micro steps
        CoarseStepConfig(ensemble_size=10, micro_steps=10, dt_micro=1e-3, dt_macro=0.1, alpha=0.25)
    cfg = CoarseStepConfig(ensemble_size=10, micro_steps=10, dt_micro=1e-3, dt_macro=0.1, alpha=0.5)
    assert cfg.alpha_steps == 5
    assert cfg.micro_horizon == pytest.approx(0.01)


def test_effective_noise_std_three_regimes():
    # consistent: N k dt_micro == dt_macro
    assert effective_noise_std(CFG) == pytest.approx(0.1 / math.sqrt(0.1), rel=1e-15)
    assert effective_noise_std(CFG) == pytest.approx(0.31622776601683794, rel=1e-15)
    # noise lost: hundredfold ensemble shrinks the effective noise tenfold
    big = CoarseStepConfig(ensemble_size=1000, micro_steps=10, dt_micro=1e-3, dt_macro=0.1)
    assert effective_noise_std(big) == pytest.approx(0.031622776601683794, rel=1e-15)
    # noise overwhelmed: tiny micro horizon inflates the projected noise
    tiny = CoarseStepConfig(ensemble_size=1, micro_steps=1, dt_micro=1e-4, dt_macro=0.1)
    assert effective_noise_std(tiny) == pytest.approx(10.0, rel=1e-15)
    assert effective_noise_std(CFG, noise_amplitude=2.0) == pytest.approx(0.6324555320336759)


def test_predicted_ou_tail_variance():
    # AR(1) with phi = 1 - dt_macro: s^2/(1-phi^2) = dt/(Nk dt_micro (2-dt))
    assert predicted_ou_tail_variance(CFG) == pytest.approx(0.1 / (0.01 * 19.0), rel=1e-12)
    big = CoarseStepConfig(ensemble_size=1000, micro_steps=10, dt_micro=1e-3, dt_macro=0.1)
    assert predicted_ou_tail_variance(big) == pytest.approx(0.1 / (10.0 * 1.9), rel=1e-12)
    with pytest.raises(ValueError):
        predicted_ou_tail_variance(CFG, rate=20.0)  # rate*dt = 2: not mean reverting


def test_noise_free_ou_step_closed_form():
    model = SdeModel.ornstein_uhlenbeck(rate=1.0, noise_amplitude=0.0)
    x1 = coarse_projective_step(1.0, model, CFG, RngStreamSpec(7))
    # ten Euler substeps contract by (1-1e-3)^10; the chord is extrapolated over 0.1
    xk = (1.0 - 1e-3) ** 10
    assert x1 == pytest.approx(1.0 + 0.1 * (xk - 1.0) / 0.01, rel=1e-14)


def test_noise_free_alpha_window():
    cfg = CoarseStepConfig(ensemble_size=4, micro_steps=10, dt_micro=1e-3, dt_macro=0.1, alpha=0.5)
    model = SdeModel.ornstein_uhlenbeck(rate=1.0, noise_amplitude=0.0)
    x1 = coarse_projective_step(1.0, model, cfg, RngStreamSpec(7))
    x5 = (1.0 - 1e-3) ** 5
    x10 = (1.0 - 1e-3) ** 10
    assert x1 == pytest.approx(1.0 + 0.1 * (x10 - x5) / (0.5 * 0.01), rel=1e-14)


def test_step_matches_member_by_member_route():
    """Vectorized ensemble advance equals advancing members one at a time."""
    model = SdeModel.ornstein_uhlenbeck(rate=1.0)
    rng = RngStreamSpec(123, 0, 9)
    x0 = 0.8
    got = coarse_projective_step(x0, model, CFG, rng)

    draws = ensemble_normals(rng, CFG.ensemble_size, CFG.micro_steps)
    finals = []
    for j in range(CFG.ensemble_size):  # "workers" in arbitrary order
        x = x0
        for i in range(CFG.micro_steps):
            x = float(em_step(x, model, CFG.dt_micro, draws[j, i]))
        finals.append(x)
    mean_end = float(np.mean(finals))
    want = x0 + CFG.dt_macro * (mean_end - x0) / CFG.micro_horizon
    assert got == want


def test_increment_law_drift_free():
    traj = run_coarse_trajectory(0.0, SdeModel.pure_noise(), CFG, 10_000, RngStreamSpec(31))
    mom = increment_moments(traj.values)
    sigma = effective_noise_std(CFG)
    assert abs(mom.mean - 0.0) <= 3.0 * mom.se_mean
    assert abs(mom.std - sigma) <= 3.0 * mom.se_std
    # increments are exactly Gaussian by construction; kurtosis is a cheap law check
    inc = np.diff(traj.values)
    excess = float(((inc - inc.mean()) ** 4).mean() / inc.var() ** 2 - 3.0)
    assert abs(excess) <= 5.0 * math.sqrt(24.0 / inc.size)


def test_trajectory_bookkeeping_and_reproducibility():
    model = SdeModel.ornstein_uhlenbeck()
    a = run_coarse_trajectory(1.0, model, CFG, 50, RngStreamSpec(11))
    b = run_coarse_trajectory(1.0, model, CFG, 50, RngStreamSpec(11))
    assert a.values.tobytes() == b.values.tobytes()
    assert a.values.shape == (51,)
    assert a.values[0] == 1.0
    assert a.diverged_at is None
    assert a.ledger.macro_steps == 50
    assert a.ledger.micro_steps_total == 50 * 10 * 10

    c = run_coarse_trajectory(1.0, model, CFG, 50, RngStreamSpec(12))
    assert not np.array_equal(a.values, c.values)


def test_trajectory_uses_step_indexed_streams():
    # running from step_id=5 must reproduce the tail of a longer run
    model = SdeModel.ornstein_uhlenbeck()
    full = run_coarse_trajectory(0.5, model, CFG, 8, RngStreamSpec(3, 0, 0))
    tail = run_coarse_trajectory(full.values[5], model, CFG, 3, RngStreamSpec(3, 0, 5))
    np.testing.assert_allclose(tail.values, full.values[5:], rtol=1e-14)


def test_divergence_is_reported_not_raised():
    exploding = SdeModel(drift=lambda x: 50.0 * x, noise_amplitude=0.0)
    traj = run_coarse_trajectory(1.0, exploding, CFG, 1000, RngStreamSpec(0))
    assert traj.diverged_at is not None
    assert traj.values.size == traj.diverged_at + 1
    assert abs(traj.values[-1]) > 1e12 or not math.isfinite(traj.values[-1])
    # the ledger only counts work actually done
    assert traj.ledger.macro_steps == traj.diverged_at


@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_every_micro_step_goes_through_em_step(monkeypatch, alpha):
    """One ``ensemble_normals`` call per coarse step, one ``em_step`` per micro step.

    Tracing tools count member steps by wrapping ``patchlab.projective.em_step``
    and compare them with ``CostLedger.micro_steps_total``.
    """
    em_sizes, streams = [], []

    def counted_em_step(*args, **kwargs):
        out = em_step(*args, **kwargs)
        em_sizes.append(np.size(out))
        return out

    def counted_normals(spec, *args):
        streams.append(spec.step_id)
        return ensemble_normals(spec, *args)

    monkeypatch.setattr(patchlab.projective, "em_step", counted_em_step)
    monkeypatch.setattr(patchlab.projective, "ensemble_normals", counted_normals)
    cfg = CoarseStepConfig(ensemble_size=7, micro_steps=6, dt_micro=1e-3, dt_macro=0.1,
                           alpha=alpha)
    n_steps = 25
    traj = run_coarse_trajectory(0.2, SdeModel.ornstein_uhlenbeck(), cfg, n_steps,
                                 RngStreamSpec(4, 0, 3))
    assert len(em_sizes) == n_steps * cfg.micro_steps
    assert sum(em_sizes) == traj.ledger.micro_steps_total == n_steps * 7 * 6
    assert streams == list(range(3, 3 + n_steps))
