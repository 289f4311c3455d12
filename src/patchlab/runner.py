"""The command line's experiments, one row of ``EXPERIMENTS`` each: a help line,
parameters and a plan.  The same parameters and seed give the same rows."""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from .analysis import (
    classify_growth, convergence_order, increment_moments, reachable_time, seeded_noise_state,
    stationary_variance_test, study_grids, symbol_stepper, tail_points,
)
from .core import (
    MacroState, PdeSpec, RngStreamSpec, ToothConfig, at_least, generator, positive, step_cap,
    value_type,
)
from .kp import (
    SELF_CONSISTENCY_TOL, checked_delta, ensemble_velocities, field_modes, fit_lag_steps,
    msd_exponent, sample_steps,
)
from .micro import SdeModel
from .order_detect import BlackBoxFunction, ProbeSpec, derivative_blackbox, detect_order
from .patch import (
    LIFTING_VARIANTS, LiftingScheme, PatchConfig, lift_coefficients, restrict, step_symbol,
)
from .projective import (
    CoarseStepConfig, effective_noise_std, predicted_ou_tail_variance, run_coarse_trajectory,
)

__all__ = []


@value_type
class _Param:
    name: str
    kind: str            # a key of config._KINDS
    default: Any = None  # None: the key is required
    choices: tuple[str, ...] | None = None


@value_type
class MetricResult:
    """One summary row: a measured value, optionally checked against a target.

    Values keep their natural type (bool, int, float) so the summary file
    renders counts without a decimal point and flags as true/false.
    """

    name: str
    value: float | int | bool
    expected: float | int | None = None
    tolerance: float | int | None = None
    verdict: str = "info"  # pass | fail | info

    def __post_init__(self):
        if self.verdict not in ("pass", "fail", "info"):
            raise ValueError(f"bad verdict {self.verdict!r}")


def _checked(name: str, value, expected=None, tolerance=None) -> MetricResult:
    """The verdict every estimate gets: fail when ``value`` is not finite, else
    info when ``expected`` is None, else pass when within ``tolerance`` of it."""
    if expected is None:
        return MetricResult(name, value, verdict="info" if math.isfinite(value) else "fail")
    ok = abs(value - expected) <= tolerance and math.isfinite(value)
    return MetricResult(name, value, expected, tolerance, "pass" if ok else "fail")


@value_type
class Table:
    name: str                      # file stem, becomes <name>.csv
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]


# ---------------------------------------------------------------- projective

# drift -> SdeModel factory of (ou_rate, noise_amplitude)
DRIFTS = {
    "zero": lambda rate, noise_amplitude: SdeModel.pure_noise(noise_amplitude),
    "ou": SdeModel.ornstein_uhlenbeck,
}


def _plan_projective(p: dict, seed: int):
    cfg = CoarseStepConfig(p["ensemble_size"], p["micro_steps"], p["dt_micro"], p["dt_macro"],
                           p["alpha"])
    model = DRIFTS[p["drift"]](p["ou_rate"], p["noise_amplitude"])
    sigma = effective_noise_std(cfg, p["noise_amplitude"])
    if not math.isfinite(p["x0"]):
        # a start that is not finite diverges at the first step
        raise ValueError("x0 must be finite")
    # an infinite tolerance passes every variance, a negative or nan one none
    tolerance_fraction = positive(p["tolerance_fraction"], "tolerance_fraction")
    if p["drift"] == "zero":
        # the increment moments need three values
        n_steps = at_least(p["n_steps"], 2, "n_steps")

        def check(values):
            mom = increment_moments(values)
            return [_checked("increment_mean", mom.mean, 0.0, 3.0 * mom.se_mean),
                    _checked("increment_std", mom.std, sigma, 3.0 * mom.se_std)]
    else:
        if not math.isfinite(p["ou_rate"]):  # nan passes the chain's stability test
            raise ValueError("ou_rate must be finite")
        # a coarse chain that does not mean-revert, or a run too short or too
        # quiet for the tail test, fails here
        expected = predicted_ou_tail_variance(cfg, p["ou_rate"], p["noise_amplitude"])
        n_steps = at_least(p["n_steps"], 0, "n_steps")
        tail_points(n_steps + 1, expected)

        def check(values):
            test = stationary_variance_test(values, expected, tolerance_fraction)
            return [_checked("tail_variance", test.measured, test.expected,
                             test.tolerance_fraction * test.expected)]
    step_cap(n_steps, "n_steps", n_steps, "coarse steps")

    def execute():
        traj = run_coarse_trajectory(p["x0"], model, cfg, n_steps, RngStreamSpec(master_seed=seed))
        metrics = [MetricResult("effective_noise_std", sigma)]
        if traj.diverged_at is not None:
            # a truncated, exploding trajectory has no moments or tail to test
            metrics.append(MetricResult("diverged_at_step", int(traj.diverged_at), verdict="fail"))
        else:
            metrics += check(traj.values)
        ledger = traj.ledger
        metrics.append(MetricResult("macro_steps", int(ledger.macro_steps)))
        metrics.append(MetricResult("micro_steps_total", int(ledger.micro_steps_total)))
        horizon = cfg.ensemble_size * cfg.micro_steps * cfg.dt_micro
        if abs(horizon - cfg.dt_macro) <= 1e-12 * cfg.dt_macro:
            brute = round(ledger.macro_steps * cfg.dt_macro / cfg.dt_micro)
            metrics.append(
                _checked("cost_parity_vs_brute_force", int(ledger.micro_steps_total - brute), 0, 0)
            )
        rows = tuple(enumerate(traj.values.tolist()))
        return metrics, [Table(name="trajectory", columns=("step", "value"), rows=rows)]

    return execute


# --------------------------------------------------------------------- patch

# pde -> (PdeSpec factory, default dt_ratio, default final_time)
PATCH_PDES = {
    "heat": (PdeSpec.heat, 0.4, 0.5),
    "advection": (PdeSpec.advection, 0.5, 0.5),
    "biharmonic": (PdeSpec.biharmonic, 0.0375, 0.005),
}
STABILITY_CODES = {"stable": 0, "marginal": 1, "unstable": 2}


def _exact_solution(name: str, coefficient: float):
    # single harmonic on [0, 2*pi): sin(x) shifts (advection) or decays (heat, biharmonic)
    if name == "advection":
        return lambda xs, t: np.sin(xs - coefficient * t)
    return lambda xs, t: np.exp(-coefficient * t) * np.sin(xs)


def _patch_setup(p: dict, n_points: int, key: str = "n_points"):
    """The PDE, step config and spacing on ``n_points``, the value of config key ``key``."""
    factory, dt_ratio, _ = PATCH_PDES[p["pde"]]
    pde = factory(p["coefficient"])
    # upwind slopes come from where the transport comes from: velocity = -a_1
    a1 = dict(pde.terms).get(1, 0.0)
    scheme = LiftingScheme(p["lifting"], wind_sign=-1 if a1 > 0 else 1)
    dx = 2.0 * math.pi / at_least(n_points, scheme.stencil_points, key)
    # the largest array of a step is the (n_points, stencil_points) lift
    step_cap(n_points * scheme.stencil_points, key, n_points, "array elements")
    ratio = positive(p["dt_ratio"] or dt_ratio, "dt_ratio")
    dt_macro = ratio * dx ** pde.max_order
    cfg = PatchConfig(
        lifting=scheme,
        tooth=ToothConfig(h=p["h_fraction"] * dx),
        dt_micro=p["dt_micro_factor"] * dt_macro,
        dt_macro=dt_macro,
        alpha=p["alpha"],
    )
    return pde, cfg, dx


def _plan_patch(p: dict, seed: int):
    # nan sets no target; an infinite one, or an infinite tolerance, would
    # make the order check fail or pass whatever the fit
    if math.isinf(p["expect_order"]):
        raise ValueError("expect_order must be finite, or nan for no target")
    if not (p["grids"] or math.isnan(p["expect_order"])):
        raise ValueError("expect_order needs grids to fit a convergence order on")
    order_tolerance = positive(p["order_tolerance"], "order_tolerance")
    if not math.isfinite(p["coefficient"]):
        raise ValueError("coefficient must be finite")
    # a tooth h_fraction*dx wide must not overlap the next, and dt_micro =
    # dt_micro_factor*dt_macro must not exceed dt_macro; 1 + 1e-12 is the
    # tolerance that lift_coefficients and PatchConfig allow
    for key in ("h_fraction", "dt_micro_factor"):
        if positive(p[key], key) > 1.0 + 1e-12:
            raise ValueError(f"{key} must not exceed 1, got {p[key]:g}")
    # the grid list, every grid and the study's final time fail here, before
    # the first step
    pde, cfg, dx = _patch_setup(p, p["n_points"])
    if p["grids"]:
        study_grids(p["grids"])
    setups = {n: _patch_setup(p, n, "grids") for n in p["grids"]}
    final_time = p["final_time"] or PATCH_PDES[p["pde"]][2]
    for _, cfg_n, _ in setups.values():
        reachable_time(final_time, cfg_n.dt_macro)
    # no longer read: kept while the benchmark's configs still set it
    at_least(p["probe_steps"], 4, "probe_steps")
    # the step is a linear circulant map, so a normal matrix: its symbol G(k)
    # gives the growth of every iterate, ||A^n|| = max|G|^n, and every grid's
    # state at final_time exactly. A step that does not fit in a float fails
    # here, naming the keys that set dt_macro and dt_micro
    try:
        symbol = step_symbol(pde, cfg, p["n_points"], dx)
        # grid -> the study's (stepper, initial state) on it
        problems = {
            n: (symbol_stepper(step_symbol(pde_n, cfg_n, n, dx_n), cfg_n.dt_macro, final_time),
                MacroState(values=np.sin(dx_n * np.arange(n)), dx=dx_n))
            for n, (pde_n, cfg_n, dx_n) in setups.items()}
    except ValueError as err:
        raise ValueError(f"dt_macro = dt_ratio*dx^{pde.max_order} and dt_micro = "
                         f"dt_micro_factor*dt_macro: {err}") from None

    def execute():
        metrics = [MetricResult("dt_macro", cfg.dt_macro), MetricResult("tooth_width", cfg.tooth.h)]
        u0 = seeded_noise_state(p["n_points"], dx, RngStreamSpec(master_seed=seed))
        # one restrict per row, as a library caller averages a single lifted
        # tooth; a matrix-vector product may round the last bit differently
        round_trip = max(
            abs(restrict(row, cfg.tooth.h) - value)
            for row, value in zip(lift_coefficients(u0, cfg.lifting, cfg.tooth.h), u0.values)
        )
        metrics.append(_checked("lift_restrict_round_trip", round_trip, 0.0, 1e-12))
        # |G(0)| = 1 up to rounding, so the constant mode is left out
        amplification_max = float(np.max(np.abs(symbol[1:])))
        metrics.append(MetricResult("amplification_max", amplification_max))
        classification = classify_growth(amplification_max)
        expect = p["expect_stability"]
        name = f"stability_is_{expect}" if expect else f"stability_code_{classification}"
        code = STABILITY_CODES[classification]
        metrics.append(_checked(name, code, STABILITY_CODES.get(expect), 0))
        if not problems:
            return metrics, []
        study = convergence_order(lambda n: problems[n], p["grids"], final_time,
                                  _exact_solution(p["pde"], p["coefficient"]))
        expected = None if math.isnan(p["expect_order"]) else p["expect_order"]
        metrics.append(_checked("convergence_order", study.fitted_order, expected,
                                order_tolerance))
        rows = tuple(zip(study.grid_sizes, study.spacings, study.errors))
        return metrics, [Table(name="convergence", columns=("n_points", "dx", "error"), rows=rows)]

    return execute


# -------------------------------------------------------------- order-detect

# target other than "adversarial" -> (default d_max, PDE factory)
TARGET_PDES = {
    "heat": (2, PdeSpec.heat),
    "advection": (2, PdeSpec.advection),
    "biharmonic_d4": (4, PdeSpec.biharmonic),
    "biharmonic_d2": (2, PdeSpec.biharmonic),
}


def _order_detect_box(p: dict) -> BlackBoxFunction:
    """The black box that the config's ``target`` names."""
    budget = at_least(p["budget"], 0, "budget") or None
    if p["target"] == "adversarial":
        return BlackBoxFunction(lambda pt: pt[0] + pt[99], arity=100, evaluation_budget=budget)
    d_default, factory = TARGET_PDES[p["target"]]
    return derivative_blackbox(factory(1.0), d_max=p["d_max"] or d_default,
                               dt=positive(p["dt_micro"], "dt_micro"), h=p["h"],
                               evaluation_budget=budget)


def _plan_order_detect(p: dict, seed: int):
    box = _order_detect_box(p)
    probe = ProbeSpec(n_base=p["n_base"], n_perturb=p["n_perturb"], halfwidth=p["halfwidth"],
                      seed=seed)
    # a coordinate's probe holds n_perturb outputs and (n_base, n_perturb) sweep
    # values beside (n_base, arity) base points
    step_cap(probe.n_perturb, "n_perturb", probe.n_perturb, "array elements")
    step_cap(probe.n_base * max(probe.n_perturb, box.arity), "n_base", probe.n_base,
             "array elements")
    stop_after = at_least(p["stop_after"], 1, "stop_after") if p["stop_after"] else None
    expected = p["expected_order"] if p["expected_order"] >= 0 else None

    def execute():
        report = detect_order(box, probe, stop_after=stop_after)
        metrics = [
            _checked("detected_order", int(report.detected_order), expected, 0),
            MetricResult("coordinates_probed", len(report.indices)),
            MetricResult("stopped_early", report.stopped_early),
            MetricResult("budget_exhausted", report.budget_exhausted),
            MetricResult("evaluations_used", int(report.budget_used)),
            MetricResult("threshold", report.threshold),
        ]
        rows = tuple(zip(report.indices, report.variances, report.dependent))
        return metrics, [Table(name="variances", columns=("index", "variance", "dependent"),
                               rows=rows)]

    return execute


# ------------------------------------------------------------------------ kp


def _synthetic_paths(kind: str, n_traj: int, n_samples: int, rng: RngStreamSpec):
    times = np.linspace(0.0, 1.0, n_samples + 1)
    gen = generator(rng)
    if kind == "brownian":
        steps = gen.standard_normal((n_traj, n_samples)) * math.sqrt(times[1] - times[0])
        return times, np.concatenate([np.zeros((n_traj, 1)), np.cumsum(steps, axis=1)], axis=1)
    # ballistic: linear ramps with random slopes
    return times, (gen.standard_normal((n_traj, 1)) + 2.0) * times[None, :]


def _plan_kp(p: dict, seed: int):
    n_samples = at_least(p["n_samples"], 1, "n_samples")
    bands = p["gamma_bands"]
    if bands and len(bands) != len(p["deltas"]):
        raise ValueError(f"gamma_bands has {len(bands)} entries but deltas has {len(p['deltas'])}")
    # each delta's exponent is checked against the middle of its band, if it has one
    targets = [(0.5 * (lo + hi), 0.5 * (hi - lo)) for lo, hi in bands] or [()] * len(p["deltas"])
    # every delta, dt_scale, each delta's step count, the fit's lag steps, the
    # field and the start fail here, before the first integration
    deltas = tuple(checked_delta(delta) for delta in p["deltas"])
    if len(set(deltas)) != len(deltas):
        # each delta writes its own msd_<delta> table
        raise ValueError(f"deltas must be distinct, got {deltas}")
    dt_scale = positive(p["dt_scale"], "dt_scale")
    total_time = positive(p["total_time"], "total_time")
    sample_dt = total_time / n_samples
    dts = [min(dt_scale * delta * delta, sample_dt) for delta in deltas]
    for delta, dt in zip(deltas, dts):
        # the step count is set by all three keys, so the refusal names each
        sample_steps(sample_dt, dt, n_samples,
                     f"total_time {total_time:g} at dt_scale {dt_scale:g} and delta", delta)
    lag_lo, lag_hi = p["fit_lag_lo"], p["fit_lag_hi"]
    # the fit's window is set by both its ends and total_time, so the refusal
    # names all three; the bounds are fit_lag_steps' own
    if not (0 < lag_lo < lag_hi and lag_lo >= total_time / 100.0 * (1.0 - 1e-9)
            and lag_hi <= total_time / 4.0 * (1.0 + 1e-9)):
        raise ValueError(f"fit_lag_lo {lag_lo:g} and fit_lag_hi {lag_hi:g} must satisfy "
                         f"total_time/100 <= fit_lag_lo < fit_lag_hi <= total_time/4 "
                         f"at total_time {total_time:g}")
    fit_lag_steps(np.linspace(0.0, total_time, n_samples + 1), lag_lo, lag_hi, p["n_lags"])
    n_trajectories = at_least(p["n_trajectories"], 1, "n_trajectories")
    n_modes, _ = field_modes(p["n_modes"], p["spectrum"])
    # the stack holds (n_trajectories, n_samples + 1) samples of each kind and
    # (n_trajectories, n_modes) phases
    step_cap(n_trajectories * max(n_samples + 1, n_modes), "n_trajectories", n_trajectories,
             "array elements")
    for key in ("x0", "v0"):
        if not math.isfinite(p[key]):
            raise ValueError(f"{key} must be finite")
    # the calibration paths span [0, 1] on the same sample count, and are fitted
    # over this window
    calibration_lags = (0.012, 0.24)
    if p["calibrate"]:
        fit_lag_steps(np.linspace(0.0, 1.0, n_samples + 1), *calibration_lags, p["n_lags"])
    rng = RngStreamSpec(master_seed=seed)

    def execute():
        metrics: list[MetricResult] = []
        tables: list[Table] = []
        for i, delta in enumerate(deltas):
            slug = _slug(delta)
            run = ensemble_velocities(
                n_trajectories=p["n_trajectories"], n_modes=p["n_modes"],
                spectrum=p["spectrum"], delta=delta, total_time=total_time, dt=dts[i],
                rng=rng.at(step_id=i), initial=(p["x0"], p["v0"]), n_samples=n_samples,
                validate=p["validate_dt"],
            )
            error = run.energy_error
            if error is not None:
                failing = np.flatnonzero(~(error <= SELF_CONSISTENCY_TOL))
                if failing.size:
                    # an unresolved step leaves no trajectory worth fitting at this
                    # delta; the lowest failing trajectory is named
                    row = int(failing[0])
                    metrics += [
                        MetricResult(f"dt_self_consistent_delta_{slug}", False, verdict="fail"),
                        MetricResult(f"dt_check_trajectory_delta_{slug}", row),
                        _checked(f"energy_error_delta_{slug}", float(error[row])),
                    ]
                    continue
                metrics.append(_checked(f"energy_error_delta_{slug}", float(np.max(error))))
            times, velocities = run
            fit = msd_exponent(times, velocities, lag_lo, lag_hi, n_lags=p["n_lags"])
            metrics.append(_checked(f"gamma_delta_{slug}", fit.gamma, *targets[i]))
            rows = tuple(zip(fit.lags.tolist(), fit.msd.tolist()))
            tables.append(Table(name=f"msd_{slug}", columns=("lag", "msd"), rows=rows))
        if p["calibrate"]:
            cal_rng = rng.at(stream_id=2**32)
            for kind, target in (("brownian", 1.0), ("ballistic", 2.0)):
                times, values = _synthetic_paths(kind, p["n_trajectories"], n_samples,
                                                 cal_rng.at(step_id=int(target)))
                fit = msd_exponent(times, values, *calibration_lags, n_lags=p["n_lags"])
                metrics.append(_checked(f"calibration_{kind}", fit.gamma, target, 0.1))
        return metrics, tables

    return execute


def _slug(value: float) -> str:
    return repr(float(value)).replace(".", "p").replace("-", "m")


# experiment -> (help line, parameters, plan); a plan checks the parameters, builds
# every value the run needs and returns the zero-argument step that executes the run
EXPERIMENTS = {
    "projective": ("coarse projective integration of a scalar SDE", (
        _Param("ensemble_size", "int", 10),
        _Param("micro_steps", "int", 10),
        _Param("dt_micro", "float", 1e-3),
        _Param("dt_macro", "float", 0.1),
        _Param("alpha", "float", 0.0),
        _Param("n_steps", "int", 10000),
        _Param("drift", "str", "zero", choices=tuple(DRIFTS)),
        _Param("ou_rate", "float", 1.0),
        _Param("noise_amplitude", "float", 1.0),
        _Param("x0", "float", 0.0),
        _Param("tolerance_fraction", "float", 0.1),
    ), _plan_projective),
    "patch": ("gap-tooth stability probe and grid convergence study", (
        _Param("pde", "str", choices=tuple(PATCH_PDES)),
        _Param("coefficient", "float", 1.0),
        _Param("lifting", "str", choices=tuple(LIFTING_VARIANTS)),
        _Param("n_points", "int", 64),
        _Param("h_fraction", "float", 0.2),
        _Param("dt_ratio", "float", 0.0),
        _Param("dt_micro_factor", "float", 1e-3),
        _Param("alpha", "float", 0.0),
        _Param("probe_steps", "int", 400),
        _Param("grids", "int_list", ()),
        _Param("final_time", "float", 0.0),
        _Param("expect_stability", "str", "", choices=("", *STABILITY_CODES)),
        _Param("expect_order", "float", math.nan),
        _Param("order_tolerance", "float", 0.3),
    ), _plan_patch),
    "order-detect": ("black-box spatial order detection", (
        _Param("target", "str", choices=(*TARGET_PDES, "adversarial")),
        _Param("dt_micro", "float", 1e-3),
        _Param("h", "float", 0.1),
        _Param("d_max", "int", 0),
        _Param("n_base", "int", 8),
        _Param("n_perturb", "int", 1024),
        _Param("halfwidth", "float", 1.0),
        _Param("stop_after", "int", 0),
        _Param("budget", "int", 0),
        _Param("expected_order", "int", -1),
    ), _plan_order_detect),
    "kp": ("particle-in-random-field displacement exponents", (
        _Param("deltas", "float_list"),
        _Param("gamma_bands", "band_list", ()),
        _Param("n_trajectories", "int", 24),
        _Param("n_modes", "int", 256),
        _Param("spectrum", "float", 0.0),
        _Param("x0", "float", 0.0),
        _Param("v0", "float", 1.0),
        _Param("total_time", "float", 0.008),
        _Param("dt_scale", "float", 1e-3),
        _Param("n_samples", "int", 400),
        _Param("fit_lag_lo", "float", 1e-4),
        _Param("fit_lag_hi", "float", 1e-3),
        _Param("n_lags", "int", 10),
        _Param("calibrate", "bool", True),
        _Param("validate_dt", "bool", True),
    ), _plan_kp),
}
