"""Experiment drivers behind the command line interface.

Every run produces the same record for the same config and seed; output files
are byte-identical across repeats (wall time is reported to stdout only).
"""

from __future__ import annotations

import contextlib
import math
import os
import time

import numpy as np

from . import __version__
from .analysis import (
    classify_growth, convergence_order, increment_moments, reachable_time, seeded_noise_state,
    stationary_variance_test, study_grids, symbol_stepper, tail_points,
)
from .config import (
    DRIFTS, PATCH_PDES, STABILITY_CODES, TARGET_PDES, ConfigError, ExperimentConfig, render_config,
)
from .core import (
    MacroState, RngStreamSpec, ToothConfig, at_least, generator, positive, step_cap, value_type,
)
from .kp import (
    SELF_CONSISTENCY_TOL, checked_delta, ensemble_velocities, field_modes, finite_start,
    fit_lag_steps, msd_exponent, sample_steps,
)
from .order_detect import BlackBoxFunction, ProbeSpec, derivative_blackbox, detect_order
from .patch import LiftingScheme, PatchConfig, lift_coefficients, restrict, step_symbol
from .projective import (
    CoarseStepConfig, effective_noise_std, predicted_ou_tail_variance, run_coarse_trajectory,
)

__all__ = []


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


@value_type
class RunRecord:
    config: ExperimentConfig
    metrics: tuple[MetricResult, ...]
    tables: tuple[Table, ...] = ()
    wall_time_s: float = 0.0

    @property
    def failed(self) -> bool:
        return any(m.verdict == "fail" for m in self.metrics)


class OverwriteError(RuntimeError):
    """Output file already exists and --force was not given."""


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def render_summary(record: RunRecord) -> str:
    lines = [
        f"# patchlab {__version__}",
        f"# experiment = {record.config.experiment}",
        f"# seed = {record.config.seed}",
        "# name value expected tolerance verdict",
    ]
    lines += [f"{m.name} {_fmt(m.value)} {_fmt(m.expected)} {_fmt(m.tolerance)} {m.verdict}"
              for m in record.metrics]
    return "\n".join(lines) + "\n"


def write_results(record: RunRecord, out_dir: str, force: bool = False) -> list[str]:
    """Write summary, config echo, and CSV tables; refuse to clobber.

    Each file is written under a temporary name in ``out_dir`` and moved
    into place with ``os.replace`` once every file is written.  On any error
    the temporary files, and the files this call already moved into place,
    are removed, so an interrupted write leaves nothing that blocks a rerun.
    """
    paths = {name: os.path.join(out_dir, name) for name in ("summary", "config")}
    for table in record.tables:
        paths[table.name] = os.path.join(out_dir, f"{table.name}.csv")
    existing = [] if force else sorted(p for p in paths.values() if os.path.exists(p))
    if existing:
        raise OverwriteError(f"refusing to overwrite {', '.join(existing)} (use --force)")
    os.makedirs(out_dir, exist_ok=True)
    staged: list[tuple[str, str]] = []
    placed: list[str] = []

    def open_staged(path):
        tmp = os.path.join(out_dir, f".{os.path.basename(path)}.{os.getpid()}.tmp")
        staged.append((tmp, path))
        return open(tmp, "w")

    try:
        with open_staged(paths["summary"]) as fh:
            fh.write(render_summary(record))
        with open_staged(paths["config"]) as fh:
            fh.write(render_config(record.config))
        for table in record.tables:
            with open_staged(paths[table.name]) as fh:
                fh.write(",".join(table.columns) + "\n")
                for row in table.rows:
                    fh.write(",".join(_fmt(v) for v in row) + "\n")
        for tmp, path in staged:
            os.replace(tmp, path)
            placed.append(path)
    except BaseException:
        for path in [tmp for tmp, _ in staged] + placed:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        raise
    return sorted(paths.values())


def run_experiment(config: ExperimentConfig) -> RunRecord:
    """Plan the run, then execute it.

    The plan checks the whole config and builds every value the run needs
    before any work; a ``ValueError`` there becomes a ``ConfigError`` naming
    the experiment.  Executing does the work and writes its outcomes as rows,
    an estimate that is not finite as a failing one; any exception it raises
    propagates unchanged.
    """
    start = time.perf_counter()
    try:
        execute = _PLANS[config.experiment](config.parameters, config.seed)
    except ValueError as err:
        raise ConfigError(f"{config.experiment}: {err}") from err
    metrics, tables = execute()
    return RunRecord(config, tuple(metrics), tuple(tables), time.perf_counter() - start)


# ---------------------------------------------------------------- projective


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
    ratio = positive(p["dt_ratio"] or dt_ratio, "dt_ratio")
    dt_macro = ratio * dx ** pde.max_order
    cfg = PatchConfig(
        lifting=scheme,
        tooth=ToothConfig(h=positive(p["h_fraction"], "h_fraction") * dx),
        dt_micro=positive(p["dt_micro_factor"], "dt_micro_factor") * dt_macro,
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
    # state at final_time exactly; a step that does not fit in a float fails here
    symbol = step_symbol(pde, cfg, p["n_points"], dx)
    # grid -> the study's (stepper, initial state) on it
    problems = {n: (symbol_stepper(step_symbol(pde_n, cfg_n, n, dx_n), cfg_n.dt_macro, final_time),
                    MacroState(values=np.sin(dx_n * np.arange(n)), dx=dx_n))
                for n, (pde_n, cfg_n, dx_n) in setups.items()}

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


def _order_detect_box(p: dict) -> BlackBoxFunction:
    """The black box that the config's ``target`` names."""
    budget = p["budget"] or None
    if p["target"] == "adversarial":
        return BlackBoxFunction(lambda pt: pt[0] + pt[99], arity=100, evaluation_budget=budget)
    d_default, factory = TARGET_PDES[p["target"]]
    return derivative_blackbox(factory(1.0), d_max=p["d_max"] or d_default, dt=p["dt_micro"],
                               h=p["h"], evaluation_budget=budget)


def _plan_order_detect(p: dict, seed: int):
    box = _order_detect_box(p)
    probe = ProbeSpec(n_base=p["n_base"], n_perturb=p["n_perturb"], halfwidth=p["halfwidth"],
                      seed=seed)
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
    for dt in dts:
        sample_steps(sample_dt, dt, n_samples, "dt_scale", dt_scale)
    fit_lag_steps(np.linspace(0.0, total_time, n_samples + 1), p["fit_lag_lo"], p["fit_lag_hi"],
                  p["n_lags"])
    at_least(p["n_trajectories"], 1, "n_trajectories")
    field_modes(p["n_modes"], p["spectrum"])
    finite_start((p["x0"], p["v0"]))
    if p["calibrate"]:
        # the calibration paths span [0, 1] on the same sample count
        fit_lag_steps(np.linspace(0.0, 1.0, n_samples + 1), 0.012, 0.24, p["n_lags"])
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
            fit = msd_exponent(times, velocities, p["fit_lag_lo"], p["fit_lag_hi"],
                               n_lags=p["n_lags"])
            metrics.append(_checked(f"gamma_delta_{slug}", fit.gamma, *targets[i]))
            rows = tuple(zip(fit.lags.tolist(), fit.msd.tolist()))
            tables.append(Table(name=f"msd_{slug}", columns=("lag", "msd"), rows=rows))
        if p["calibrate"]:
            cal_rng = rng.at(stream_id=2**32)
            for kind, target in (("brownian", 1.0), ("ballistic", 2.0)):
                times, values = _synthetic_paths(kind, p["n_trajectories"], n_samples,
                                                 cal_rng.at(step_id=int(target)))
                fit = msd_exponent(times, values, 0.012, 0.24, n_lags=p["n_lags"])
                metrics.append(_checked(f"calibration_{kind}", fit.gamma, target, 0.1))
        return metrics, tables

    return execute


def _slug(value: float) -> str:
    return repr(float(value)).replace(".", "p").replace("-", "m")


# experiment -> its plan: check the config, build the run's values, and return
# the zero-argument step that executes the run
_PLANS = {"projective": _plan_projective, "patch": _plan_patch,
          "order-detect": _plan_order_detect, "kp": _plan_kp}
