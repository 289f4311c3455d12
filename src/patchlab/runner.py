"""Experiment drivers behind the command line interface.

Every run produces the same record for the same config and seed; output files
are byte-identical across repeats (wall time is reported to stdout only).
"""

from __future__ import annotations

import contextlib
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .analysis import (
    convergence_order,
    growth_factor_probe,
    increment_moments,
    seeded_noise_state,
    stationary_variance_test,
)
from .config import ConfigError, ExperimentConfig, render_config
from .core import MacroState, PdeSpec, RngStreamSpec, ToothConfig, average_weights
from .kp import DtSelfConsistencyError, ensemble_velocities, msd_exponent
from .micro import SdeModel
from .order_detect import (
    BlackBoxFunction,
    ProbeSpec,
    derivative_blackbox,
    detect_order,
)
from .patch import LiftingScheme, PatchConfig, gap_tooth_step, lift_coefficients
from .projective import (
    CoarseStepConfig,
    effective_noise_std,
    predicted_ou_tail_variance,
    run_coarse_trajectory,
)

__all__ = [
    "MetricResult",
    "Table",
    "RunRecord",
    "OverwriteError",
    "run_experiment",
    "write_results",
    "render_summary",
]


@dataclass(frozen=True)
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


def _checked(name: str, value: float, expected: float, tolerance: float) -> MetricResult:
    ok = abs(value - expected) <= tolerance and math.isfinite(value)
    return MetricResult(name, value, expected, tolerance, "pass" if ok else "fail")


@dataclass(frozen=True)
class Table:
    name: str                      # file stem, becomes <name>.csv
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]


@dataclass(frozen=True)
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
    for m in record.metrics:
        lines.append(
            f"{m.name} {_fmt(m.value)} {_fmt(m.expected)} {_fmt(m.tolerance)} {m.verdict}"
        )
    return "\n".join(lines) + "\n"


def write_results(record: RunRecord, out_dir: str, force: bool = False) -> list[str]:
    """Write summary, config echo, and CSV tables; refuse to clobber.

    Each file is written under a temporary name in ``out_dir`` and moved
    into place with ``os.replace`` once every file is written.  On any error
    the temporary files, and the files this call already moved into place,
    are removed, so an interrupted write leaves nothing that blocks a rerun.
    """
    paths = {
        "summary": os.path.join(out_dir, "summary"),
        "config": os.path.join(out_dir, "config"),
    }
    for table in record.tables:
        paths[table.name] = os.path.join(out_dir, f"{table.name}.csv")
    if not force:
        existing = [p for p in paths.values() if os.path.exists(p)]
        if existing:
            raise OverwriteError(
                f"refusing to overwrite {', '.join(sorted(existing))} (use --force)"
            )
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
    runner = _RUNNERS[config.experiment]
    start = time.perf_counter()
    try:
        metrics, tables = runner(config.parameters, config.seed)
    except ValueError as err:
        raise ConfigError(f"{config.experiment}: {err}") from err
    return RunRecord(
        config=config,
        metrics=tuple(metrics),
        tables=tuple(tables),
        wall_time_s=time.perf_counter() - start,
    )


# ---------------------------------------------------------------- projective


def _run_projective(p: dict, seed: int):
    cfg = CoarseStepConfig(
        ensemble_size=p["ensemble_size"],
        micro_steps=p["micro_steps"],
        dt_micro=p["dt_micro"],
        dt_macro=p["dt_macro"],
        alpha=p["alpha"],
    )
    if p["drift"] == "zero":
        model = SdeModel.pure_noise(p["noise_amplitude"])
    else:
        model = SdeModel.ornstein_uhlenbeck(p["ou_rate"], p["noise_amplitude"])
    rng = RngStreamSpec(master_seed=seed)
    traj = run_coarse_trajectory(p["x0"], model, cfg, p["n_steps"], rng)

    metrics: list[MetricResult] = []
    sigma = effective_noise_std(cfg, p["noise_amplitude"])
    metrics.append(MetricResult("effective_noise_std", sigma))

    if traj.diverged_at is not None:
        metrics.append(MetricResult("diverged_at_step", int(traj.diverged_at)))

    if p["drift"] == "zero":
        mom = increment_moments(traj.values)
        metrics.append(_checked("increment_mean", mom.mean, 0.0, 3.0 * mom.se_mean))
        metrics.append(_checked("increment_std", mom.std, sigma, 3.0 * mom.se_std))
    else:
        expected = predicted_ou_tail_variance(cfg, p["ou_rate"], p["noise_amplitude"])
        check = stationary_variance_test(traj.values, expected, p["tolerance_fraction"])
        metrics.append(
            MetricResult(
                "tail_variance",
                check.measured,
                check.expected,
                check.tolerance_fraction * check.expected,
                "pass" if check.passed else "fail",
            )
        )

    ledger = traj.ledger
    metrics.append(MetricResult("macro_steps", int(ledger.macro_steps)))
    metrics.append(MetricResult("micro_steps_total", int(ledger.micro_steps_total)))
    horizon = cfg.ensemble_size * cfg.micro_steps * cfg.dt_micro
    if abs(horizon - cfg.dt_macro) <= 1e-12 * cfg.dt_macro:
        brute = round(ledger.macro_steps * cfg.dt_macro / cfg.dt_micro)
        metrics.append(
            MetricResult(
                "cost_parity_vs_brute_force",
                int(ledger.micro_steps_total - brute),
                0,
                0,
                "pass" if ledger.micro_steps_total == brute else "fail",
            )
        )

    table = Table(
        name="trajectory",
        columns=("step", "value"),
        rows=tuple((i, v) for i, v in enumerate(traj.values.tolist())),
    )
    return metrics, [table]


# --------------------------------------------------------------------- patch

_DT_RATIO_DEFAULTS = {"heat": 0.4, "advection": 0.5, "biharmonic": 0.0375}
_FINAL_TIME_DEFAULTS = {"heat": 0.5, "advection": 0.5, "biharmonic": 0.005}
_STABILITY_CODES = {"stable": 0, "marginal": 1, "unstable": 2}


def _make_pde(name: str, coefficient: float) -> PdeSpec:
    if name == "heat":
        return PdeSpec.heat(coefficient)
    if name == "advection":
        return PdeSpec.advection(coefficient)
    return PdeSpec.biharmonic(coefficient)


def _exact_solution(name: str, coefficient: float):
    # single harmonic on [0, 2*pi): sin(x) shifts (advection) or decays (heat, biharmonic)
    if name == "advection":
        return lambda xs, t: np.sin(xs - coefficient * t)
    return lambda xs, t: np.exp(-coefficient * t) * np.sin(xs)


def _patch_setup(p: dict, n_points: int):
    pde = _make_pde(p["pde"], p["coefficient"])
    dx = 2.0 * math.pi / n_points
    ratio = p["dt_ratio"] or _DT_RATIO_DEFAULTS[p["pde"]]
    dt_macro = ratio * dx ** pde.max_order
    dt_micro = p["dt_micro_factor"] * dt_macro
    scheme = LiftingScheme(p["lifting"], wind_sign=p["wind_sign"])
    cfg = PatchConfig(
        lifting=scheme,
        tooth=ToothConfig(h=p["h_fraction"] * dx),
        dt_micro=dt_micro,
        dt_macro=dt_macro,
        alpha=p["alpha"],
    )
    return pde, cfg, dx


def _run_patch(p: dict, seed: int):
    pde, cfg, dx = _patch_setup(p, p["n_points"])
    metrics: list[MetricResult] = []
    metrics.append(MetricResult("dt_macro", cfg.dt_macro))
    metrics.append(MetricResult("tooth_width", cfg.tooth.h))

    u0 = seeded_noise_state(p["n_points"], dx, RngStreamSpec(master_seed=seed))
    w = average_weights(cfg.lifting.degree, cfg.tooth.h)
    # one dot per row is the arithmetic of poly_average, which restrict uses;
    # a matrix-vector product may round the last bit differently
    round_trip = max(
        abs(float(w @ row) - value)
        for row, value in zip(lift_coefficients(u0, cfg.lifting, cfg.tooth.h), u0.values)
    )
    metrics.append(_checked("lift_restrict_round_trip", round_trip, 0.0, 1e-12))

    report = growth_factor_probe(
        lambda u: gap_tooth_step(u, pde, cfg), u0, p["probe_steps"]
    )
    metrics.append(MetricResult("growth_factor", report.growth_factor))
    classification = report.classification
    if p["expect_stability"]:
        verdict = "pass" if classification == p["expect_stability"] else "fail"
        metrics.append(
            MetricResult(
                f"stability_is_{p['expect_stability']}",
                _STABILITY_CODES[classification],
                _STABILITY_CODES[p["expect_stability"]],
                0,
                verdict,
            )
        )
    else:
        metrics.append(
            MetricResult(f"stability_code_{classification}", _STABILITY_CODES[classification])
        )

    tables: list[Table] = []
    if p["grids"]:
        final_time = p["final_time"] or _FINAL_TIME_DEFAULTS[p["pde"]]
        exact = _exact_solution(p["pde"], p["coefficient"])

        def make_problem(n: int):
            pde_n, cfg_n, dx_n = _patch_setup(p, n)
            xs = dx_n * np.arange(n)
            u_init = MacroState(values=np.sin(xs), dx=dx_n)
            return (lambda u: gap_tooth_step(u, pde_n, cfg_n)), u_init

        study = convergence_order(make_problem, p["grids"], final_time, exact)
        if math.isnan(p["expect_order"]):
            metrics.append(MetricResult("convergence_order", study.fitted_order))
        else:
            metrics.append(
                _checked(
                    "convergence_order",
                    study.fitted_order,
                    p["expect_order"],
                    p["order_tolerance"],
                )
            )
        tables.append(
            Table(
                name="convergence",
                columns=("n_points", "dx", "error"),
                rows=tuple(
                    (n, dx_n, err)
                    for n, dx_n, err in zip(study.grid_sizes, study.spacings, study.errors)
                ),
            )
        )
    return metrics, tables


# -------------------------------------------------------------- order-detect

# target -> (default d_max, PDE factory)
_TARGET_PDES = {
    "heat": (2, PdeSpec.heat),
    "advection": (2, PdeSpec.advection),
    "biharmonic_d4": (4, PdeSpec.biharmonic),
    "biharmonic_d2": (2, PdeSpec.biharmonic),
}


def _run_order_detect(p: dict, seed: int):
    budget = p["budget"] or None
    if p["target"] == "adversarial":
        box = BlackBoxFunction(
            evaluator=lambda pt: pt[0] + pt[99],
            arity=100,
            evaluation_budget=budget,
        )
    else:
        d_default, factory = _TARGET_PDES[p["target"]]
        d_max = p["d_max"] or d_default
        box = derivative_blackbox(
            factory(1.0), d_max=d_max, dt=p["dt_micro"], h=p["h"],
            evaluation_budget=budget,
        )
    probe = ProbeSpec(
        n_base=p["n_base"],
        n_perturb=p["n_perturb"],
        halfwidth=p["halfwidth"],
        seed=seed,
    )
    report = detect_order(box, probe, stop_after=p["stop_after"] or None)

    metrics: list[MetricResult] = []
    if p["expected_order"] >= 0:
        metrics.append(
            _checked("detected_order", int(report.detected_order),
                     int(p["expected_order"]), 0)
        )
    else:
        metrics.append(MetricResult("detected_order", int(report.detected_order)))
    metrics.append(MetricResult("coordinates_probed", len(report.indices)))
    metrics.append(MetricResult("stopped_early", report.stopped_early))
    metrics.append(MetricResult("budget_exhausted", report.budget_exhausted))
    metrics.append(MetricResult("evaluations_used", int(report.budget_used)))
    metrics.append(MetricResult("threshold", report.threshold))

    table = Table(
        name="variances",
        columns=("index", "variance", "dependent"),
        rows=tuple(
            (idx, var, dep)
            for idx, var, dep in zip(report.indices, report.variances, report.dependent)
        ),
    )
    return metrics, [table]


# ------------------------------------------------------------------------ kp


def _synthetic_paths(kind: str, n_traj: int, n_samples: int, rng: RngStreamSpec):
    from .core import generator

    times = np.linspace(0.0, 1.0, n_samples + 1)
    gen = generator(rng)
    if kind == "brownian":
        dt = times[1] - times[0]
        steps = gen.standard_normal((n_traj, n_samples)) * math.sqrt(dt)
        values = np.concatenate(
            [np.zeros((n_traj, 1)), np.cumsum(steps, axis=1)], axis=1
        )
    else:  # ballistic: linear ramps with random slopes
        slopes = gen.standard_normal((n_traj, 1)) + 2.0
        values = slopes * times[None, :]
    return times, values


def _run_kp(p: dict, seed: int):
    metrics: list[MetricResult] = []
    tables: list[Table] = []
    bands = p["gamma_bands"]
    if bands and len(bands) != len(p["deltas"]):
        raise ConfigError(
            f"gamma_bands has {len(bands)} entries but deltas has {len(p['deltas'])}"
        )
    rng = RngStreamSpec(master_seed=seed)
    for i, delta in enumerate(p["deltas"]):
        slug = _slug(delta)
        sample_dt = p["total_time"] / p["n_samples"]
        dt = min(p["dt_scale"] * delta * delta, sample_dt)
        try:
            run = ensemble_velocities(
                n_trajectories=p["n_trajectories"],
                n_modes=p["n_modes"],
                spectrum=p["spectrum"],
                delta=delta,
                total_time=p["total_time"],
                dt=dt,
                rng=rng.at(step_id=i),
                initial=(p["x0"], p["v0"]),
                n_samples=p["n_samples"],
                validate=p["validate_dt"],
            )
        except DtSelfConsistencyError as err:
            # an unresolved step leaves no trajectory worth fitting at this delta
            metrics += [
                MetricResult(f"dt_self_consistent_delta_{slug}", False, verdict="fail"),
                MetricResult(f"dt_check_trajectory_delta_{slug}", err.trajectory),
                MetricResult(f"energy_error_delta_{slug}", err.deviation / err.scale),
            ]
            continue
        if run.energy_error is not None:
            metrics.append(
                MetricResult(f"energy_error_delta_{slug}", float(np.max(run.energy_error)))
            )
        times, velocities = run
        fit = msd_exponent(
            times, velocities, p["fit_lag_lo"], p["fit_lag_hi"], n_lags=p["n_lags"]
        )
        name = f"gamma_delta_{slug}"
        if bands:
            lo, hi = bands[i]
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            metrics.append(_checked(name, fit.gamma, mid, half))
        else:
            metrics.append(MetricResult(name, fit.gamma))
        tables.append(
            Table(
                name=f"msd_{slug}",
                columns=("lag", "msd"),
                rows=tuple(zip(fit.lags.tolist(), fit.msd.tolist())),
            )
        )
    if p["calibrate"]:
        cal_rng = rng.at(stream_id=2**32)
        for kind, target in (("brownian", 1.0), ("ballistic", 2.0)):
            times, values = _synthetic_paths(
                kind, p["n_trajectories"], p["n_samples"], cal_rng.at(step_id=int(target))
            )
            fit = msd_exponent(times, values, 0.012, 0.24, n_lags=p["n_lags"])
            metrics.append(_checked(f"calibration_{kind}", fit.gamma, target, 0.1))
    return metrics, tables


def _slug(value: float) -> str:
    return repr(float(value)).replace(".", "p").replace("-", "m")


_RUNNERS = {
    "projective": _run_projective,
    "patch": _run_patch,
    "order-detect": _run_order_detect,
    "kp": _run_kp,
}
