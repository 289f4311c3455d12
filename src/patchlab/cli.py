"""``patchlab`` command line entry point: read a config, run it, write its results.

Exit codes: 0 all checks passed (or nothing to check); 1 at least one check
failed, a numerical outcome the run expects included (a diverged trajectory,
an unresolved kp step, any estimate that is not finite, such as a nan order or
exponent); 2 a configuration or usage error, found before any work (a value
that would overflow inside the run, a gamma band end that is not finite, a
drift-free projective run of fewer than 2 steps, a run past the step cap,
projective ``n_steps`` and ``ensemble_size * micro_steps`` included, a size
key whose largest array has more elements than the same cap: patch
``n_points`` and ``grids``, kp ``n_lags``, ``n_modes`` and ``n_trajectories``,
order-detect ``n_base``, ``n_perturb`` and ``d_max``), or results that cannot
be written; 3 an internal error: an exception no check
expects, reported on one line naming the experiment, the stage (plan or
execute) and the exception, with no output written.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import time

import numpy as np

from . import __version__
from .config import ConfigError, ExperimentConfig, parse_config, render_config
from .core import replace, unsigned_seed, value_type
from .runner import EXPERIMENTS, MetricResult, Table

__all__ = ["main"]


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
    """Write summary, config echo, and CSV tables; refuse to clobber.  The files
    hold no wall time, so a rerun of one config and seed writes the same bytes.

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
        execute = EXPERIMENTS[config.experiment][2](config.parameters, config.seed)
    except ValueError as err:
        raise ConfigError(f"{config.experiment}: {err}") from err
    metrics, tables = execute()
    return RunRecord(config, tuple(metrics), tuple(tables), time.perf_counter() - start)


def _seed_type(raw: str) -> int:
    try:
        return unsigned_seed(raw, "seed")
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


_EPILOG = "experiments:\n" + "\n".join(
    f"  {name:<14}{help_line}" for name, (help_line, _, _) in EXPERIMENTS.items())


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patchlab",
        description="Coarse projective integration and gap-tooth experiments.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=EXPERIMENTS, help="experiment to run (listed below)")
    parser.add_argument("--config", required=True, help="path to config file")
    parser.add_argument("--seed", type=_seed_type, help="override [experiment] seed")
    parser.add_argument("--out", help="override output directory")
    parser.add_argument("--force", action="store_true", help="overwrite existing output")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config) as fh:
            config = parse_config(fh.read())
    except OSError as err:
        print(f"error: cannot read config: {err}", file=sys.stderr)
        return 2
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    if config.experiment != args.command:
        print(f"error: config names experiment {config.experiment!r} "
              f"but the {args.command!r} command was invoked", file=sys.stderr)
        return 2

    if args.seed is not None:
        config = replace(config, seed=args.seed)
    out_dir = args.out or config.output_dir()

    try:
        record = run_experiment(config)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # neither a config error nor a verdict: a defect
        import traceback  # only on this path, so a run never pays for it

        # each experiment's execute step is a function named execute
        frames = [frame.f_code.co_name for frame, _ in traceback.walk_tb(err.__traceback__)]
        stage = "execute" if "execute" in frames else "plan"
        print(f"error: {config.experiment}: internal error in {stage}: {err!r}", file=sys.stderr)
        return 3

    try:
        paths = write_results(record, out_dir, force=args.force)
    except OverwriteError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: cannot write results: {err}", file=sys.stderr)
        return 2

    sys.stdout.write(render_summary(record))
    print(f"wrote {len(paths)} files to {out_dir} ({record.wall_time_s:.2f}s)")
    return 1 if record.failed else 0

