"""``patchlab`` command line entry point.

Exit codes: 0 all checks passed (or nothing to check); 1 at least one check
failed, a numerical outcome the run expects included (a diverged trajectory,
an unresolved kp step, any estimate that is not finite, such as a nan order or
exponent); 2 a configuration or usage error, found before any work (a value
that would overflow inside the run, a gamma band end that is not finite, a
drift-free projective run of fewer than 2 steps, a run past the step cap,
projective ``n_steps`` and ``ensemble_size * micro_steps`` included), or
results that cannot be written; 3 an internal error: an exception no check
expects, reported on one line naming the experiment, the stage (plan or
execute) and the exception, with no output written.
"""

from __future__ import annotations

import argparse
import sys

from .config import EXPERIMENTS, ConfigError, parse_config
from .core import replace, unsigned_seed
from .runner import OverwriteError, render_summary, run_experiment, write_results

__all__ = ["main"]


def _seed_type(raw: str) -> int:
    try:
        return unsigned_seed(raw, "seed")
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


_EPILOG = "experiments:\n" + "\n".join(f"  {name:<14}{line}" for name, line in EXPERIMENTS.items())


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


if __name__ == "__main__":
    raise SystemExit(main())
