"""``patchlab`` command line entry point.

Exit codes: 0 all checks passed (or nothing to check), 1 at least one check
failed (a failed numerical precondition included), 2 configuration or usage
error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .config import EXPERIMENTS, ConfigError, parse_config
from .runner import OverwriteError, render_summary, run_experiment, write_results

__all__ = ["main"]


def _seed_type(raw: str) -> int:
    value = int(raw)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must be an unsigned 64-bit integer")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patchlab",
        description="Coarse projective integration and gap-tooth experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "projective": "coarse projective integration of a scalar SDE",
        "patch": "gap-tooth stability probe and grid convergence study",
        "order-detect": "black-box spatial order detection",
        "kp": "particle-in-random-field displacement exponents",
    }
    for name in EXPERIMENTS:
        cmd = sub.add_parser(name, help=helps[name])
        cmd.add_argument("--config", required=True, help="path to config file")
        cmd.add_argument("--seed", type=_seed_type, help="override [experiment] seed")
        cmd.add_argument("--out", help="override output directory")
        cmd.add_argument("--force", action="store_true", help="overwrite existing output")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config) as fh:
            text = fh.read()
    except OSError as err:
        print(f"error: cannot read config: {err}", file=sys.stderr)
        return 2

    try:
        config = parse_config(text)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    if config.experiment != args.command:
        print(
            f"error: config names experiment {config.experiment!r} "
            f"but the {args.command!r} command was invoked",
            file=sys.stderr,
        )
        return 2

    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    out_dir = args.out or config.output_dir()

    try:
        record = run_experiment(config)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    try:
        paths = write_results(record, out_dir, force=args.force)
    except OverwriteError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    sys.stdout.write(render_summary(record))
    print(f"wrote {len(paths)} files to {out_dir} ({record.wall_time_s:.2f}s)")
    return 1 if record.failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
