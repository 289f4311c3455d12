"""patchlab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload kp-scale --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seconds 5

Run from the root of a source tree.  Each workload runs in its own
single-threaded process with BLAS threads pinned to 1.  With ``--trace 0``
the last line of output reports the end-to-end metrics (``wall_s``,
``setup_s``, ``peak_rss_mb``); with ``--trace 1`` it reports the per-layer
metrics of the traced passes.  ``--workload all`` runs every workload both
ways and prints each report.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from hostspeed import REFERENCE_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("kp-scale", "projective-noise", "patch-fd", "diagnostics")
# An untraced run starts processes that only set up before and after the one
# that measures passes, so the set-up samples spread over the whole run.
SETUP_PROCESSES = 8
# Start-up of a bare interpreter that imports numpy, the set-up's reference
# (see _baseline), on a quiet host of the kind named in hostspeed.py.
BASELINE_S = 0.1
TIME_LIMIT_S = 170.0
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def _source_lines() -> int:
    total = 0
    for dirpath, _, names in os.walk(os.path.join(ROOT, "src", "patchlab")):
        for name in names:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def _env() -> dict[str, str]:
    # a fixed hash seed gives every process the same dict and set layout
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")
    env.update(dict.fromkeys(BLAS_ENV, "1"))
    return env


def _baseline(deadline: float) -> float:
    """Seconds from spawning a bare interpreter until it has imported numpy.

    The load of a shared host slows process start-up and imports much as it
    slows the workload's set-up, so each set-up is taken relative to this
    baseline, measured just before it.
    """
    spawned_at = time.monotonic()
    cmd = [sys.executable, "-c", "import time, numpy; print(repr(time.monotonic()))"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                              timeout=max(1.0, deadline - spawned_at))
    except subprocess.TimeoutExpired as err:
        raise BenchError("baseline process exceeded the time limit") from err
    if proc.returncode != 0:
        raise BenchError(f"baseline process exited with {proc.returncode}")
    return float(proc.stdout) - spawned_at


def _worker(args: list[str], deadline: float) -> dict:
    env = _env()
    spawned_at = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args,
           "--spawned-at", repr(spawned_at)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=max(1.0, deadline - spawned_at))
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"workload process exceeded the time limit: {' '.join(cmd)}") from err
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.decode().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, list[str]]:
    """Result object and report lines of one benchmark run."""
    deadline = time.monotonic() + TIME_LIMIT_S
    common = ["--workload", workload, "--seed", str(seed)]
    if trace:
        runs = [_worker(common + ["--seconds", str(seconds), "--trace", "1"], deadline)]
        setups = []
    else:
        def setup_ratio() -> float:
            baseline = _baseline(deadline)
            return _worker(common + ["--setup-only"], deadline)["setup_s"] / baseline

        setups = [setup_ratio() for _ in range(SETUP_PROCESSES // 2)]
        runs = [_worker(common + ["--seconds", str(seconds), "--trace", "0"], deadline)]
        setups += [setup_ratio() for _ in range(SETUP_PROCESSES - SETUP_PROCESSES // 2)]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    meta = {
        "python": sys.version.split()[0],
        "numpy": runs[0]["numpy"],
        "nproc": os.cpu_count(),
        "blas_threads": 1,
        "src_patchlab_lines": _source_lines(),
    }
    run = runs[0]
    lines = [
        f"# workload {workload}  seed {seed}  trace {trace}  untraced passes {len(run['walls'])}"
        + (f"  traced passes {len(run['traced_walls'])}" if trace else ""),
        f"# meta {json.dumps(meta)}",
        f"check_fail_ratio {failed / attempted:.6g} failed/attempted ({failed}/{attempted})",
    ]
    if trace:
        walls = run["walls"]
        lines.append(f"# untraced pass wall_s min {min(walls):.4g}  "
                     f"median {statistics.median(walls):.4g}  max {max(walls):.4g}")
        metrics = run["layers"]
    else:
        # each pass and each set-up in units of the host's speed at the time
        # (see hostspeed.py), scaled back to seconds of a quiet host
        walls = [work * REFERENCE_S / ref for work, ref in run["walls"]]
        setup_times = [ratio * BASELINE_S for ratio in setups]
        refs = [ref for _, ref in run["walls"]]
        lines += [
            f"# pass wall_s as measured: median {statistics.median(w for w, _ in run['walls']):.4g}"
            f"  reference during passes: median {statistics.median(refs) * 1e3:.4g} ms"
            f"  min {min(refs) * 1e3:.4g}  max {max(refs) * 1e3:.4g} (quiet host "
            f"{REFERENCE_S * 1e3:.4g})",
            f"# pass wall_s scaled: min {min(walls):.4g}  median {statistics.median(walls):.4g}"
            f"  max {max(walls):.4g}",
            f"# set-up times scaled {' '.join(f'{t:.4g}' for t in sorted(setup_times))}",
        ]
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        }
    lines += [f"{name} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    if trace:
        lines.append(f"# layer calls self_s incl_us_per_call  (last traced pass, spans in "
                     f"{run['spans']})")
        lines += [f"#   {layer} {calls} {self_s:.6g} {incl_us:.4g}"
                  for layer, calls, self_s, incl_us in run["table"]]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0,
                        help="derives every experiment seed; 0 gives the acceptance seeds")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measured time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not os.path.isfile(os.path.join(ROOT, "src", "patchlab", "__init__.py")):
        print(f"error: no patchlab source tree under {ROOT}", file=sys.stderr)
        return 2
    runs = ([(w, t) for w in WORKLOADS for t in (0, 1)] if args.workload == "all"
            else [(args.workload, args.trace)])
    for workload, trace in runs:
        try:
            result, lines = run_workload(workload, args.seed, args.seconds, trace)
        except BenchError as err:
            print(f"error: {workload}: {err}", file=sys.stderr)
            return 1
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
