"""One workload process: set up, run timed passes, check every output.

Started by ``run.py`` with BLAS threads pinned to 1; prints one JSON object
as its last line of standard output.  With ``--setup-only`` it stops once
the workload is ready to run and reports only the set-up time.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import time

import numpy as np

from hostspeed import HostSampler, Reference
from spans import (
    LAYER_METRICS, NullTracer, Recorder, layer_stats, pass_metrics, raw_table, save_spans,
)
from workloads import WORKLOADS, Checks, summary_rows

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_DIR = os.path.join(ROOT, ".perfbench")
PAIRING_WINDOW_S = 0.5


def _passes(run, checks, tracer, budget_s, min_passes, reference, on_pass=None):
    """Run passes until the next one would end past ``budget_s``.

    Returns the (start, end) ``time.perf_counter`` times of every pass.
    """
    spans: list[tuple[float, float]] = []
    began = time.perf_counter()
    while len(spans) < min_passes or (
        time.perf_counter() - began + statistics.median(e - s for s, e in spans) <= budget_s
    ):
        with tempfile.TemporaryDirectory(dir=WORK_DIR) as pass_dir:
            start = time.perf_counter()
            outputs = run.run_pass(pass_dir, checks, tracer)
            if not reference:
                reference.update(outputs)
            else:
                for label, files in reference.items():
                    checks.record(outputs.get(label) == files,
                                  f"{label}: outputs differ from the first pass")
            spans.append((start, time.perf_counter()))
        if on_pass is not None:
            on_pass(outputs)
    return spans


def _walls(spans) -> list[float]:
    return [end - start for start, end in spans]


def _sampled_passes(run, checks, budget_s, reference, ref):
    """Untraced passes with the host sampled meanwhile.

    Returns (work_s, reference_s) of every pass but the first, which warms
    caches and lazy imports and is checked but not timed.  ``work_s`` is the
    pass's wall time less the reference samples taken inside it, and
    ``reference_s`` the mean duration of the samples taken from
    ``PAIRING_WINDOW_S`` before the pass to as long after it: a short pass
    holds only two or three samples, and the host's speed drifts more
    slowly than that window.
    """
    with HostSampler(ref) as sampler:
        spans = _passes(run, checks, NullTracer(), budget_s, 2, reference)
    timed = []
    for start, end in spans[1:]:
        inside = sampler.between(start, end)
        around = sampler.between(start - PAIRING_WINDOW_S, end + PAIRING_WINDOW_S)
        timed.append((end - start - sum(inside), statistics.fmean(around)))
    return timed


def _summary_totals(outputs) -> dict[str, int]:
    totals: dict[str, int] = {}
    for files in outputs.values():
        for name, value, _ in summary_rows(files.get("summary", b"")):
            if name in ("micro_steps_total", "evaluations_used"):
                totals[name] = totals.get(name, 0) + int(value)
    return totals


def _traced(run, checks, budget_s, reference, spans_path):
    """Traced passes: per-layer metrics (median over passes) and the raw layer table."""
    rec = Recorder()
    per_pass: list[dict[str, float]] = []
    last = {}

    def collect(outputs):
        totals = _summary_totals(outputs)
        snap = rec.snapshot()
        whole, items = layer_stats(snap)
        metrics = pass_metrics(whole, items, rec.counts, totals)
        if "micro_steps_total" in totals:
            checks.record(totals["micro_steps_total"] == rec.counts["em_member_steps"],
                          f"CostLedger {totals['micro_steps_total']} micro steps, traced "
                          f"{rec.counts['em_member_steps']} member steps")
        if "evaluations_used" in totals:
            calls = metrics["order_detect.evaluations"]
            checks.record(totals["evaluations_used"] == calls,
                          f"summaries report {totals['evaluations_used']} evaluations, "
                          f"traced {calls}")
        if per_pass:
            for name, (_, _, repeats) in LAYER_METRICS.items():
                if repeats:
                    checks.record(metrics[name] == per_pass[0][name],
                                  f"{name} changed between passes")
        per_pass.append(metrics)
        last.update(snap=snap, table=raw_table(whole))
        rec.reset()

    rec.install()
    try:
        walls = _walls(_passes(run, checks, rec, budget_s, 2, reference, collect))
    finally:
        rec.uninstall()
    save_spans(spans_path, last["snap"])
    # counts repeat exactly (checked above), times are medians over the passes
    layers = {
        name: {"value": per_pass[0][name] if repeats
               else statistics.median(p[name] for p in per_pass), "unit": unit}
        for name, (unit, _, repeats) in LAYER_METRICS.items()
    }
    return walls, layers, last["table"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before it started this process")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import patchlab

    source = os.path.join(ROOT, "src", "patchlab")
    if os.path.dirname(os.path.abspath(patchlab.__file__)) != source:
        raise SystemExit(f"patchlab imported from {patchlab.__file__}, not from {source}")

    os.makedirs(WORK_DIR, exist_ok=True)
    workload = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as inputs_dir:
        run = workload.setup(args.seed, inputs_dir)
        result = {"setup_s": time.monotonic() - args.spawned_at}
        try:
            if not args.setup_only:
                checks = Checks()
                reference: dict = {}
                if args.trace:
                    untraced = _walls(_passes(run, checks, NullTracer(), args.seconds / 3, 1,
                                              reference))
                    spans_path = os.path.join(WORK_DIR, f"spans-{args.workload}.npz")
                    traced, layers, table = _traced(
                        run, checks, args.seconds - sum(untraced), reference, spans_path
                    )
                    layers["trace.overhead_ratio"]["value"] = min(traced) / min(untraced)
                    result.update(traced_walls=traced, layers=layers, table=table,
                                  spans=os.path.relpath(spans_path, ROOT))
                else:
                    untraced = _sampled_passes(run, checks, args.seconds, reference, Reference())
                result.update(
                    walls=untraced,
                    attempted=checks.attempted,
                    failed=checks.failed,
                    peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    numpy=np.__version__,
                )
        finally:
            run.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
