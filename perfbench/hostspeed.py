"""Samples of the host's speed, taken while a pass runs.

On the shared 2-vCPU guest the benchmark was written on, other tenants' load
moved the speed of the guest's own CPUs by 20-35 % (interquartile range of
pass times) within minutes, and CPU time moved with wall time, so the load
slows the computation itself rather than preempting it.  The same load slows
a fixed reference computation, so the worker runs one from a timer signal
every ``SAMPLE_PERIOD_S`` of wall time, inside the pass, and reports each pass
in units of the reference's duration around that pass.  The samples must be
dense: with one sample per 2.5 s pass the pass times and the samples
correlated at 0.5, with one per 50 ms item at 0.98.
"""

from __future__ import annotations

import signal
import time

import numpy as np

SAMPLE_PERIOD_S = 0.2
# Duration of one reference on a quiet host (2-vCPU KVM guest, Intel Xeon
# with AVX-512, Python 3.11.7, numpy 2.4.6).  It only scales the ratio of a
# pass to the reference back to seconds; the ratio is what is compared.
REFERENCE_S = 0.0028


class Reference:
    """A fixed computation with the mix of the workloads: interpreter loops,
    ufunc calls on tiny arrays, a Philox stream and bulk array arithmetic."""

    def __init__(self):
        # a generator of its own: the program's random streams are untouched
        rng = np.random.Generator(np.random.Philox(20260))
        self._tiny = rng.standard_normal(10)
        self._bulk = rng.standard_normal((24, 256))
        self._phase = rng.standard_normal(256)

    def run(self) -> float:
        """Duration of one reference computation in seconds."""
        start = time.perf_counter()
        acc = 0.0
        for i in range(8000):
            acc += (i % 7) * 0.5
        x = self._tiny
        for _ in range(600):
            x = 0.9 * x + 0.1 * (x * x) / (1.0 + x * x)
        draws = np.random.Generator(np.random.Philox(7)).standard_normal(1000)
        y = np.cos(self._bulk * 1.1 + self._phase).sum(axis=0)
        acc += float(x.sum()) + float(draws @ draws) + float(y.sum())
        end = time.perf_counter()
        if not np.isfinite(acc):
            raise FloatingPointError("reference computation diverged")
        return end - start


class HostSampler:
    """Runs the reference from SIGALRM every ``SAMPLE_PERIOD_S`` while entered.

    Python runs the handler in the main thread between bytecodes, so a sample
    lands inside the pass wherever it is; ``samples`` holds (end time,
    duration) pairs on the ``time.perf_counter`` clock.
    """

    def __init__(self, reference: Reference):
        self._reference = reference
        self.samples: list[tuple[float, float]] = []
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        duration = self._reference.run()
        self.samples.append((time.perf_counter(), duration))

    def __enter__(self) -> "HostSampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def between(self, start: float, end: float) -> list[float]:
        """Durations of the samples that ended in [start, end]."""
        return [d for t, d in self.samples if start <= t <= end]
