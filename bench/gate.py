"""Host-speed gate: keep the timed samples a busy host did not slow.

The benchmark's reference host (2 vCPUs shared with other machines) runs the
same work about twice as slowly for stretches of tens of milliseconds to
several seconds, with CPU time slowed by the same factor, so neither wall
nor CPU time can tell.  The share of slow time changes from minute to
minute, which moves every time-averaged figure by up to 2x between runs.

While a run measures, a timer signal probes the host every ``INTERVAL_S``:
each probe times a fixed numpy kernel that does not touch the package under
test.  Each vCPU of the host slows on its own, and a process the kernel
leaves on a slow vCPU can stay slow for a whole run, so before every pass
and round of set-ups the run moves to the vCPU that runs the kernel fastest
(:meth:`HostGate.pin_fastest_cpu`).

Samples are judged in populations (all ticks of a run, say).  A probe takes
longer when it interrupts work that fills the caches, so a probe is *slow*
when it took more than ``QUIET_RATIO`` times the population's fast probe
time: the 5th percentile of the probes that ended inside its samples.  With
``W`` the median duration of the population, a sample starting at ``t`` is
judged by the probes from the last one before ``t`` to the first one after
``t + W``.  The window depends on the sample's start alone, not on how long
the sample ran, so within a population long and short samples (a slow tick
and a fast one) are kept at the same rate and percentiles of the kept
samples are not skewed towards short ones; a typical sample is still
covered whole.  Timings are aggregated over the samples whose window held no
slow probe, or, when fewer than ``MIN_CLEAN`` are that clean, over the
``KEEP_SHARE`` of them (at least ``MIN_CLEAN``) whose windows had the
smallest share of slow probes, earlier samples first among equals.  Time
spent in probes is taken out of the samples it fell into.  Parent and change
are measured with the same gate and the same kernel.
"""

from __future__ import annotations

import os
import signal
import time
from array import array
from contextlib import contextmanager

import numpy as np

INTERVAL_S = 0.005
QUIET_RATIO = 1.3
KEEP_SHARE = 0.05
MIN_CLEAN = 10
_KERNEL = np.ones((10, 2))


def _kernel_ns(reps: int) -> int:
    t0 = time.perf_counter_ns()
    for _ in range(reps):
        np.sum(_KERNEL * _KERNEL)
    return time.perf_counter_ns() - t0


class HostGate:
    def __init__(self):
        self.stamps = array("q")  # probe end times, perf_counter_ns
        self.probes = array("q")  # probe durations, ns
        self.cpus = sorted(os.sched_getaffinity(0))

    def pin_fastest_cpu(self) -> int:
        """Run on the allowed vCPU that runs the probe kernel fastest now; returns it."""
        if len(self.cpus) < 2:
            return self.cpus[0]
        speed = {}
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            speed[cpu] = min(_kernel_ns(100) for _ in range(3))
        best = min(speed, key=speed.get)
        os.sched_setaffinity(0, {best})
        return best

    def _probe(self, signum=None, frame=None) -> None:
        took = _kernel_ns(10)
        self.stamps.append(time.perf_counter_ns())
        self.probes.append(took)

    @contextmanager
    def running(self):
        """Probe the host every INTERVAL_S, and once at each end, inside the block.

        The vCPUs the process may run on are restored when the block ends.
        """
        previous = signal.signal(signal.SIGALRM, self._probe)
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self._probe()
            os.sched_setaffinity(0, self.cpus)

    def _fast(self, reference=None) -> np.ndarray:
        probes = np.frombuffer(self.probes, dtype=np.int64)
        return probes <= QUIET_RATIO * np.percentile(probes if reference is None else reference, 5)

    def kept(self, spans) -> tuple[np.ndarray, np.ndarray]:
        """(durations in ns without probe time, keep mask) of (start, end) pairs.

        The mask depends on the starts and the median duration alone.
        """
        spans = np.asarray(spans, dtype=np.int64).reshape(-1, 2)
        stamps = np.frombuffer(self.stamps, dtype=np.int64)
        probes = np.frombuffer(self.probes, dtype=np.int64)
        probe_ns = np.concatenate([[0], np.cumsum(probes)])
        first_in = np.searchsorted(stamps, spans[:, 0], side="right")
        first_after = np.searchsorted(stamps, spans[:, 1], side="left")
        durations = spans[:, 1] - spans[:, 0] - (probe_ns[first_after] - probe_ns[first_in])
        inside = np.zeros(len(stamps) + 1, dtype=np.int64)
        np.add.at(inside, first_in, 1)
        np.add.at(inside, first_after, -1)
        inside = np.cumsum(inside)[:-1] > 0
        slow = np.concatenate([[0], np.cumsum(~self._fast(probes[inside] if inside.any() else None))])
        window = int(np.median(spans[:, 1] - spans[:, 0]))
        lo = np.maximum(first_in - 1, 0)
        hi = np.minimum(np.searchsorted(stamps, spans[:, 0] + window, side="left"), len(stamps) - 1)
        slow_share = (slow[hi + 1] - slow[lo]) / (hi + 1 - lo)
        keep = slow_share == 0
        if keep.sum() < MIN_CLEAN:
            keep = np.zeros(len(spans), dtype=bool)
            keep[np.argsort(slow_share, kind="stable")[:max(MIN_CLEAN, int(KEEP_SHARE * len(spans)))]] = True
        return durations, keep

    def quiet(self, spans) -> np.ndarray:
        """Durations in ns of the samples the host slowed least, from (start, end) pairs."""
        durations, keep = self.kept(spans)
        return durations[keep].astype(float)

    def summary(self, lo: int = 0, hi: int | None = None) -> dict:
        """Probe count, the run's fast probe time and the slow share of probes lo..hi."""
        probes = np.frombuffer(self.probes, dtype=np.int64)
        slow = ~self._fast()[lo:hi]
        return {"probes": len(slow), "fast_us": float(np.percentile(probes, 5)) * 1e-3,
                "slow_share": float(slow.mean()) if len(slow) else None}
