"""Host speed, measured alongside the workload, and times corrected for it.

On a small shared host the same code runs at two speeds that alternate
within seconds: desk_pair steps took 1.7-1.9 ms for a while and 2.9-3.0 ms
the next, in one process, with no other process of ours running (a busy
loop on the other CPU brings the slow speed on at will).  A run's raw
median then says more about the neighbours than about the program.

So a fixed probe, which is the benchmark's own code and does not change with
the program, runs between the program's calls, twice in a row, and the
second run is timed.  `HostSpeed.now()` is a work clock: wall time with the
probes taken out.  `HostSpeed.nominal(a, b)` converts a work-clock interval
to seconds at the reference speed: each piece of the interval between two
probes is scaled by the probe's reference duration over the median of the
`NEAREST` probes around it.  A program change that saves work shows in full;
a slower or faster host does not.

A probe must slow down with the host as much as the workload does, so each
workload names its own.  With a busy loop toggled on the other CPU every 8
seconds, the program's own 8 x 128 Gram at paper scale slowed by 1.20x, the
vector probe by 1.21x and the pairwise probe by 1.54x; desk_pair's steps
are Python-bound and get the pairwise probe.  In two sets of ten 60-second
runs on such a host, the step medians spread (interquartile range over
median) by 11% and 7.8% raw and by 1.9% and 2.8% corrected on desk_pair, and
by 7.6% and 17% raw and 5.3% and 3.0% corrected on paper_t96.
"""

from __future__ import annotations

import bisect
import statistics
import time
from array import array

import numpy as np

import reference

NEAREST = 7

def pairwise_probe():
    """The exact pairwise objective on four fixed windows: Python-level
    loops over small NumPy calls, like a desk-sized training step."""
    rng = np.random.default_rng(20240601)
    hist, label, forecast = (list(rng.standard_normal((4, n, 2))) for n in (24, 12, 12))

    def run():
        reference.loss_and_grad(hist, label, forecast, alpha=0.3, top_k=3,
                                margin_c=1e-3, sigma=1.0)

    return run


def vector_probe():
    """Two rows of a squared-distance Gram block against 128 windows of
    4032 values, streamed through a preallocated 4 MB buffer: like a Gram
    row of a paper-scale training step."""
    rng = np.random.default_rng(20240602)
    rows, cols = rng.standard_normal((2, 4032)), rng.standard_normal((128, 4032))
    buf, out = np.empty_like(cols), np.empty(len(cols))

    def run():
        for row in rows:
            np.subtract(row, cols, out=buf)
            np.multiply(buf, buf, out=buf)
            np.sum(buf, axis=1, out=out)

    return run


# Each probe and its duration at the reference host speed (an "Intel(R)
# Xeon(R) Processor" at 2.0 GHz, NumPy 2.4, one BLAS thread).  Fixed once:
# every corrected time scales with it.
PROBES = {
    "pairwise": (pairwise_probe, 3.0e-4),
    "vector": (vector_probe, 2.5e-3),
}
# A probe runs twice, at most once per EVERY probe durations: at most 4% of
# a run goes to probing.
EVERY = 50


class HostSpeed:
    """Probes between the program's calls, and a clock without the probes.

    With `probe=None` nothing is probed: `now()` is wall time and
    `nominal(a, b)` is `b - a`.
    """

    def __init__(self, probe: str | None):
        self.probe, self.reference_s = None, None
        if probe is not None:
            make, self.reference_s = PROBES[probe]
            self.probe = make()
        self.every_s = EVERY * self.reference_s if probe else None
        self.at = array("d")       # work-clock time of each probe
        self.probe_s = array("d")  # its duration
        self._hidden = 0.0
        self._due = 0.0

    def now(self) -> float:
        return time.perf_counter() - self._hidden

    def tick(self, force: bool = False) -> None:
        """Probe if `every_s` has passed since the last probe (or if forced)."""
        if self.probe is None:
            return
        start = time.perf_counter()
        if start < self._due and not force:
            return
        self.probe()  # warms caches the program's own work has evicted
        t0 = time.perf_counter()
        self.probe()
        end = time.perf_counter()
        self.at.append(start - self._hidden)
        self.probe_s.append(end - t0)
        self._hidden += end - start
        self._due = end + self.every_s

    def speed_at(self, t: float) -> float:
        """Median probe duration of the NEAREST probes around work time t."""
        i = bisect.bisect_left(self.at, t)
        lo = max(0, min(i - NEAREST // 2, len(self.at) - NEAREST))
        return statistics.median(self.probe_s[lo : lo + NEAREST])

    def nominal(self, a: float, b: float) -> float:
        """Seconds the work-clock interval [a, b] would take at reference speed."""
        if self.probe is None:
            return b - a
        if not self.at:
            raise RuntimeError("no host-speed probe was taken")
        i, j = bisect.bisect_right(self.at, a), bisect.bisect_left(self.at, b)
        cuts = [a, *self.at[i:j], b]
        return sum(
            (hi - lo) * self.reference_s / self.speed_at(0.5 * (lo + hi))
            for lo, hi in zip(cuts, cuts[1:])
        )

    def factor(self) -> float:
        """Median probe over the reference probe: above 1 on a slower host."""
        if self.probe is None:
            return 1.0
        return statistics.median(self.probe_s) / self.reference_s
