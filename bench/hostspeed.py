"""Host-speed sampling: a fixed reference kernel timed beside the program.

This benchmark runs on a few cores of a shared host whose speed drifts by
up to ~1.7x, in stretches from a fraction of a second to minutes, longer
than a run. The drift slows the CPU itself (a process's CPU time grows with
its wall time), so neither CPU time nor a statistic taken within a run
removes it.

So while it measures, the worker samples the host's speed: a wall-clock
timer interrupts the program every ``INTERVAL_S`` and runs a short, fixed,
pure-Python reference kernel in the signal handler, which uses nothing from
``dictad``. An interval the benchmark times is then reported in *reference
seconds*: its raw seconds, less the probes inside it, times the mean of
``REFERENCE_S / r`` over the probes taken during it and just around it,
where ``r`` is one probe's time. At the reference speed a reference second is a second. A
change to the program moves its times and not ``r``, so it shows in full,
while a host slowdown moves both and largely cancels out.

A signal handler runs between Python bytecodes, so a probe never splits a
reading of the clock; a long call into C defers it to the call's end.
"""

from __future__ import annotations

import bisect
import random
import signal
import time

# the reference kernel's time on an unloaded host (2-vCPU Xeon, Python
# 3.11); it only sets the scale of the reported figures
REFERENCE_S = 0.001
INTERVAL_S = 0.05  # one probe per 50 ms of wall time, ~2 % of it

_rng = random.Random(20200302)
_TEXT = [f"{_rng.gauss(0.0, 1.0):.6f}" for _ in range(800)]


def reference_kernel() -> float:
    """A fixed mix of interpreter work like the program's: text to float
    and back, as in CSV reading and writing, float arithmetic and
    dictionary updates in a loop."""
    values = [float(t) for t in _TEXT]
    ",".join(f"{v:.6f}" for v in values)
    acc, counts = 0.0, {}
    for i, v in enumerate(values):
        acc += v * v - i * 1e-3
        counts[i % 37] = counts.get(i % 37, 0) + i
    return acc


class HostSpeed:
    """The probes taken in one process, and the conversion of the raw
    intervals it timed into reference seconds."""

    def __init__(self):
        self.starts, self.ends, self.speeds = [], [], []  # speed: REFERENCE_S / r
        self._cum_ns = [0]  # prefix sums of probe durations
        self._previous = None

    def probe(self, *_signal_args) -> None:
        t0 = time.perf_counter_ns()
        reference_kernel()
        t1 = time.perf_counter_ns()
        self.starts.append(t0)
        self.ends.append(t1)
        self.speeds.append(REFERENCE_S * 1e9 / (t1 - t0))
        self._cum_ns.append(self._cum_ns[-1] + t1 - t0)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def probe_ns_within(self, start_ns: int, end_ns: int) -> int:
        """Nanoseconds spent in probes inside the interval."""
        i = bisect.bisect_left(self.starts, start_ns)
        j = bisect.bisect_right(self.ends, end_ns)
        return self._cum_ns[j] - self._cum_ns[i] if j > i else 0

    def factors(self, starts, ends):
        """The mean of REFERENCE_S / r over the probes taken within
        INTERVAL_S of each interval (at least the nearest one), for arrays
        of interval starts and ends in ns; 1.0 where nothing was sampled
        (the traced run)."""
        import numpy as np

        starts, ends = np.asarray(starts), np.asarray(ends)
        n = len(self.speeds)  # the timer may add probes while this runs
        if n == 0:
            return np.ones(starts.size)
        cum = np.concatenate([[0.0], np.cumsum(self.speeds[:n])])
        pad = int(INTERVAL_S * 1e9)
        i = np.searchsorted(self.starts[:n], starts - pad, side="left")
        j = np.searchsorted(self.ends[:n], ends + pad, side="right")
        j = np.maximum(j, np.minimum(i + 1, n))
        i = np.minimum(i, j - 1)
        return (cum[j] - cum[i]) / (j - i)

    def seconds_of(self, start_ns: int, end_ns: int) -> float:
        """The interval in reference seconds, probe time excluded."""
        net = end_ns - start_ns - self.probe_ns_within(start_ns, end_ns)
        return net / 1e9 * float(self.factors([start_ns], [end_ns])[0])
