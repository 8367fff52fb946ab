"""Machine-speed sampler: wall time expressed in reference-machine seconds.

The benchmark runs on a few cores of a shared host whose speed, for the
same code and inputs, swings by tens of percent within seconds and by up
to 2.5x between phases lasting minutes. A raw wall time then measures the
neighbours as much as the program. :class:`SpeedSampler` measures the
machine's speed *while* the workload runs: an interval timer (SIGALRM,
every :data:`PERIOD_S`) interrupts the workload between two bytecodes and
times a fixed probe kernel of about 0.4 ms (interpreter work and numpy
calls on small arrays, the program's own mix; see :func:`probe`).
:meth:`SpeedSampler.reference_s` then turns a wall-clock window into the
time the window's workload would take on a machine that runs the probe in
:data:`PROBE_REF_S`:

    sum over the window's workload segments of  segment * PROBE_REF_S / probe

where ``probe`` is the rolling median of the probe times around the
segment, and the probe's own time is left out. A probe held back by a
long C call (an LP solve, a batched Dijkstra) runs as soon as the call
returns, so the call is weighted by the speed measured right after it.

The probe kernel is the benchmark's own code, fixed, so a change to the
program moves the workload's segments and not the probe: the reference
time keeps every speed-up and slow-down of the program, and loses most of
the host's. (A change that thrashes the caches also slows the probes a
little, so a small part of such a slow-down is lost too.)
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

__all__ = ["PERIOD_S", "PROBE_REF_S", "SpeedSampler", "probe"]

#: Interval between two probes. At ~0.4 ms a probe, the sampler costs ~2%.
PERIOD_S = 0.02
#: Probe time of the reference machine: the median in-run probe time on a
#: 2-vCPU shared Xeon VM (Python 3.11, numpy 2.4). It only scales the
#: reported times; any fixed value would do.
PROBE_REF_S = 4.0e-4
#: Probes in the rolling median that smooths out a single preempted probe.
SMOOTH = 5

_KEYS = tuple(range(120))
_VALUES = np.random.default_rng(0).random(1500)
_SMALL = np.arange(16.0)


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def probe() -> float:
    """Run the fixed probe kernel once and return its duration in seconds.

    Three parts, each about a third of the time: dict updates with a
    numpy sort, object allocation and attribute reads with a keyed sort,
    and a loop of numpy calls on a tiny array (call overhead, not data).
    Probes that stream memory tracked the workloads' run times worse.
    """
    clock = time.perf_counter
    start = clock()
    counts: dict[int, int] = {}
    for key in _KEYS:
        counts[key & 31] = counts.get(key & 31, 0) + key
    np.argsort(_VALUES, kind="stable")
    pairs = [_Pair(i, 2 * i) for i in range(150)]
    total = 0
    for pair in pairs:
        total += pair.a + pair.b
    sorted({i: p for i, p in enumerate(pairs)}, key=lambda k: -k)
    for _ in range(25):
        y = _SMALL * 1.5 + 2.0
        total += float(y.max()) + float(np.dot(y, _SMALL))
    return clock() - start


class SpeedSampler:
    """Probes the machine every :data:`PERIOD_S` between start and stop."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        self.starts.append(time.perf_counter())
        self.durations.append(probe())

    def start(self) -> None:
        probe()  # warm the kernel's code paths before the first sample
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._on_alarm(signal.SIGALRM, None)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self._on_alarm(signal.SIGALRM, None)
        self.freeze()

    def freeze(self) -> None:
        """Smooth the recorded probes into per-probe speed weights."""
        half = SMOOTH // 2
        d = self.durations
        self._weights = [
            PROBE_REF_S / statistics.median(d[max(0, i - half):i + half + 1])
            for i in range(len(d))]
        self._ends = [s + t for s, t in zip(self.starts, d)]

    def reference_s(self, t0: float, t1: float) -> float:
        """Reference-machine seconds of the workload run in ``[t0, t1]``."""
        starts, ends, weights = self.starts, self._ends, self._weights
        i = bisect.bisect_left(starts, t0)
        total = 0.0
        cursor = max(t0, ends[i - 1]) if i > 0 else t0
        while i < len(starts) and starts[i] < t1:
            total += max(starts[i] - cursor, 0.0) * weights[i]
            cursor = ends[i]
            i += 1
        tail = weights[min(i, len(weights) - 1)]
        return total + max(t1 - cursor, 0.0) * tail

    def summary(self) -> dict:
        return {"probes": len(self.durations),
                "probe_median_s": statistics.median(self.durations)}
