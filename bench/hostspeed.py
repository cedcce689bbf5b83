"""Host-speed probes: a fixed pure-Python reference task, timed every half
second while a workload runs.

The benchmark runs on a shared 2-core machine whose speed swings by up to
1.8x within seconds, for reasons outside the program: the same block of
decide() calls took 0.47 s or 0.86 s, and the reference task 4.1 ms or
7.3 ms beside it.  The reference task does the same kind of work as zodom
(Fraction arithmetic, tuples, dicts), so its time tracks the host's speed.
A timer signal runs a probe burst every ``EVERY_S`` seconds, also inside a
long operation; :meth:`HostSpeed.normalize` then takes each stretch between
bursts, minus the bursts' own time, and divides it by the host's slowness at
its ends.  The result is seconds at the reference speed, the speed at which
the task takes ``REF_S``; :meth:`HostSpeed.latency` does the same for one
operation.  Dividing each block of decide() calls by the bursts beside it
cut the spread of the block times from 31 % to 9 % (interquartile range
over median, 166 blocks).
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter

REF_S = 0.004  # median probe time on the reference host (2-core Xeon at 2.1 GHz, CPython 3.11.7)
EVERY_S = 0.5  # probe period while a pass runs


def _reference_task():
    acc = Fraction(0)
    table = {}
    for i in range(1, 1200):
        acc += Fraction(i % 97, i)
        table[(i, i % 13)] = acc.denominator % 1000
    return acc, len(table)


class HostSpeed:
    """Probe bursts taken over a run.  A burst runs the reference task three
    times back to back and keeps the fastest, so that the caches the
    workload left cold do not read as a slow host."""

    BURST = 3

    def __init__(self):
        self.starts: list[float] = []  # burst start times
        self.durations: list[float] = []  # whole bursts, taken out of passes
        self.samples: list[float] = []  # fastest task of each burst

    def probe(self, count: int = 1):
        for _ in range(count):
            t0 = perf_counter()
            fastest = None
            for _ in range(self.BURST):
                a = perf_counter()
                _reference_task()
                dt = perf_counter() - a
                fastest = dt if fastest is None else min(fastest, dt)
            self.starts.append(t0)
            self.durations.append(perf_counter() - t0)
            self.samples.append(fastest)

    def _on_alarm(self, signum, frame):
        self.probe()

    def start(self):
        """Probe every EVERY_S seconds until stop(), between any bytecodes."""
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def probe_time(self, a: float, b: float) -> float:
        return sum(d for s, d in zip(self.starts, self.durations) if a <= s < b)

    def slowness(self, a: float, b: float) -> float:
        """Median probe sample around [a, b] over REF_S: the bursts that start
        within 0.6 s of the interval, or else the three nearest on either side."""
        pairs = list(zip(self.starts, self.samples))
        near = [d for s, d in pairs if a - 0.6 <= s <= b + 0.6]
        if len(near) < 3:
            before = [d for s, d in pairs if s < a][-3:]
            after = [d for s, d in pairs if s > b][:3]
            near = before + after + near
        if not near:
            raise ValueError("no host probe taken")
        return statistics.median(near) / REF_S

    def busy(self, a: float, b: float) -> float:
        """Time in [a, b] not spent in probe bursts, as measured."""
        return max(b - a - self.probe_time(a, b), 0.0)

    def latency(self, a: float, b: float) -> float:
        """One operation's busy time divided by the host's slowness around it."""
        return self.busy(a, b) / self.slowness(a, b)

    def normalize(self, a: float, b: float) -> float:
        """Busy time in [a, b] at the reference speed: each stretch between
        probes is divided by the host's slowness around it."""
        cuts = [a] + [s for s in self.starts if a < s < b] + [b]
        total = 0.0
        for s, e in zip(cuts, cuts[1:]):
            total += self.busy(s, e) / self.slowness(s, e)
        return total
