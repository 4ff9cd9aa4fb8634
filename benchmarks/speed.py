"""Scaling measured times to a reference machine speed.

On a shared machine the same pure-Python work runs up to 1.9x slower while
other tenants load the same physical cores, in phases lasting seconds; one
run can sit wholly in a slow phase. So each timed interval is accompanied by
`probe()`, a fixed piece of exact-rational Python work that does not touch
quadlie, run at both ends of the interval and every TICK_S inside it. The
interval is reported as `scaled(seconds, probe_s)`: times REFERENCE_S over
the mean probe time, which is the interval as it would read on a core where
the probe takes REFERENCE_S. Work done by quadlie changes the interval and
not the probe, so a real speed-up or slow-down shows in full.
"""
from __future__ import annotations

import signal
import time
from fractions import Fraction

# The probe's time on an idle core of the machine the baseline was recorded
# on (x86_64 VM with 2 vCPUs, Python 3.11.7). It fixes the unit only.
REFERENCE_S = 0.0028
TICK_S = 0.25


def probe() -> float:
    """Seconds for the fixed reference work, about REFERENCE_S when idle."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 600):
        acc += Fraction(i % 13 - 6, i % 7 + 1) * acc.denominator % 5
    return time.perf_counter() - t0


def scaled(seconds: float, probe_s: float) -> float:
    return seconds * REFERENCE_S / probe_s


class Meter:
    """Times consecutive intervals in the main thread. Inside an interval a
    SIGALRM timer runs the probe every TICK_S, and the time spent probing is
    taken out of the interval. Consecutive intervals share the probe run
    between them. The handler stays installed, so a signal that arrives
    just after an interval only adds an unused tick."""

    def __init__(self):
        self.ticks = []
        signal.signal(signal.SIGALRM, self._tick)
        self.edge = probe()

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        p = probe()
        self.ticks.append((p, time.perf_counter() - t0))

    def start(self):
        self.ticks = []
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        self.t0 = time.perf_counter()

    def stop(self) -> tuple[float, float]:
        """(seconds in the interval, mean probe seconds over it)."""
        dt = time.perf_counter() - self.t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        ticks = self.ticks
        before, self.edge = self.edge, probe()
        probes = [before, self.edge] + [p for p, _ in ticks]
        return (dt - sum(spent for _, spent in ticks),
                sum(probes) / len(probes))
