"""A speedometer that puts frame times on a steady scale.

The benchmark runs on a few cores of a shared host whose speed changes by
up to 1.5x from one second to the next: a neighbour's load on the sibling
hyperthread and the shared caches comes and goes.  The process's CPU time
equals its wall time, so it is not descheduling, and a run's share of fast
and slow spells decides its median frame time more than the program does.

The speedometer samples the host's speed while the frames run.  A timer
signal every ``INTERVAL_S`` runs a fixed probe, a short interpreted loop
that uses nothing from the program, and records how long it took.  A
frame's *normalized* time is its wall time, less the probes' own time,
scaled by ``NOMINAL_S`` over the median probe time during that frame: the
time the frame would have taken with the host at its usual speed on the
machine the baseline was taken on.  When the host slows down, frame and
probe slow down together and the ratio stays put.  A frame that ran no
probe (one shorter than the interval) takes one probe right after it.

The module uses only the standard library, so ``run.py`` can start the
speedometer before it imports anything heavy and normalize import time too.
"""
from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.02     # wall time between probes
NOMINAL_S = 260e-6    # the probe's usual time on the baseline machine
_LOOP = 2500          # the probe's interpreted steps


def probe() -> float:
    """Seconds the fixed probe takes now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(_LOOP):
        acc += (i * i) % 7
    return time.perf_counter() - t0


class Speedometer:
    """Probe samples taken on a timer signal while it is started."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0      # wall time spent in the signal handler
        self._old = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(probe())
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        if self._old is None:
            return
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._old = None

    def mark(self) -> tuple[int, float]:
        """A point to measure from: pass it to ``normalize``."""
        return len(self.samples), self.spent

    def probe_s(self, mark: tuple[int, float]) -> float:
        """Median probe time since ``mark``; one probe now if none ran."""
        return statistics.median(self.samples[mark[0]:] or [probe()])

    def normalize(self, wall: float, mark: tuple[int, float]) -> float:
        """``wall`` seconds measured since ``mark``, less the probes' own
        time, at the nominal host speed."""
        return (wall - (self.spent - mark[1])) * NOMINAL_S / self.probe_s(mark)
