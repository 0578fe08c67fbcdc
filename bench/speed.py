"""Reference-speed timing: cancels the host's speed swings out of op times.

The benchmark's machines share physical cores with other tenants.  On the
2-vCPU machine where the benchmark was defined, a fixed Fraction loop ran
up to 2x slower for seconds at a time, and CPU time slowed with wall time,
so ``time.process_time`` does not help.  Over eight seeds of the certify
workload, raw wall times spread (IQR / median) 16 % for pass_s and 45 % for
op_p50_s; divided by the probe below they spread 3 % and 4 %.

``SpeedProbe`` times a fixed reference loop that runs no zrk code, before
and after each op and every 20 ms of CPU time during it (from a SIGPROF
handler; the probe's own time is taken out of the op's).  Sampling every
20 ms rather than 200 ms cut the spread of a 0.24 s op's reference time
from 8.6 % to 2.8 % (coefficient of variation over 80 runs).  An op's time at
reference speed is its wall time x REFERENCE_S / (mean probe duration).
REFERENCE_S is the loop's duration on an uncontended vCPU of that machine
(Intel Xeon, Python 3.11.7), so reference seconds read close to wall
seconds there.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

REFERENCE_S = 0.0006
SAMPLE_EVERY_S = 0.02  # of process CPU time; probing costs about 10 %

_SETS = [frozenset(range(i, i + 5)) for i in range(60)]


def _reference_loop() -> None:
    x = Fraction(0)
    for i in range(1, 120):
        x += Fraction(1, i % 97 + 1)
    table = {}
    for a in _SETS:
        for b in _SETS[:12]:
            table[a | b] = len(a & b)


def probe() -> float:
    """Seconds the reference loop takes now (best of three)."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _reference_loop()
        best = min(best, time.perf_counter() - start)
    return best


class SpeedProbe:
    """Probes around one op at a time, and during it unless ``during`` is
    false."""

    def __init__(self, during: bool = True):
        self.during = during
        self.spent = 0.0  # seconds spent probing, over all ops
        self._samples: list[float] = []
        self._inside = 0.0

    def _sample(self) -> float:
        start = time.perf_counter()
        self._samples.append(probe())
        took = time.perf_counter() - start
        self.spent += took
        return took

    def _on_signal(self, signum, frame) -> None:
        self._inside += self._sample()

    def start(self) -> None:
        self._samples = []
        self._sample()
        self._inside = 0.0
        if self.during:
            signal.signal(signal.SIGPROF, self._on_signal)
            signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self, elapsed: float) -> tuple[float, float]:
        """(wall seconds of the op without probing, mean probe seconds)."""
        if self.during:
            signal.setitimer(signal.ITIMER_PROF, 0)
        self._sample()
        return elapsed - self._inside, sum(self._samples) / len(self._samples)


def at_reference(seconds: float, probe_s: float) -> float:
    return seconds * REFERENCE_S / probe_s
