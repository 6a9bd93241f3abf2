"""Machine-speed calibration of the benchmark's timings.

A shared virtual machine can change speed by up to 2x over a few seconds,
with CPU time drifting in step with wall time; on the 2-vCPU machine the
baseline was measured on, raw timings of one workload spread by 20-40%
between runs.  A fixed probe is timed next to every call,
and the call's time is reported in *calibrated seconds*: raw seconds times
the probe's nominal time over the mean probe time measured around and
during the call.  On a host where the probe takes its nominal time these
equal wall seconds.  The probe is benchmark code, so no change to jsqldp
can move it.

Kinds of work drift differently, so a probe is made of the parts that match
a workload's calls: an interpreter loop with small numpy calls (event loops,
water-filling), tiny HiGHS linear programs (the rate solver), and a pass
over a 4 MB array (the vectorised M/M/1 counter).
"""
from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np
from scipy.optimize import linprog

_A_EQ = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
_B_EQ = np.array([1.0, 1.0])
_LEVELS = np.arange(32.0)
_STREAM = np.linspace(0.0, 1.0, 1 << 19)
_STREAM_OUT = np.empty_like(_STREAM)


def _interpreter() -> None:
    s = 0
    for i in range(1000):
        s += int(np.argmin(_LEVELS)) + i % 7


def _solver() -> None:
    for _ in range(2):
        linprog(np.zeros(3), A_eq=_A_EQ, b_eq=_B_EQ, bounds=[(0, None)] * 3, method="highs")


def _memory() -> None:
    np.cumsum(_STREAM, out=_STREAM_OUT)


# Each part with its time on the baseline's machine when it ran fastest;
# these fix the unit of calibrated seconds.
PARTS = {
    "interpreter": (_interpreter, 0.0018),
    "solver": (_solver, 0.0031),
    "memory": (_memory, 0.0019),
}


class Probe:
    def __init__(self, parts: tuple[str, ...]):
        self.parts = [PARTS[p][0] for p in parts]
        self.nominal_s = sum(PARTS[p][1] for p in parts)

    def __call__(self) -> float:
        """Seconds the probe takes right now."""
        t0 = time.perf_counter()
        for part in self.parts:
            part()
        return time.perf_counter() - t0

    def calibrate(self, raw_s: float, probes: list[float]) -> float:
        return raw_s * self.nominal_s / statistics.fmean(probes)

    def settled(self) -> float:
        """Median of five probes after one discarded warm-up probe."""
        self()
        return statistics.median(self() for _ in range(5))


class SpeedSampler:
    """Probe times in the order they were taken, and the time spent on them.

    ``sample`` takes one probe.  Inside ``periodic(period)`` a SIGALRM timer
    also takes one every ``period`` seconds, in the main thread between
    bytecodes, so long calls get samples from their middle; the caller
    subtracts ``spent`` accrued during a call from the call's time.
    """

    def __init__(self, probe: Probe):
        self.probe = probe
        self.probes: list[float] = []
        self.spent = 0.0
        self._sampling = False

    def sample(self) -> None:
        self._sampling = True
        t0 = time.perf_counter()
        self.probes.append(self.probe())
        self.spent += time.perf_counter() - t0
        self._sampling = False

    def _on_alarm(self, signum, frame) -> None:
        # a timer tick inside a probe would be timed by that probe
        if not self._sampling:
            self.sample()

    @contextlib.contextmanager
    def periodic(self, period: float):
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, period, period)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
