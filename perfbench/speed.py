"""Machine speed from a fixed pure-Python kernel, sampled while operations run.

On a shared machine the interpreter's speed drifts by tens of percent over
tens of seconds, as neighbours come and go. The program under test is
mostly interpreted Python and slows and speeds up with the kernel below, so
a duration multiplied by the mean ``REFERENCE_S / kernel time`` of the
samples taken around and during it reads as it would at the reference
speed. While the gauge is started, a SIGALRM timer takes a sample every
INTERVAL_S, also in the middle of a long operation; the time the samples
take is left out of the operation's duration. Raw durations are reported
beside the scaled ones.
"""

from __future__ import annotations

import math
import random
import signal
import statistics
import time

REFERENCE_S = 2.5e-3  # typical kernel time on a shared 2-vCPU x86-64 machine, CPython 3.11
INTERVAL_S = 0.25
RUNS_PER_SAMPLE = 3

# Half arithmetic in a tight loop, half object churn over a 64k-entry
# table: the first tracks the simulator's event loop best, the second the
# quadrature callbacks and the optimizer.
_TABLE = {i: float(i) for i in range(1 << 16)}


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self.x, self.y = x, y


def kernel() -> float:
    acc = 0.0
    seen = {}
    for i in range(3000):
        x = (i * 2654435761) % 1000003
        acc += math.sqrt(x) * 1e-3
        seen[i & 255] = (x, acc)
    rng = random.Random(7)
    points = []
    for i in range(750):
        p = _Point(rng.random(), rng.random())
        points.append(p)
        acc += _TABLE[(i * 40503) & 0xFFFF] * p.x + math.exp(-p.y) ** 1.5
        if len(points) > 64:
            points.sort(key=lambda q: q.x * q.x + q.y * q.y)
            del points[32:]
    return acc


class SpeedGauge:
    def __init__(self) -> None:
        self.samples: list[float] = []  # kernel seconds, oldest first
        self.sampling_s = 0.0  # time spent sampling, kept out of operations
        self._last = -math.inf
        self._previous_handler = None

    def sample(self) -> float:
        """Take a sample; return the scale factor it gives."""
        t = time.perf_counter()
        runs = []
        for _ in range(RUNS_PER_SAMPLE):
            t0 = time.perf_counter()
            kernel()
            runs.append(time.perf_counter() - t0)
        self.samples.append(statistics.median(runs))
        self._last = time.perf_counter()
        self.sampling_s += self._last - t
        return REFERENCE_S / self.samples[-1]

    def start(self) -> None:
        """Sample now, then every INTERVAL_S from a timer until ``stop``."""
        self.sample()
        self._previous_handler = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self._previous_handler = None

    def timed(self, fn, *args):
        """(result, raw seconds, scaled seconds) of fn(*args).

        Without the timer, a sample is taken before the call if the last is
        older than INTERVAL_S, and after it if the call took longer.
        """
        running = self._previous_handler is not None
        if not running and time.perf_counter() - self._last > INTERVAL_S:
            self.sample()
        first, paused = len(self.samples) - 1, self.sampling_s
        t = time.perf_counter()
        result = fn(*args)
        raw = time.perf_counter() - t - (self.sampling_s - paused)
        if not running and raw > INTERVAL_S:
            self.sample()
        factors = [REFERENCE_S / s for s in self.samples[first:]]
        return result, raw, raw * sum(factors) / len(factors)
