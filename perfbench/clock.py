"""A speed-normalized clock for a machine whose CPU speed swings.

On the shared 2-core machine where this benchmark was built, the same
pure-Python loop ran at two speeds about 2x apart, switching every few
seconds on either CPU, so wall-clock times of identical work spread by
20-40 % between runs.  ``SpeedClock`` counts *reference seconds* instead:
every 50 ms of CPU time a SIGPROF handler times a fixed probe (Fraction
arithmetic and dict updates, like the package's own work), and elapsed wall
time is scaled by ``PROBE_REF_S`` over the median of the last ``WINDOW``
probe times, so one noisy probe does not skew a millisecond-long unit.  A
reference second is a wall second at the speed where the probe takes
``PROBE_REF_S``; probe time itself is not counted.  Re-running one verify
cell twelve times, this cut the coefficient of variation from 18 % (wall) to
3 % (reference).
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

PROBE_REF_S = 0.00045   # the probe's time at full speed on the baseline machine
PERIOD_S = 0.05
WINDOW = 5


def probe():
    """Time a fixed bit of Fraction and dict work; about 0.5 ms.  The
    garbage collector is off meanwhile, so the probe measures CPU speed and
    not the size of the program's heap."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        x, acc = Fraction(1), {}
        for i in range(60):
            x = (x * Fraction(i % 7 + 1, i % 5 + 2) + 1) / Fraction(3, 2)
            acc[i % 13] = acc.get(i % 13, 0) + i
            x = Fraction(x.numerator % 1000 + 1, x.denominator % 1000 + 1)
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


class SpeedClock:
    """Reference seconds since creation; start() and stop() the sampler."""

    def __init__(self):
        self.reference = 0.0
        self.recent = [probe() for _ in range(WINDOW)]
        self.factor = PROBE_REF_S / statistics.median(self.recent)
        self.first_factor = self.factor
        self.started = time.time()
        self.last = time.perf_counter()
        self.probes = 0

    def _tick(self, _signum, _frame):
        # the clock is consistent after every statement, because another
        # signal handler (the unit cap) may raise while the probe runs
        now = time.perf_counter()
        self.reference += (now - self.last) * self.factor
        self.last = now
        sample = probe()
        self.last = time.perf_counter()
        self.recent = self.recent[1:] + [sample]
        self.factor = PROBE_REF_S / statistics.median(self.recent)
        self.probes += 1

    def start(self):
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)

    def now(self):
        return self.reference + (time.perf_counter() - self.last) * self.factor
