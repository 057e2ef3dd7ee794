"""CPU-speed probe, used to scale measured times to a reference speed.

The machines this benchmark runs on are shared: the same pure-Python loop
runs up to twice as slow for stretches of seconds to minutes while other
tenants load the host.  That drift is common to all code running in the
window, so it is measured with a fixed loop that uses only the standard
library (Fraction arithmetic, tuple hashing, dict inserts, the operations the
package itself spends its time in) and never the code under test.

`Probe` runs that loop from a CPU-time interval timer while a pass runs, and
a time t measured over the same window is reported as
t * REFERENCE_S / (mean probe time in the window): the seconds it would have
taken at the speed where one probe takes REFERENCE_S.  The time spent inside
the probe is subtracted first.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.0045  # one probe at the reference speed
INTERVAL_S = 0.2  # CPU seconds between probes while a pass runs

_ROWS = [tuple(Fraction(i, j) for j in range(1, 5)) for i in range(3000)]


def probe_once() -> float:
    start = time.perf_counter()
    total, seen = Fraction(0), {}
    for k in range(0, len(_ROWS), 7):
        row = _ROWS[k]
        total += row[1] * row[2] - row[3]
        seen[row] = k
    return time.perf_counter() - start


def scale(samples) -> float:
    """Factor that converts seconds measured alongside `samples` to reference seconds."""
    return REFERENCE_S / statistics.fmean(samples)


class Probe:
    """Probes every INTERVAL_S of CPU time; `spent` is the seconds spent probing."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _on_timer(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(probe_once())
        self.spent += time.perf_counter() - start

    def start(self):
        signal.signal(signal.SIGVTALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_VIRTUAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
