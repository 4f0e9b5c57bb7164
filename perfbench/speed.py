"""Host-speed probe that runs inside a measured process.

On a shared host, other tenants' load changes how fast the same code runs,
by up to a factor of two over minutes. Every PERIOD_S seconds a SIGALRM
handler times a fixed piece of interpreter work, tuple building and dict
lookups like the program's own inner loops. The mean
probe time during a run, against REFERENCE_S, gives the host's speed during
exactly that run; a time measured in the run is rescaled to the reference
speed by multiplying it with ``factor()``.

The probe adds about 1.5 % to the run it samples. Its table is small enough to
stay mostly in the core's caches, but a run that moves much memory still
slows it a little, so rescaled times slightly understate gains that come from
moving less memory.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.02
PROBE_LOOKUPS = 1000
# Mean probe time on an unloaded core of the machine the baseline was
# recorded on (Intel Xeon, 2 vCPUs, Python 3.11): rescaled times read as
# seconds on that core.
REFERENCE_S = 250e-6

_TABLE = {(i, (i * 7) & 4095): i for i in range(4096)}


class SpeedProbe:
    def __init__(self):
        self.samples: list = []

    def _probe(self, signum, frame):
        t0 = time.perf_counter()
        acc = 0
        for i in range(PROBE_LOOKUPS):
            acc += _TABLE.get((i & 4095, (i * 7) & 4095), 1) * i
        self.samples.append(time.perf_counter() - t0)

    def start(self):
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def factor(self) -> float:
        """Stop probing; REFERENCE_S over the mean probe time (1.0 if none ran)."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if not self.samples:
            return 1.0
        return REFERENCE_S / statistics.fmean(self.samples)
