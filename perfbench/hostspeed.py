"""Host-speed sampling for timings on a host whose core speed drifts.

On the 2-core development host the core speed moves between levels up
to about 2x apart, switching every few seconds and sometimes staying
slow for minutes.  Raw wall times of one workload then spread between
runs by more than any useful regression bound (README.md gives the
measured spreads, raw and scaled).

``SpeedSampler`` therefore runs a tiny fixed probe on a wall-clock timer
(SIGALRM every ``PERIOD_S``) from the process's start.  A timed interval
is integrated piece by piece: each stretch of wall time between probes
is scaled by the speed the probe ending it measured, so the result is
the interval's length on a core of reference speed:

    reference_s = sum(gap_i * REFERENCE_PROBE_S / probe_i)

The probe is interpreted floating-point Python, the kind of code that
dominates eigtrack's model evaluation and its per-call overhead.  It
needs only the standard library, so it can run during the imports that
set-up time counts, and it does not change when eigtrack does.  Each sample runs the
probe twice and times the second pass, so the caches the workload
evicted do not count as slowness.  All probe time is left out of both
the raw and the scaled figure.
"""

from __future__ import annotations

import math
import signal
import time
from typing import List, Tuple

PERIOD_S = 0.01
# Timed probe duration on the reference core: the development host at its
# fast speed level.
REFERENCE_PROBE_S = 1.35e-5

_X = [0.1 * i for i in range(24)]


def probe() -> List[float]:
    out = [0.0] * 24
    for _ in range(3):
        for i in range(24):
            out[i] = (math.sin(_X[i] - _X[(i + 1) % 24]) * _X[i]
                      + math.cos(_X[i]) * 0.5)
    return out


class SpeedSampler:
    """Probes the core speed every ``PERIOD_S`` of wall time while started."""

    def __init__(self):
        # (start, wall time taken from the workload, timed probe duration)
        self.samples: List[Tuple[float, float, float]] = []

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        probe()
        t1 = time.perf_counter()
        probe()
        t2 = time.perf_counter()
        self.samples.append((t0, t2 - t0, t2 - t1))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def measure(self, t0: float, t1: float) -> Tuple[float, float]:
        """(raw, reference) seconds of the interval [t0, t1], probes left out.

        Needs at least one probe inside the interval; the stretch after
        the last probe takes that probe's speed.
        """
        raw = ref = 0.0
        prev, last = t0, None
        for start, taken, dur in self.samples:
            if t0 <= start < t1:
                raw += start - prev
                ref += (start - prev) * REFERENCE_PROBE_S / dur
                prev, last = start + taken, dur
        if last is None:
            raise ValueError("no speed probe inside the interval; "
                             f"it must last longer than {PERIOD_S} s")
        raw += max(t1 - prev, 0.0)
        ref += max(t1 - prev, 0.0) * REFERENCE_PROBE_S / last
        return raw, ref
