"""Host CPU speed, sampled on the measuring process's own core.

On shared machines the speed of a virtual CPU drifts: the machine the
benchmark was defined on alternates between a fast state and one about 0.55x
as fast, in spells from a second to over 30 seconds, while process CPU time
keeps tracking wall time.  A timing taken in a slow spell is then slower by
the same factor for every commit, which no number of iterations in one run
averages out.

``HostSpeed`` runs a fixed pure-Python probe loop from a SIGALRM handler every
``INTERVAL_S`` while the timed code runs, on the same core and between the
same bytecodes.  Each probe's duration against ``PROBE_REF_S`` gives the speed
of that moment (about 1.0 in the fast state); ``factor`` is their mean over a
window.  The wall time of the timed code times ``factor`` is the time it would
have taken at the reference speed.

The probe is pure Python on purpose.  A probe with small numpy calls followed
the host speed more closely, but its own duration depended on the workload
around it (mean factors 0.30 on eval, 0.40 on train, 0.55 on adapt, against
about 0.7 on all three for this loop), so a change to the program's memory
traffic would have moved the correction too.  The probe touches no state of
the program under test, so its outputs are unchanged; it costs about 0.3% of
the timed wall time.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.02
PROBE_LOOPS = 1500
# probe duration in the fast state of the 2-core machine the benchmark was
# defined on; it sets the scale of the corrected figures, not their spread
PROBE_REF_S = 5.5e-5


def probe() -> float:
    start = time.perf_counter()
    total = 0
    for k in range(PROBE_LOOPS):
        total += k
    return time.perf_counter() - start


class HostSpeed:
    """Samples the host speed while active; read it over any window by mark."""

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        self.samples.append(probe())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mark(self) -> int:
        return len(self.samples)

    def factor(self, since: int = 0) -> float:
        """Mean speed relative to the reference over the samples after ``since``.

        A window too short to hold a sample is measured by one probe now.
        """
        samples = self.samples[since:] or [probe()]
        return sum(PROBE_REF_S / d for d in samples) / len(samples)
