"""A speed probe that runs alongside an operation, so that timings can be
expressed at a fixed machine speed.

On a shared 2-core Xeon virtual machine, speed drifted by tens of percent
over seconds with other tenants' load: in CPU time as well as in wall time,
the same CPU-bound ``lorenz`` operation took from 5.6 s to 9.1 s within two
minutes.  The probe times a fixed kernel of about 0.3 ms every ``PERIOD``
seconds while an operation runs, from a ``SIGALRM`` handler on the main
thread, so no thread is added.  Its median time during the operation
tracks the drift: the operation's time, minus the probe's own, times
``REFERENCE_S`` over that median, reads as seconds at a fixed probe speed
and is steady where the raw time is not.  The handler touches none of the
program's state.

Only the standard library is used, so the probe can time ``import
sparsemetrics`` in a fresh interpreter without importing numpy first.
"""

from __future__ import annotations

import signal
import time

#: The probe time that defines the reference speed (about its median on a
#: 2-core Xeon); timings "at reference speed" are scaled to it.
REFERENCE_S = 3e-4


class SpeedProbe:
    PERIOD = 0.025
    _DATA = [((i * 7919) % 2003) / 2003.0 for i in range(2000)]

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _tick(self, *_) -> None:
        start = time.perf_counter()
        d: dict[int, int] = {}
        for i in range(1200):
            d[i & 63] = d.get(i & 63, 0) + i
        sorted(self._DATA)
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedProbe":
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # an operation shorter than one period
            self._tick()

    def overhead(self) -> float:
        """Seconds the probe itself took so far."""
        return sum(self.samples)

    def scale(self) -> float:
        """Reference speed over the speed seen: multiply a net time by this."""
        s = sorted(self.samples)
        mid = len(s) // 2
        median = s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2
        return REFERENCE_S / median
