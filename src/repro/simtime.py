"""The shared simulated clock (`SimClock`).

The archive's latency model separates *simulated* store seconds (what
the hardware profile charges per operation) from wall time.  Anything
that needs a notion of "now" on that simulated axis — the ingest
queue's flush-age deadlines, the maintenance scheduler's duty-cycle
rate limiting, the soak harness driving both — shares one injectable
:class:`SimClock` instead of sleeping: tests and benchmarks ``advance()``
it explicitly, so deadline and pacing behaviour is deterministic.
"""

from __future__ import annotations

import threading


class SimClock:
    """Thread-safe simulated clock driving deadlines and pacing.

    The archive's latency model already separates simulated store time
    from wall time; age deadlines and maintenance pacing use the same
    idea — tests and benchmarks ``advance()`` the clock explicitly
    instead of sleeping, so time-driven behaviour is deterministic.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._lock = threading.Lock()

    @property
    def now(self) -> float:
        with self._lock:
            return self._now

    def advance(self, seconds: float) -> float:
        if seconds < 0:
            raise ValueError("the clock only moves forward")
        with self._lock:
            self._now += seconds
            return self._now
