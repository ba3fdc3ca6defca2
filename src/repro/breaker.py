"""The consecutive-failure / half-open-probe circuit breaker (`Breaker`).

One state machine guards every failure domain of the archive: one per
replica (:class:`repro.storage.replication.ReplicaState`), one per shard
(:class:`repro.fleet.health.FleetHealthTracker`), differing only in the
threshold and probe interval they are built with.

* ``threshold`` consecutive failures **trip** the breaker open;
* while open, :meth:`Breaker.allow` refuses, counting refusals in
  ``skipped``; every ``probe_interval``-th one is let through as a
  half-open **probe** and restarts the count;
* a failed probe restarts the count too and, like any failure, is
  counted in ``failures``;
* any success closes the breaker and zeroes ``failures`` and ``skipped``.

Plain ints and **no lock**: concurrent readers gate on a replica's
breaker on the hot read path, where a lock would serialise them.  An
owner that needs atomic transitions (the fleet tracker) holds its own.
"""

from __future__ import annotations


class Breaker:
    """One circuit breaker; see the module docstring for the ladder."""

    __slots__ = ("threshold", "probe_interval", "failures", "open", "skipped", "trips")

    def __init__(self, threshold: int, probe_interval: int) -> None:
        self.threshold = int(threshold)
        self.probe_interval = int(probe_interval)
        #: Consecutive failures since the last success.
        self.failures = 0
        #: True while tripped (traffic is refused except for probes).
        self.open = False
        #: Refusals since the breaker opened / the last probe.
        self.skipped = 0
        #: Times the breaker has opened (monitoring).
        self.trips = 0

    def allow(self) -> bool:
        """Gate one operation; an open breaker probes half-open."""
        if not self.open:
            return True
        self.skipped += 1
        if self.skipped >= self.probe_interval:
            self.skipped = 0
            return True
        return False

    def success(self) -> None:
        """A permitted operation (or probe) succeeded: close."""
        self.failures = 0
        self.open = False
        self.skipped = 0

    def failure(self) -> None:
        """A permitted operation (or probe) failed."""
        self.failures += 1
        if self.open:
            self.skipped = 0  # failed probe: restart the window
        elif self.failures >= self.threshold:
            self.trip()

    def trip(self) -> None:
        """Open the breaker now (no-op when already open)."""
        if not self.open:
            self.open = True
            self.trips += 1
            self.skipped = 0
