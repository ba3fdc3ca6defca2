"""Per-shard health state machine for fleet-level graceful degradation.

The storage stack already isolates failures *below* the shard boundary
(journal rollback, retries, replica quorums); this module gives the
fleet its own failure domain on top: each shard carries a circuit
breaker — the same :class:`~repro.breaker.Breaker` the replication
layer keeps per replica, lifted to shard granularity and driven by
save/flush outcomes:

``HEALTHY`` --failures >= degraded_after--> ``DEGRADED``
--failures >= down_after--> ``DOWN`` --every Nth refused op--> half-open
probe --success--> ``HEALTHY``

While a shard is DOWN, :meth:`FleetHealthTracker.allow` refuses
operations (a fleet's engine turns a refusal into
a typed :class:`~repro.errors.ShardUnavailableError`, after trying the
shard's serving cache for a stale-but-committed hit) except for the
periodic probe that lets the breaker close again.  A shard whose
directory was missing or unreadable at open time is *pinned* DOWN:
probes are disabled, because there is nothing behind the placeholder
shard worth probing — the operator restores the directory and reopens.

DEGRADED is a pure warning state: traffic flows untouched, but the
``fleet_shard_<i>_health`` gauge and the transition trace events make
the first failure visible before the breaker opens.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.breaker import Breaker
from repro.config import FleetHealthConfig

__all__ = [
    "DEGRADED",
    "DOWN",
    "HEALTHY",
    "FleetHealthTracker",
    "ShardHealth",
]

HEALTHY = "healthy"
DEGRADED = "degraded"
DOWN = "down"

#: Gauge encoding of each state (exported as ``fleet_shard_<i>_health``).
HEALTH_LEVELS = {HEALTHY: 0, DEGRADED: 1, DOWN: 2}


@dataclass
class ShardHealth:
    """Mutable health record of one shard (guarded by the tracker lock)."""

    #: The shard's circuit breaker: consecutive save/flush failures,
    #: open/closed, the half-open probe window and the trip count.
    breaker: Breaker
    state: str = HEALTHY
    #: DOWN-at-open shards never probe; only reopen clears this.
    pinned: bool = False
    #: Human-readable cause of the current non-HEALTHY state.
    reason: str = ""
    # -- counters ----------------------------------------------------------
    transitions: int = 0
    probes: int = 0  # half-open probes let through
    refused: int = 0  # operations refused while DOWN

    def snapshot(self) -> dict:
        return {
            "state": self.state,
            "consecutive_failures": self.breaker.failures,
            "pinned": self.pinned,
            "reason": self.reason,
            "transitions": self.transitions,
            "breaker_trips": self.breaker.trips,  # entries into DOWN
            "probes": self.probes,
            "refused": self.refused,
        }


class FleetHealthTracker:
    """Thread-safe health map of every shard in a fleet.

    Each shard's ladder is a :class:`~repro.breaker.Breaker` (``down_after``
    / ``probe_interval_ops``); the lock, the DEGRADED level, pinning, the
    reason and the ``refused`` / ``probes`` counters are the tracker's own.
    ``on_transition(shard, old, new, reason)`` is invoked *outside* the
    tracker lock after each state change — the fleet hooks trace events
    and metrics counters there.
    """

    def __init__(
        self,
        num_shards: int,
        config: "FleetHealthConfig | None" = None,
        on_transition=None,
    ) -> None:
        self.config = config if config is not None else FleetHealthConfig()
        self._lock = threading.Lock()
        self.shards = [
            ShardHealth(
                Breaker(self.config.down_after, self.config.probe_interval_ops)
            )
            for _ in range(num_shards)
        ]
        self._on_transition = on_transition

    # -- introspection -----------------------------------------------------
    def state(self, shard: int) -> str:
        with self._lock:
            return self.shards[shard].state

    def level(self, shard: int) -> int:
        """Numeric state for the ``fleet_shard_<i>_health`` gauge."""
        return HEALTH_LEVELS[self.state(shard)]

    def is_down(self, shard: int) -> bool:
        return self.state(shard) == DOWN

    def snapshot(self) -> list[dict]:
        with self._lock:
            return [health.snapshot() for health in self.shards]

    # -- transitions -------------------------------------------------------
    def _sync_locked(self, shard: int, reason: str):
        """Re-derive one shard's state from its breaker; returns the
        transition ``(shard, old, new, reason)``, or ``None`` for no change."""
        health = self.shards[shard]
        if health.breaker.open:
            state = DOWN
        elif health.breaker.failures >= int(self.config.degraded_after):
            state = DEGRADED
        else:
            state = HEALTHY
        if health.state == state:
            return None
        old = health.state
        health.state = state
        health.transitions += 1
        if state == HEALTHY:
            health.pinned = False
            health.reason = ""
        else:
            health.reason = reason
        return (shard, old, state, reason)

    def _fire(self, transition) -> None:
        if transition is not None and self._on_transition is not None:
            self._on_transition(*transition)

    def pin_down(self, shard: int, reason: str) -> None:
        """Force a shard DOWN with probing disabled (missing at open)."""
        with self._lock:
            self.shards[shard].breaker.trip()
            transition = self._sync_locked(shard, reason)
            self.shards[shard].pinned = True
        self._fire(transition)

    def allow(self, shard: int, probing: bool = True) -> bool:
        """Gate one operation against the shard's breaker.

        HEALTHY/DEGRADED (or tracking disabled): always allowed.  DOWN:
        refused, except every ``probe_interval_ops``-th refusal is let
        through as a half-open probe (never on pinned shards).
        """
        if not self.config.enabled:
            return True
        with self._lock:
            health = self.shards[shard]
            if not health.breaker.open:
                return True
            health.refused += 1
            if not probing or health.pinned or not health.breaker.allow():
                return False
            health.probes += 1
            return True

    def gate_read(self, shard: int) -> bool:
        """Read gate: DOWN refuses (counted) but never probes.

        Reads can be satisfied from the serving cache without touching
        the shard's stores, so a read "success" says nothing about the
        shard — only save/flush outcomes (and their half-open probes via
        :meth:`allow`) move the breaker.
        """
        return self.allow(shard, probing=False)

    def reason(self, shard: int) -> str:
        with self._lock:
            return self.shards[shard].reason

    def record_success(self, shard: int) -> None:
        """A permitted save/flush/probe succeeded: close the breaker."""
        if not self.config.enabled:
            return
        with self._lock:
            self.shards[shard].breaker.success()
            transition = self._sync_locked(shard, "operation succeeded")
        self._fire(transition)

    def record_failure(
        self, shard: int, error: BaseException, saving: bool = True
    ) -> None:
        """A permitted operation failed.

        Save/flush failures (``saving=True``) drive the breaker:
        consecutive failures cross ``degraded_after`` then ``down_after``.
        Read failures only matter as failed probes — they restart the
        DOWN shard's probe window without deepening the state.
        """
        if not self.config.enabled:
            return
        reason = f"{type(error).__name__}: {error}"
        with self._lock:
            health = self.shards[shard]
            if not (saving or health.breaker.open):
                return
            health.breaker.failure()
            if health.state == DOWN:
                health.reason = reason  # a failed probe: stay DOWN
            transition = self._sync_locked(shard, reason)
        self._fire(transition)
