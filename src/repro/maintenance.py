"""Background maintenance: GC, compaction, scrub, and repair under load.

A long-lived archive needs its housekeeping — retention-driven garbage
collection, chunk mark-and-sweep, delta-chain compaction, anti-entropy
scrub, replica repair-queue draining — to run *while* saves, recovers,
and serving-cache reads keep flowing.  :class:`MaintenanceScheduler`
runs those tasks per shard with three coordination rules:

* **Journal-coordinated.**  The mutating tasks of one shard pass
  (compaction, GC, chunk sweep) run as **one atomic journal
  transaction**.  The scheduler first tries the shard lock without
  blocking; an in-flight writer transaction wins — the pass records a
  *deferred-txn wait* and queues behind it instead of contending from
  inside.  A crash mid-pass (a :class:`~repro.errors.SimulatedCrashError`
  fault, or the process dying) leaves the journal entry pending, and
  reopening the shard rolls the whole pass back — committed sets are
  never half-deleted.

* **Cache-safe.**  Serving-cache invalidation only *drops* entries (it
  never inserts), and the shard lock excludes readers for the duration
  of the pass, so a rolled-back pass cannot poison the
  :class:`~repro.serving.ServingCache`: the journal's rollback hook
  clears both cache tiers along with the chunk index.  Replica work
  (repair drain, scrub) runs strictly *after* the transaction commits.

* **Rate-limited.**  Passes are paced on the shared
  :class:`~repro.simtime.SimClock`: a pass that charged ``c`` simulated
  store seconds pushes the next pass out by at least
  ``c * (1 - duty_cycle) / duty_cycle`` (and never less than
  ``interval_s``), so maintenance consumes a bounded fraction of
  simulated time no matter how expensive a pass turns out to be.

Scrubs are *rolling* in scheduled mode: each pass scrubs one shard,
round-robin, so anti-entropy cost is spread across passes instead of
spiking.  One-shot (CLI) passes scrub every shard.

:meth:`MaintenanceScheduler.for_manager` builds a scheduler over an
archive engine (:class:`~repro.core.manager.MultiModelManager`, plain or
fleet): one target per shard, placement kept in sync.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.config import MaintenanceConfig
from repro.core.approach import SETS_COLLECTION, SaveContext
from repro.simtime import SimClock

__all__ = [
    "MaintenancePassReport",
    "MaintenanceScheduler",
    "MaintenanceTarget",
    "ShardMaintenanceReport",
]


@dataclass
class MaintenanceTarget:
    """One shard the scheduler maintains.

    ``lock`` must expose ``acquire(blocking=...)``/``release`` over the
    shard context's mutex (the engine's
    :class:`~repro.observability.metrics.TimedLock` shard locks qualify,
    so fleet lock-wait metrics see maintenance contention too).
    ``on_retired(deleted)`` is called after a pass's transaction commits,
    with the ids it deleted — the engine drops their placement entries
    through it.  The catalog needs no hook: the pass records itself
    through ``context.registry`` (DESIGN.md §10).
    """

    name: str
    context: SaveContext
    lock: Any
    on_retired: "Callable[[list[str]], None] | None" = None


@dataclass
class ShardMaintenanceReport:
    """What one pass did on one shard."""

    shard: str
    #: The shard lock was busy (an in-flight writer txn) when the pass
    #: arrived; the pass waited behind it instead of starting.
    deferred: bool = False
    sets_deleted: int = 0
    sets_compacted: int = 0
    bytes_reclaimed: int = 0
    chunks_swept: int = 0
    repairs_drained: int = 0
    scrubbed: bool = False
    scrub_exit: "int | None" = None
    lost_artifacts: list[str] = field(default_factory=list)
    #: Simulated store seconds this shard's pass charged.
    sim_s: float = 0.0

    @property
    def changed(self) -> bool:
        return bool(
            self.sets_deleted
            or self.sets_compacted
            or self.chunks_swept
            or self.repairs_drained
            or (self.scrub_exit not in (None, 0))
        )


@dataclass
class MaintenancePassReport:
    """One full maintenance pass over every shard."""

    index: int
    #: Simulated clock reading when the pass started.
    started_at: float = 0.0
    shards: list[ShardMaintenanceReport] = field(default_factory=list)

    @property
    def sim_s(self) -> float:
        return sum(entry.sim_s for entry in self.shards)

    @property
    def changed(self) -> bool:
        return any(entry.changed for entry in self.shards)

    @property
    def exit_code(self) -> int:
        """CLI contract: 0 clean/no-op, 1 work done, 2 data lost."""
        if any(entry.lost_artifacts for entry in self.shards):
            return 2
        return 1 if self.changed else 0


class MaintenanceScheduler:
    """Runs background maintenance passes over one or more shards.

    Deterministic driving: call :meth:`tick` from your own loop (it runs
    a pass only when the :class:`SimClock` says one is due) or
    :meth:`run_pass` to force one now.  Wall-clock driving: ``start()``
    spawns a daemon thread that ticks until ``stop()``; an error inside
    a scheduled pass (e.g. an injected crash) stops the thread and is
    kept in :attr:`error`.

    ``fault_hook(point, shard=..., pass_index=...)`` — when given — is
    invoked at named points of each shard pass (``"in-txn"`` after the
    pass's mutations, inside the open journal transaction;
    ``"post-commit"`` before replica work).  Benchmarks raise
    :class:`~repro.errors.SimulatedCrashError` from it to kill a pass
    mid-transaction.
    """

    def __init__(
        self,
        targets: "list[MaintenanceTarget]",
        config: "MaintenanceConfig | None" = None,
        clock: "SimClock | None" = None,
        metrics=None,
        fault_hook: "Callable[..., None] | None" = None,
    ) -> None:
        if not targets:
            raise ValueError("the scheduler needs at least one shard target")
        self.targets = list(targets)
        self.config = config if config is not None else MaintenanceConfig(enabled=True)
        self.clock = clock if clock is not None else SimClock()
        self.metrics = metrics
        self.fault_hook = fault_hook
        self.passes: list[MaintenancePassReport] = []
        #: First error raised by a pass run on the background thread.
        self.error: "BaseException | None" = None
        self._next_due = self.clock.now + float(self.config.interval_s)
        self._scrub_cursor = 0
        self._pass_lock = threading.Lock()
        self._thread: "threading.Thread | None" = None
        self._stop = threading.Event()
        if metrics is not None:
            counter = metrics.counter
            self._c_passes = counter(
                "maintenance_passes_total", "maintenance passes completed"
            )
            self._c_deferred = counter(
                "maintenance_deferred_txn_waits_total",
                "maintenance passes that queued behind an in-flight writer txn",
            )
            self._c_bytes = counter(
                "maintenance_bytes_reclaimed_total",
                "bytes reclaimed by maintenance GC and chunk sweeps",
            )
            self._c_deleted = counter(
                "maintenance_sets_deleted_total", "sets deleted by maintenance GC"
            )
            self._c_compacted = counter(
                "maintenance_sets_compacted_total",
                "delta sets compacted into full snapshots by maintenance",
            )
            self._c_chunks = counter(
                "maintenance_chunks_swept_total",
                "zero-reference chunks reclaimed by maintenance sweeps",
            )
            self._c_repairs = counter(
                "maintenance_repairs_drained_total",
                "replica repair-queue entries drained by maintenance",
            )

    # -- construction ------------------------------------------------------
    @classmethod
    def for_manager(
        cls,
        manager,
        config: "MaintenanceConfig | None" = None,
        clock: "SimClock | None" = None,
        fault_hook: "Callable[..., None] | None" = None,
    ) -> "MaintenanceScheduler":
        """A scheduler over an archive engine, plain or fleet alike.

        One target per shard, named by the shard's label (``archive`` on
        a plain archive, ``shard-<i>`` on a fleet) and taken under the
        shard's timed lock (on a fleet, maintenance contention shows up
        in ``fleet_shard_<i>_lock_wait_s_total``), with
        :meth:`~repro.core.manager.MultiModelManager.forget_sets`
        dropping the placement of what each committed pass deleted.  The
        catalog records inside the pass's transaction.  ``config=None``
        takes the engine's ``maintenance`` settings.
        """
        targets = [
            MaintenanceTarget(shard.label, shard.context, shard.lock, manager.forget_sets)
            for shard in manager.shards
        ]
        if config is None:
            config = manager.config.maintenance
        return cls(
            targets,
            config=config,
            clock=clock,
            metrics=manager.metrics,
            fault_hook=fault_hook,
        )

    # -- scheduling --------------------------------------------------------
    @property
    def next_due(self) -> float:
        """Simulated time at which the next pass becomes runnable."""
        return self._next_due

    def tick(self) -> "MaintenancePassReport | None":
        """Run one pass if the clock says one is due (else ``None``)."""
        if not self.config.enabled:
            return None
        if self.clock.now < self._next_due:
            return None
        return self.run_pass(rolling=True)

    def run_pass(self, rolling: bool = False) -> MaintenancePassReport:
        """Run one maintenance pass over every shard, now.

        ``rolling`` scrubs only the round-robin cursor shard (scheduled
        mode); one-shot callers scrub every shard.  Raises whatever an
        injected fault raises — a killed pass leaves its journal entry
        pending for rollback at reopen, exactly like a killed save.
        """
        with self._pass_lock:
            index = len(self.passes)
            report = MaintenancePassReport(index=index, started_at=self.clock.now)
            scrub_shard = (
                self._scrub_cursor % len(self.targets) if rolling else None
            )
            doomed = self._fleet_doomed()
            try:
                for position, target in enumerate(self.targets):
                    scrub_here = self.config.scrub and (
                        scrub_shard is None or scrub_shard == position
                    )
                    report.shards.append(
                        self._shard_pass(target, index, doomed, scrub_here)
                    )
            finally:
                # A killed pass still consumed its slot: pacing and the
                # scrub rotation move on so a revived scheduler does not
                # immediately re-run the doomed schedule.
                self.passes.append(report)
                if rolling:
                    self._scrub_cursor += 1
                duty = float(self.config.duty_cycle)
                backoff = report.sim_s * (1.0 - duty) / duty
                self._next_due = self.clock.now + max(
                    float(self.config.interval_s), backoff
                )
                if self.metrics is not None:
                    self._c_passes.inc()
                    self._c_bytes.inc(
                        sum(entry.bytes_reclaimed for entry in report.shards)
                    )
                    self._c_deleted.inc(
                        sum(entry.sets_deleted for entry in report.shards)
                    )
                    self._c_compacted.inc(
                        sum(entry.sets_compacted for entry in report.shards)
                    )
                    self._c_chunks.inc(
                        sum(entry.chunks_swept for entry in report.shards)
                    )
                    self._c_repairs.inc(
                        sum(entry.repairs_drained for entry in report.shards)
                    )
            return report

    def _fleet_doomed(self) -> "set[str] | None":
        """Ids the retention policy condemns, decided fleet-wide.

        Fleet set ids are globally ordered, so "keep the newest N" is
        one decision over the union of every shard's listing — matching
        the fleet GC verb — not N per shard.  The decision is phrased as
        a *doomed* set (everything older than the newest N **as of pass
        start**) rather than a keep list: a save that lands between this
        snapshot and a shard's GC is newer than the cutoff by id order,
        so it must survive — and with a doomed set it does, structurally.
        """
        if self.config.gc_keep_last is None:
            return None
        from repro.core.retention import older_than_newest

        listings = []
        for target in self.targets:
            # Listings are management-plane reads, but the underlying
            # collections are mutated by live writers — take each shard's
            # lock (one at a time, never nested) for a consistent read.
            with target.lock:
                listings.append(
                    target.context.document_store.collection_ids(SETS_COLLECTION)
                )
        return older_than_newest(int(self.config.gc_keep_last), listings)

    def _fault(self, point: str, shard: str, pass_index: int) -> None:
        if self.fault_hook is not None:
            self.fault_hook(point, shard=shard, pass_index=pass_index)

    def _shard_pass(
        self,
        target: MaintenanceTarget,
        pass_index: int,
        doomed: "set[str] | None",
        scrub: bool,
    ) -> ShardMaintenanceReport:
        """One shard's slice of a pass: txn work, then replica work."""
        from repro.core.retention import CollectionReport, RetentionManager
        from repro.observability import trace as _trace

        context = target.context
        entry = ShardMaintenanceReport(shard=target.name)
        if not target.lock.acquire(blocking=False):
            # A writer txn is in flight: defer to it (queue behind the
            # lock) rather than contending from inside the save.
            entry.deferred = True
            if self.metrics is not None:
                self._c_deferred.inc()
            target.lock.acquire()
        sim_before = context.simulated_s()
        try:
            with context.trace(
                "maintenance", shard=target.name, pass_index=pass_index
            ):
                retention = RetentionManager(context)
                report = CollectionReport()
                # -- one atomic txn: compaction + GC + chunk sweep ----------
                with context.save_transaction("maintenance"):
                    compacted = self._compact_deep_chains(
                        context, retention, doomed
                    )
                    if doomed is not None:
                        with _trace.span("gc", kind="maintenance"):
                            report = retention.retire(doomed)
                    self._fault("in-txn", target.name, pass_index)
                compacted += report.compacted_sets
                entry.sets_deleted = len(report.deleted_sets)
                entry.sets_compacted = len(compacted)
                entry.bytes_reclaimed = report.bytes_reclaimed
                entry.chunks_swept = report.chunks_reclaimed
                # -- post-commit: placement hook, then replica work --------
                if target.on_retired is not None and report.deleted_sets:
                    target.on_retired(report.deleted_sets)
                self._fault("post-commit", target.name, pass_index)
                entry.repairs_drained += self._drain_repairs(context)
                if scrub:
                    self._scrub(context, entry)
        finally:
            entry.sim_s = context.simulated_s() - sim_before
            target.lock.release()
        return entry

    # -- tasks -------------------------------------------------------------
    def _compact_deep_chains(
        self, context: SaveContext, retention, doomed: "set[str] | None"
    ) -> "list[str]":
        """Compact kept sets whose recovery chain grew too deep.

        Bounds time-to-recover for chains the retention policy retains;
        sets GC is about to delete are skipped (compacting them would be
        wasted writes inside the same transaction).  Returns the ids
        :meth:`RetentionManager.compact` rewrote.
        """
        depth_limit = self.config.compact_chain_depth
        if depth_limit is None:
            return []
        from repro.observability import trace as _trace

        doomed = doomed or set()
        with _trace.span("compact-chains", kind="maintenance"):
            return [
                set_id
                for set_id, document in sorted(
                    context.document_store.peek_collection(SETS_COLLECTION).items()
                )
                if set_id not in doomed
                and int(document.get("chain_depth", 0)) >= int(depth_limit)
                and retention.compact(set_id)
            ]

    def _drain_repairs(self, context: SaveContext) -> int:
        """Drain replica repair queues; returns entries resolved."""
        from repro.observability import trace as _trace
        from repro.storage.replication import replicated_stores

        file_rep, doc_rep = replicated_stores(context)
        drained = 0
        with _trace.span("repair-drain", kind="maintenance"):
            for layer in (file_rep, doc_rep):
                if layer is None:
                    continue
                report = layer.repair_pending()
                drained += sum(
                    len(report.get(key, ()))
                    for key in ("repaired", "deleted", "dropped")
                )
        return drained

    def _scrub(self, context: SaveContext, entry: ShardMaintenanceReport) -> None:
        from repro.core.fsck import scrub_archive

        report = scrub_archive(context, deep=self.config.scrub_deep)
        entry.scrubbed = True
        entry.scrub_exit = report.exit_code
        entry.repairs_drained += report.pending_flushed
        entry.lost_artifacts.extend(report.lost_artifacts)

    # -- background driving ------------------------------------------------
    def start(self, poll_s: float = 0.002) -> None:
        """Tick on a daemon thread until :meth:`stop` (wall-clock pacing).

        The thread polls the simulated clock every ``poll_s`` wall
        seconds; whoever advances the clock (the ingest queue, a
        benchmark loop) thereby controls when passes fire.
        """
        if self._thread is not None:
            raise RuntimeError("the scheduler is already running")
        self._stop.clear()
        self.error = None

        def loop() -> None:
            while not self._stop.is_set():
                try:
                    if self.tick() is None:
                        self._stop.wait(poll_s)
                except BaseException as exc:  # noqa: BLE001 - kept for the driver
                    self.error = exc
                    return

        self._thread = threading.Thread(
            target=loop, name="maintenance-scheduler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the background thread (no-op when not running)."""
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join()
        self._thread = None
