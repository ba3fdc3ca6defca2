"""Coalescing async ingest front door for the fleet engine.

Training jobs emit *per-model* updates ("model 3 of set X finished a
cycle"), but the archive's unit of persistence is the *set-level* save.
:class:`IngestQueue` sits between them: many concurrent clients
``submit()`` per-model states, the queue coalesces everything pending
for one recovery chain (last-writer-wins per model index), and flushes
one derived save per batch when either

* the batch holds ``flush_max_updates`` submitted updates, or
* the oldest pending update's age on the queue's :class:`SimClock`
  reaches ``flush_max_age_s``.

Flushes are dispatched to a bounded pool of shard-affine workers: jobs
for shard ``i`` always run on worker ``i % workers``, so per-chain save
order is preserved, shards proceed in parallel, and no lock is ever
shared across shards.  ``workers=0`` runs flushes inline on the
submitting thread (deterministic, useful in tests).

Determinism: set ids are allocated at *dispatch* time (under the queue
lock, in flush order), not when a worker gets around to the save — so
the archive an ingest run produces depends only on the submission
streams, not on thread scheduling.

Graceful degradation (config: :class:`~repro.config.FleetHealthConfig`
on the fleet's :class:`~repro.config.ArchiveConfig`):

* **Admission control** — per-shard pending load is bounded by
  ``high_watermark``; a submit that would exceed it either *sheds*
  (raises :class:`~repro.errors.IngestBackpressureError` immediately)
  or *blocks* until the shard drains to ``low_watermark`` or the
  wall-clock deadline expires.  A stuck shard can therefore never OOM
  the queue.
* **Flush retry** — storage failures retry with exponential backoff on
  the shared :class:`SimClock` (``flush_retries`` ×
  ``retry_base_s * retry_multiplier^k``); the retries double as
  half-open probes against the shard's health breaker.
* **Dead-lettering** — a batch whose retries are exhausted is parked,
  journal-transactionally, in the fleet's
  :class:`~repro.fleet.deadletter.DeadLetterStore` instead of being
  dropped, and :meth:`IngestQueue.replay_dead_letters` re-submits it
  through this same coalescing path once the shard is back — so
  lineage and byte-identity of the recovered chain are preserved.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.core.approach import SETS_COLLECTION, id_order
from repro.core.baseline import layer_hashes
from repro.core.lineage import LineageGraph
from repro.core.model_set import ModelSet
from repro.core.recovery import changed_rows, stored_digests
from repro.errors import (
    DocumentNotFoundError,
    IngestBackpressureError,
    IngestClosedError,
    IngestError,
    ShardUnavailableError,
    StorageError,
)
from repro.core.manager import MultiModelManager
from repro.simtime import SimClock

__all__ = ["IngestQueue"]


@dataclass
class _Chain:
    """Pending state of one recovery chain (keyed by its root set id)."""

    root: str
    head: str  # id the next flush derives from
    shard: int = 0  # the shard every save of this chain routes to
    last_saved: str = ""  # newest id that definitely exists on the shard
    inflight: int = 0  # dispatched batches not yet saved
    dispatched: int = 0  # batches dispatched so far (per-chain sequence)
    #: model index -> latest submitted state (last-writer-wins).
    pending: "OrderedDict[int, OrderedDict]" = field(default_factory=OrderedDict)
    updates: int = 0  # submissions absorbed by the current batch
    first_at: float = 0.0  # sim time the current batch started

    #: Materialized current contents, recovered once then updated in
    #: memory across flushes (the worker owning this chain's shard is
    #: the only mutator).
    materialized: "ModelSet | None" = None
    #: The set whose contents ``materialized`` holds.
    materialized_id: str = ""


_SHUTDOWN = object()


class IngestQueue:
    """Coalesces per-model updates into set-level saves on a fleet.

    Parameters
    ----------
    fleet:
        The archive engine saves route through (a fleet, or a plain
        archive).  Its health config drives admission control, flush
        retry, and dead-lettering; a plain archive's is off.
    flush_max_updates:
        Flush a chain once its batch has absorbed this many submitted
        updates (coalesced resubmissions count — they are work the
        queue elided).
    flush_max_age_s:
        Flush a chain once its oldest pending update is this old on the
        simulated clock (``None`` disables the age deadline; deadlines
        are checked on ``submit``/``advance``/``drain``).
    workers:
        Size of the flush worker pool, clamped to the shard count
        (``None`` = one worker per shard; ``0`` = flush inline on the
        submitting thread).
    """

    def __init__(
        self,
        fleet: MultiModelManager,
        flush_max_updates: int = 16,
        flush_max_age_s: "float | None" = None,
        workers: "int | None" = None,
        clock: "SimClock | None" = None,
    ) -> None:
        if flush_max_updates < 1:
            raise ValueError("flush_max_updates must be >= 1")
        self.fleet = fleet
        self.flush_max_updates = int(flush_max_updates)
        self.flush_max_age_s = flush_max_age_s
        self.clock = clock if clock is not None else SimClock()
        self._lock = threading.Lock()
        #: Signalled whenever per-shard load drops (blocked submits wait
        #: here) and when the queue starts closing.
        self._cond = threading.Condition(self._lock)
        self._chains: dict[str, _Chain] = {}
        self._closed = False
        self._closing = False
        # The engine's own health config: off on a plain archive, which
        # gains no admission refusals from an ingest queue in front of it.
        self._health = fleet.health.config
        # -- counters (exported through the fleet's metrics registry) ------
        self.updates_submitted = 0
        self.updates_coalesced = 0
        self.flushes = 0
        self.models_written = 0
        self.updates_shed = 0
        self.blocked_submits = 0
        self.flush_retries = 0
        self.retry_backoff_s = 0.0
        self.dead_lettered = 0
        self.updates_replayed = 0
        #: Pending + in-flight per-model entries per shard (the bounded
        #: memory admission control enforces watermarks against).
        self._shard_load = [0] * fleet.num_shards
        #: One record per flush: set id, base, shard, batch accounting.
        self.flush_log: list[dict] = []
        # -- worker pool ---------------------------------------------------
        requested = fleet.num_shards if workers is None else int(workers)
        self._num_workers = max(0, min(requested, fleet.num_shards))
        self._queues: list["queue.Queue"] = [
            queue.Queue() for _ in range(self._num_workers)
        ]
        self._threads: list[threading.Thread] = []
        #: ``(error, job, dead_letter_id | None)`` per failed flush.
        self._errors: list[tuple] = []
        for index in range(self._num_workers):
            thread = threading.Thread(
                target=self._worker_loop,
                args=(self._queues[index],),
                name=f"ingest-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        registry = fleet.metrics
        if registry is not None:
            registry.register_provider("fleet:ingest", self._metrics)

    # -- metrics -----------------------------------------------------------
    @property
    def depth(self) -> int:
        """Pending (coalesced) per-model entries not yet flushed."""
        with self._lock:
            return sum(len(chain.pending) for chain in self._chains.values())

    @property
    def coalescing_ratio(self) -> float:
        """Submitted per-model updates per set-level save (>1 = batching)."""
        return self.updates_submitted / max(1, self.flushes)

    @property
    def write_elision_ratio(self) -> float:
        """Submitted updates per model actually written (>1 = overwrites
        absorbed by last-writer-wins before they hit storage)."""
        return self.updates_submitted / max(1, self.models_written)

    def shard_load(self) -> list[int]:
        """Per-shard pending + in-flight entry counts (admission view)."""
        with self._lock:
            return list(self._shard_load)

    def _metrics(self) -> dict:
        with self._lock:
            depth = sum(len(chain.pending) for chain in self._chains.values())
            load_max = max(self._shard_load) if self._shard_load else 0
        return {
            "ingest_queue_depth": depth,
            "ingest_updates_total": self.updates_submitted,
            "ingest_coalesced_updates_total": self.updates_coalesced,
            "ingest_flushes_total": self.flushes,
            "ingest_models_written_total": self.models_written,
            "ingest_coalescing_ratio": self.coalescing_ratio,
            "ingest_shard_load_max": load_max,
            "ingest_updates_shed_total": self.updates_shed,
            "ingest_blocked_submits_total": self.blocked_submits,
            "ingest_flush_retries_total": self.flush_retries,
            "ingest_retry_backoff_s_total": self.retry_backoff_s,
            "ingest_dead_lettered_total": self.dead_lettered,
            "ingest_updates_replayed_total": self.updates_replayed,
        }

    # -- submission --------------------------------------------------------
    def submit(self, set_id: str, model_index: int, state: "OrderedDict") -> None:
        """Queue one model's new state for the chain containing ``set_id``.

        A resubmission for a model index already pending replaces the
        previous state (last-writer-wins) — the superseded write never
        reaches storage.  May trigger flushes (of this chain by count,
        of any chain by age); with inline workers those saves run before
        ``submit`` returns.

        The queue keeps a reference to ``state``, not a copy, until the
        flush that saves it (and, as chain contents, after it): mutating
        ``state`` after ``submit`` is undefined.

        Naming a set of the chain newer (by id counter) than the head
        the queue remembers — one saved outside the queue — moves the
        head there first, so the next flush derives from it instead of
        forking the chain; naming an older one (its root, say) changes
        nothing.

        Raises :class:`~repro.errors.IngestClosedError` once
        ``close()``/``abort()`` has begun (deterministic, regardless of
        worker-pool state),
        :class:`~repro.errors.IngestBackpressureError` when the target
        shard's admission watermark refuses the update, and
        :class:`~repro.errors.ShardUnavailableError` when the shard's
        store cannot resolve the chain.
        """
        self._submit(set_id, model_index, state, replay=False)

    def _submit(self, set_id: str, model_index: int, state, replay: bool) -> None:
        """:meth:`submit`; a ``replay`` never displaces a pending state of
        the same model (it is older), and counts as coalesced instead."""
        if model_index < 0:
            raise IngestError(f"model index must be >= 0, got {model_index}")
        # Chain resolution may read descriptors; do it outside the queue
        # lock (memoized by the fleet).
        root = self._root_of(set_id)
        shard = self.fleet.shard_of(set_id)
        jobs = []
        with self._cond:
            self._check_open_locked()
            chain = self._chains.get(root)
            if chain is None:
                chain = _Chain(
                    root=root, head=set_id, shard=shard, last_saved=set_id
                )
                self._chains[root] = chain
            elif set_id not in (root, chain.head) and id_order(set_id) > id_order(chain.head):
                chain.head = chain.last_saved = set_id
            if model_index not in chain.pending:
                self._admit_locked(chain.shard)
                self._shard_load[chain.shard] += 1
            else:
                self.updates_coalesced += 1
            if not chain.pending:
                chain.first_at = self.clock.now
            if not (replay and model_index in chain.pending):
                chain.pending[model_index] = state
            chain.updates += 1
            self.updates_submitted += 1
            if chain.updates >= self.flush_max_updates:
                jobs.append(self._dispatch_locked(chain))
            jobs.extend(self._due_by_age_locked())
        self._run_or_enqueue(jobs)

    def _root_of(self, set_id: str) -> str:
        """The chain root of ``set_id``.  A store that fails the lookup
        counts against the shard's breaker, as a failed flush read does,
        and refuses the call as :class:`ShardUnavailableError`."""
        try:
            return self.fleet.root_of(set_id)
        except DocumentNotFoundError:
            raise
        except (OSError, StorageError) as error:
            shard = self.fleet.shard_of(set_id)
            self.fleet.health.record_failure(shard, error)
            raise ShardUnavailableError(
                f"shard {shard} could not resolve the chain of {set_id!r}: {error}",
                shard=shard,
                set_id=set_id,
            ) from error

    def _check_open_locked(self) -> None:
        if self._closing or self._closed:
            raise IngestClosedError("the ingest queue is closed")

    def _admit_locked(self, shard: int) -> None:
        """Enforce the per-shard watermark for one new pending entry.

        ``shed`` refuses immediately at the high watermark; ``block``
        waits (wall clock, bounded by ``block_deadline_s``) for worker
        flushes to drain the shard to the low watermark.  Inline pools
        (``workers=0``) cannot drain concurrently, so ``block`` refuses
        immediately there too rather than deadlocking.
        """
        config = self._health
        if not config.enabled:
            return
        if self._shard_load[shard] < int(config.high_watermark):
            return
        if config.backpressure == "shed" or self._num_workers == 0:
            self.updates_shed += 1
            raise IngestBackpressureError(
                f"shard {shard} ingest load {self._shard_load[shard]} is at "
                f"the high watermark ({config.high_watermark}); update shed",
                shards=(shard,),
            )
        self.blocked_submits += 1
        deadline = time.monotonic() + float(config.block_deadline_s)
        while self._shard_load[shard] > int(config.low_watermark):
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not self._cond.wait(timeout=remaining):
                self.updates_shed += 1
                raise IngestBackpressureError(
                    f"shard {shard} ingest load did not drain to the low "
                    f"watermark ({config.low_watermark}) within "
                    f"{config.block_deadline_s}s; update shed",
                    shards=(shard,),
                )
            self._check_open_locked()

    def _release_load_locked(self, shard: int, count: int) -> None:
        if count <= 0:
            return
        self._shard_load[shard] = max(0, self._shard_load[shard] - count)
        self._cond.notify_all()

    def advance(self, seconds: float) -> None:
        """Move the simulated clock and flush chains past the age deadline."""
        self.clock.advance(seconds)
        with self._lock:
            jobs = self._due_by_age_locked()
        self._run_or_enqueue(jobs)

    def flush(self, set_id: "str | None" = None) -> None:
        """Force-flush one chain (by any of its set ids) or everything."""
        root = self._root_of(set_id) if set_id is not None else None
        with self._lock:
            if root is None:
                chains = [c for c in self._chains.values() if c.pending]
                chains.sort(key=lambda chain: chain.root)
            else:
                chain = self._chains.get(root)
                chains = [chain] if chain is not None and chain.pending else []
            jobs = [self._dispatch_locked(chain) for chain in chains]
        self._run_or_enqueue(jobs)

    def drain(self) -> None:
        """Flush all pending batches and wait until every save finished.

        Raises one :class:`~repro.errors.IngestError` aggregating every
        worker failure since the last drain — carrying the failing set
        ids, their shard indices, and any dead-letter entry ids parked
        for replay.
        """
        self.flush()
        for job_queue in self._queues:
            job_queue.join()
        self._raise_pending_error()

    def close(self) -> None:
        """Drain, then stop the worker pool.  Idempotent.

        Close *never discards*: every pending-but-unflushed update is
        flushed and saved before the pool stops (``close()`` ==
        ``drain()`` + shutdown), and worker errors — including a failed
        flush whose allocation was rolled back — are re-raised after the
        pool is already stopped, so no save can race the shutdown.  From
        the moment close begins, ``submit`` deterministically raises
        :class:`~repro.errors.IngestClosedError`.  Callers that want
        crash semantics (drop pending work on the floor) use
        :meth:`abort` instead.
        """
        with self._cond:
            self._closing = True
            self._cond.notify_all()
        try:
            self.drain()
        finally:
            self._shutdown_pool()

    def abort(self) -> None:
        """Stop the pool *without* flushing pending updates.  Idempotent.

        Simulates the ingest tier dying: in-flight saves finish (a real
        crash would tear them through the journal instead, which the
        crash matrix covers), but pending-but-unflushed updates are
        discarded and ``submit`` refuses new work.  Worker errors are
        swallowed — the caller is abandoning the queue, and the fleet
        allocation rollback in :meth:`_execute` already ran.
        """
        with self._cond:
            self._closing = True
            for chain in self._chains.values():
                self._release_load_locked(chain.shard, len(chain.pending))
                chain.pending = OrderedDict()
                chain.updates = 0
            self._cond.notify_all()
        self._shutdown_pool()
        with self._lock:
            self._errors.clear()

    def _shutdown_pool(self) -> None:
        """Mark the queue closed, stop the workers and let go of each
        chain's materialized set (idempotent): a closed queue takes no
        submit, and the set is only a cache of the last durable save."""
        with self._lock:
            already = self._closed
            self._closed = True
        if not already:
            for job_queue in self._queues:
                job_queue.put(_SHUTDOWN)
            for thread in self._threads:
                thread.join()
        with self._lock:
            for chain in self._chains.values():
                chain.materialized = None
        registry = self.fleet.metrics
        if registry is not None:
            registry.unregister_provider("fleet:ingest")

    def __enter__(self) -> "IngestQueue":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- dead-letter replay ------------------------------------------------
    def replay_dead_letters(self, shard: "int | None" = None) -> dict:
        """Re-submit parked batches through the normal ingest path.

        Entries replay oldest-first, one flush per entry, each onto its
        chain's head as the store holds it: the newest set, by id counter,
        derived (through compaction too) from the batch's landed base,
        else from its chain root (:meth:`LineageGraph.head_of`, one
        descriptor scan per shard per replay).  So a fresh process
        replays exactly as the queue that parked the entry: same
        coalescing, same id allocation, same journaled save, hence
        preserved lineage and byte-identity.  A parked state is older
        than a pending update of the same model on its chain, so it never
        displaces one, nor is it replayed over a state the head holds
        (see :meth:`_superseded`; a collected base leaves nothing to
        compare): either way it counts as coalesced, and an entry left
        with no model is discarded as replayed.  Entries
        whose shard is still DOWN are skipped and kept; one whose chain
        cannot be resolved or compared, or has no set left, stays parked
        and is reported failed; an entry whose replay fails again is
        re-parked as fresh entries (exactly one copy of each update — the
        original is discarded before the resubmit).

        Returns ``{"replayed": [...], "skipped": [...], "failed": [...]}``.
        """
        store = self.fleet.deadletter
        replayed: list[str] = []
        skipped: list[str] = []
        failed: list[dict] = []
        entries = store.entries(shard=shard)
        # Each parked flush's entry (a later batch's base, when both
        # failed), and each shard's lineage as the replay began.
        flushes = {entry["set_id"]: entry for entry in entries if entry.get("set_id")}
        lineages: dict[int, LineageGraph] = {}
        for entry in entries:
            entry_id = entry["id"]
            target_shard = int(entry["shard"])
            # An out-of-range shard index happens when the highest-index
            # shard directories are missing at open (the detected
            # topology shrinks): treat it like a DOWN shard — skip, keep
            # the entry for replay once the directories are restored.
            if (
                target_shard >= self.fleet.num_shards
                or self.fleet.health.is_down(target_shard)
            ):
                skipped.append(entry_id)
                continue
            states = store.load_states(entry_id)
            context = self.fleet.shards[target_shard].context
            try:
                # Resolve the chain and compare states before the entry is
                # discarded: a store failing here leaves it parked as it is.
                if target_shard not in lineages:
                    lineages[target_shard] = LineageGraph.from_context(context)
                lineage = lineages[target_shard]
                base = entry["base"]
                while base not in lineage and base in flushes:
                    base = flushes[base]["base"]
                head = lineage.head_of(base) or lineage.head_of(entry["root"])
                if head is None:
                    raise DocumentNotFoundError(f"no set of the chain of {base!r} is held")
                self.fleet.root_of(head)
                stale = self._superseded(context, base, head, states) if base in lineage else []
                for model_index in stale:
                    del states[model_index]
                with self._lock:
                    self.updates_submitted += len(stale)
                    self.updates_coalesced += len(stale)
            except (OSError, StorageError) as error:
                failed.append({"id": entry_id, "error": str(error), "reparked": [entry_id]})
                continue
            # Discard before resubmitting: a replay that fails re-parks
            # through the normal exhaustion path, leaving exactly one
            # (fresh) copy rather than a duplicate.
            store.discard(entry_id)
            unsent = OrderedDict(sorted(states.items()))
            try:
                for model_index, state in list(unsent.items()):
                    try:
                        self._submit(head, int(model_index), state, replay=True)
                    except IngestError as error:
                        if not isinstance(error, IngestBackpressureError):
                            del unsent[model_index]  # accepted; its flush failed
                        raise
                    del unsent[model_index]
                self.flush(head)
                self.drain()
            except IngestError as error:
                reparked = list(getattr(error, "dead_letter_ids", ()))
                if unsent:
                    # Updates the queue never accepted (admission refused
                    # one, or a flush failed first) are parked back here,
                    # so nothing is lost.
                    reparked.append(
                        store.park(
                            shard=target_shard,
                            root=entry["root"],
                            base=entry["base"],
                            states=unsent,
                            updates=len(unsent),
                            seq=int(entry["seq"]),
                            error=f"replay failed: {error}",
                            parked_at=self.clock.now,
                        )
                    )
                failed.append({"id": entry_id, "error": str(error), "reparked": reparked})
            else:
                replayed.append(entry_id)
                with self._lock:
                    self.updates_replayed += len(states)
        return {"replayed": replayed, "skipped": skipped, "failed": failed}

    def _superseded(self, context, base: str, head: str, models) -> "list[int]":
        """Of an entry's parked ``models``, those ``head`` holds in another
        state than ``base``, the batch's landed base: a save after the
        batch's dispatch wrote them, and replaying them would roll them
        back.  Compared by digest rows (:func:`changed_rows`): stored, else
        hashed from the models the engine recovers."""
        models = list(models)
        if head == base or not models:
            return []
        store, sides = context.document_store, []
        for set_id in (base, head):
            document = store.peek(SETS_COLLECTION, set_id)
            stored = document and stored_digests(context, document, set_id, store.peek)
            if stored:
                sides.append([stored.rows[index] for index in models])
                continue
            states = [self.fleet.recover_model(set_id, index) for index in models]
            sides.append(layer_hashes(states, list(states[0]), context.workers, models))
        return [index for index, _layers in changed_rows(*sides, models)]

    # -- dispatch ----------------------------------------------------------
    def _due_by_age_locked(self) -> list[dict]:
        if self.flush_max_age_s is None:
            return []
        now = self.clock.now
        due = [
            chain
            for chain in self._chains.values()
            if chain.pending and now - chain.first_at >= self.flush_max_age_s
        ]
        due.sort(key=lambda chain: chain.root)
        return [self._dispatch_locked(chain) for chain in due]

    def _dispatch_locked(self, chain: _Chain) -> dict:
        """Turn a chain's pending batch into a save job (queue lock held).

        Allocates the set id now — in dispatch order — and advances the
        chain head so back-to-back batches of one chain derive from each
        other even while earlier saves are still running on a worker.
        """
        base = chain.head
        set_id, shard = self.fleet.allocate_save(base_set_id=base, shard=chain.shard)
        job = {
            "set_id": set_id,
            "base": base,
            "root": chain.root,
            "shard": shard,
            "seq": chain.dispatched,
            "states": chain.pending,
            "updates": chain.updates,
            "chain": chain,
        }
        chain.head = set_id
        chain.inflight += 1
        chain.dispatched += 1
        chain.pending = OrderedDict()
        chain.updates = 0
        return job

    def _run_or_enqueue(self, jobs: list[dict]) -> None:
        for job in jobs:
            if self._num_workers == 0:
                self._execute(job)
            else:
                self._queues[job["shard"] % self._num_workers].put(job)
        if self._num_workers == 0:
            self._raise_pending_error()

    def _worker_loop(self, job_queue: "queue.Queue") -> None:
        while True:
            job = job_queue.get()
            if job is _SHUTDOWN:
                job_queue.task_done()
                return
            try:
                self._execute(job)
            finally:
                job_queue.task_done()

    def _execute(self, job: dict) -> None:
        """Materialize the chain, apply the batch, save one derived set.

        Runs on the worker owning the chain's shard (or inline), which
        is the chain's only mutator — the materialized set needs no
        extra locking.  Storage failures retry with exponential backoff
        on the shared sim clock (the retries double as half-open probes
        of the shard's breaker); exhaustion dead-letters the batch.
        """
        chain: _Chain = job["chain"]
        config = self._health
        attempts = 1 + (int(config.flush_retries) if config.enabled else 0)
        error: "BaseException | None" = None
        for attempt in range(attempts):
            if attempt:
                backoff = float(config.retry_base_s) * (
                    float(config.retry_multiplier) ** (attempt - 1)
                )
                self.clock.advance(backoff)
                with self._lock:
                    self.flush_retries += 1
                    self.retry_backoff_s += backoff
                # A failed execute_save dropped the optimistic placement;
                # the retried save reuses the same allocation.
                self.fleet.reinstate_allocation(
                    job["set_id"], job["shard"], root=job["root"]
                )
            try:
                if chain.materialized is None or chain.materialized_id != job["base"]:
                    # Ungated read: flush admission (and half-open
                    # probing) is execute_save's allow(), and a gated
                    # read would starve the probe of its chain head.  It
                    # is the save's first step, so its storage failure
                    # is the save's and drives the shard breaker too; a
                    # missing base is this queue's rolled-back allocation.
                    try:
                        chain.materialized = self.fleet.recover_set_for_flush(
                            job["base"]
                        )
                        chain.materialized_id = job["base"]
                    except (OSError, StorageError) as read_error:
                        if not isinstance(read_error, DocumentNotFoundError):
                            self.fleet.health.record_failure(job["shard"], read_error)
                        raise
                current = chain.materialized
                for model_index, state in job["states"].items():
                    if not 0 <= model_index < len(current):
                        raise IngestError(
                            f"model index {model_index} out of range for the "
                            f"{len(current)}-model chain rooted at "
                            f"{job['root']!r}"
                        )
                    current.states[model_index] = state
                # ``current`` was recovered from the base or is the
                # previous successful flush (every failure drops it: the
                # storage branch below, _fail_job), so only the batch's
                # models can differ from the base: the save hashes those.
                self.fleet.execute_save(
                    job["set_id"],
                    job["shard"],
                    current,
                    base_set_id=job["base"],
                    coalesce={
                        "updates": job["updates"],
                        "models": len(job["states"]),
                    },
                    touched=frozenset(job["states"]),
                )
            except (OSError, StorageError) as storage_error:
                error = storage_error
                # Drop the half-applied materialization so the next
                # attempt rebuilds it from the last durable save.
                chain.materialized = None
                continue
            except BaseException as client_error:  # noqa: BLE001
                # Client errors (bad index) and crash simulations are not
                # the shard's fault: no retry, no dead-letter.
                error = client_error
                break
            else:
                chain.materialized_id = job["set_id"]
                with self._lock:
                    chain.inflight -= 1
                    chain.last_saved = job["set_id"]
                    self.flushes += 1
                    self.models_written += len(job["states"])
                    self.flush_log.append(
                        {
                            "set_id": job["set_id"],
                            "base": job["base"],
                            "root": job["root"],
                            "shard": job["shard"],
                            "seq": job["seq"],
                            "updates": job["updates"],
                            "models": len(job["states"]),
                        }
                    )
                    self._release_load_locked(job["shard"], len(job["states"]))
                return
        self._fail_job(job, error)

    def _fail_job(self, job: dict, error: BaseException) -> None:
        """Terminal flush failure: park the batch (when eligible), release
        the phantom allocation, roll the chain back to its last durable
        save, and record the failure for :meth:`drain` to surface."""
        chain: _Chain = job["chain"]
        entry_id = None
        if self._health.enabled and isinstance(error, (OSError, StorageError)):
            try:
                entry_id = self.fleet.deadletter.park(
                    shard=job["shard"],
                    root=job["root"],
                    base=job["base"],
                    states=job["states"],
                    updates=job["updates"],
                    seq=job["seq"],
                    error=f"{type(error).__name__}: {error}",
                    parked_at=self.clock.now,
                    set_id=job["set_id"],
                )
            except Exception:  # noqa: BLE001 - parking is best-effort
                entry_id = None
            else:
                with self._lock:
                    self.dead_lettered += 1
        with self._lock:
            # One step under the queue lock (queue -> fleet, the order
            # _dispatch_locked uses): a submit can never dispatch against
            # an id placement has forgotten but the chain head still names.
            self.fleet.forget_allocation(job["set_id"])
            chain.inflight -= 1
            chain.materialized = None
            if chain.inflight == 0:
                chain.head = chain.last_saved
            self._errors.append((error, job, entry_id))
            self._release_load_locked(job["shard"], len(job["states"]))

    def _raise_pending_error(self) -> None:
        with self._lock:
            if not self._errors:
                return
            failures = list(self._errors)
            self._errors.clear()
        cause = failures[0][0]
        set_ids = tuple(job["set_id"] for _, job, _ in failures)
        shards = tuple(sorted({job["shard"] for _, job, _ in failures}))
        parked = tuple(entry for _, _, entry in failures if entry is not None)
        noun = "flush" if len(failures) == 1 else "flushes"
        message = (
            f"{len(failures)} ingest {noun} failed: set id(s) "
            f"{', '.join(set_ids)} on shard(s) "
            f"{', '.join(str(shard) for shard in shards)}"
        )
        if parked:
            message += (
                f"; {len(parked)} batch(es) dead-lettered for replay "
                f"({', '.join(parked)})"
            )
        message += f" — first error: {cause}"
        raise IngestError(
            message, set_ids=set_ids, shards=shards, dead_letter_ids=parked
        ) from cause
