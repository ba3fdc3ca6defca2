"""Quorum-replicated storage backends with failover and repair queues.

One failed disk must not lose the archive.  This module multiplies the
storage substrates across ``N`` independent backends in the Dynamo
style:

* **quorum writes** — every mutation fans out to all reachable replicas
  and succeeds once ``write_quorum`` (W) of them acknowledge; replicas
  that missed the write are enqueued for targeted repair.
* **health tracking** — each replica carries a consecutive-failure
  circuit breaker: after ``failure_threshold`` straight failures the
  breaker opens and traffic skips the node, with a half-open probe every
  ``probe_interval_ops`` skipped operations so a recovered node is
  noticed and folded back in.
* **failover reads** — artifact reads are served from the fastest
  healthy replica (belief order: profile cost, then index) and verified
  against the recorded digest; a missing, corrupt, or unreachable copy
  fails over to the next replica and enqueues a repair.
* **hedged reads** — when the serving replica's actual cost exceeds
  ``hedge_threshold_s``, a second read races on the cheapest other
  healthy replica and the charge is the winner
  (``min(primary, hedge_delay_s + secondary)``).
* **quorum latency accounting** — the simulated charge of a replicated
  write is the completion time of achieving quorum: the W-th fastest of
  the parallel per-replica costs, recorded once on the layer's own
  :class:`~repro.storage.stats.StorageStats` (per-replica stats keep
  each backend's private view).

The layer slots *under* the save journal and the chunk store unchanged:
the replicated stores expose the full store surface and deliberately
have no ``_inner`` attribute, so :func:`repro.storage.journal.innermost`
stops here and journal bookkeeping is itself replicated.  Per-replica
stores may be wrapped in :class:`~repro.storage.faults.FaultyFileStore`
/ :class:`~repro.storage.faults.RetryingFileStore` proxies (see
:func:`repro.storage.faults.inject_replica_faults`), which is how the
crash matrix kills individual replicas.

Consistency model: with ``W + R > N`` every read quorum overlaps every
write quorum, so committed data survives any ``N - W`` replica failures
and reads never return uncommitted state under a single fault.  Document
reads poll the reachable replicas and take a majority vote; a tie breaks
toward absence only when the absent replicas are a majority of the full
replica set ``N`` (proof no write quorum committed the value) and toward
presence otherwise, so a committed write stays readable while holders
are down.  A revived stale replica is outvoted until the anti-entropy
scrubber (:func:`repro.core.fsck.scrub_archive`) converges it back to
byte-identical state.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Any

from repro.errors import (
    ArtifactCorruptionError,
    ArtifactNotFoundError,
    DocumentNotFoundError,
    DuplicateArtifactError,
    QuorumError,
    SimulatedCrashError,
    StorageError,
)
from repro.observability import trace as _trace
from repro.storage.document_store import document_num_bytes, encode_document
from repro.storage.hardware import makespan
from repro.storage.hashing import hash_bytes
from repro.storage.stats import StorageStats

#: Exceptions that mark a *replica* as failed (the fan-out continues).
#: :class:`~repro.errors.SimulatedCrashError` is deliberately not a
#: :class:`StorageError`: a process kill must unwind through the layer.
_REPLICA_FAILURES = (StorageError, OSError)

#: Artifact size used to rank replicas by *believed* read cost.  Routing
#: uses the profile alone — a degraded replica (``latency_factor > 1``)
#: still sorts by its healthy cost, which is exactly the regime hedged
#: reads exist for.
_PROBE_BYTES = 1 << 20


@dataclass(frozen=True)
class ReplicationPolicy:
    """Tunables of the replication layer (health, hedging)."""

    #: Consecutive failures that open a replica's circuit breaker.
    failure_threshold: int = 3
    #: Skipped operations between half-open probes of an open breaker.
    probe_interval_ops: int = 8
    #: Serve a hedged second read when the primary's actual simulated
    #: cost exceeds this many seconds; ``None`` disables hedging.
    hedge_threshold_s: float | None = None
    #: Head start the primary keeps in a hedged race (seconds).
    hedge_delay_s: float = 0.002


@dataclass
class ReplicaState:
    """One backend of a replica set, plus its health bookkeeping."""

    name: str
    store: Any
    #: Multiplier on this replica's *actual* simulated latency, modeling
    #: unexpected degradation the router does not know about (routing
    #: ranks replicas by healthy profile cost only).
    latency_factor: float = 1.0
    #: Consecutive failed operations (reset on any success).
    failures: int = 0
    #: True while the circuit breaker is open (traffic skips the node).
    breaker_open: bool = False
    #: Operations skipped since the breaker opened / the last probe.
    skipped: int = 0
    #: Times the breaker has opened (monitoring).
    breaker_trips: int = 0


def default_quorums(num_replicas: int) -> tuple[int, int]:
    """Majority write quorum and the matching read quorum (W + R = N + 1)."""
    write_quorum = num_replicas // 2 + 1
    return write_quorum, num_replicas - write_quorum + 1


def _quorum_cost(costs: list[float], quorum: int) -> float:
    """Completion time of achieving quorum: the Q-th fastest parallel ack."""
    if not costs:
        return 0.0
    return sorted(costs)[min(quorum, len(costs)) - 1]


def _safe_digest(store, artifact_id: str) -> str | None:
    try:
        return store.recorded_digest(artifact_id)
    except _REPLICA_FAILURES:
        return None


class _ReplicaSet:
    """Health/quorum machinery shared by both replicated stores."""

    def __init__(
        self,
        stores: list,
        write_quorum: int | None = None,
        read_quorum: int | None = None,
        policy: ReplicationPolicy | None = None,
        names: list[str] | None = None,
        latency_factors: list[float] | None = None,
    ) -> None:
        if not stores:
            raise ValueError("at least one replica store is required")
        count = len(stores)
        default_w, default_r = default_quorums(count)
        self.write_quorum = default_w if write_quorum is None else int(write_quorum)
        self.read_quorum = default_r if read_quorum is None else int(read_quorum)
        for label, value in (
            ("write_quorum", self.write_quorum),
            ("read_quorum", self.read_quorum),
        ):
            if not 1 <= value <= count:
                raise ValueError(
                    f"{label} must be between 1 and {count}, got {value}"
                )
        self.policy = policy or ReplicationPolicy()
        self.stats = StorageStats()
        if names is None:
            names = [f"replica-{index}" for index in range(count)]
        factors = latency_factors or [1.0] * count
        self.replicas = [
            ReplicaState(name=name, store=store, latency_factor=factor)
            for name, store, factor in zip(names, stores, factors)
        ]
        self.profile = self.replicas[0].store.profile

    # -- health ----------------------------------------------------------
    def _allow(self, state: ReplicaState) -> bool:
        """Breaker gate for one operation; open breakers probe half-open."""
        if not state.breaker_open:
            return True
        state.skipped += 1
        if state.skipped >= self.policy.probe_interval_ops:
            state.skipped = 0
            return True
        return False

    def _ok(self, state: ReplicaState) -> None:
        state.failures = 0
        if state.breaker_open:
            state.breaker_open = False
            state.skipped = 0

    def _fail(self, state: ReplicaState) -> None:
        state.failures += 1
        if state.breaker_open:
            state.skipped = 0  # failed probe: restart the cooldown
        elif state.failures >= self.policy.failure_threshold:
            state.breaker_open = True
            state.breaker_trips += 1
            state.skipped = 0

    def _require_quorum(self, successes: int, quorum: int, what: str) -> None:
        if successes < quorum:
            raise QuorumError(
                f"{what}: {successes} replica(s) acknowledged, "
                f"quorum is {quorum} of {len(self.replicas)}"
            )

    def health(self) -> list[dict]:
        """Per-replica health snapshot (monitoring/CLI)."""
        return [
            {
                "replica": state.name,
                "breaker_open": state.breaker_open,
                "consecutive_failures": state.failures,
                "breaker_trips": state.breaker_trips,
            }
            for state in self.replicas
        ]

    def replica_stats(self) -> dict[str, StorageStats]:
        """Each backend's private accounting, keyed by replica name."""
        return {state.name: state.store.stats for state in self.replicas}

    def _trace_acks(
        self,
        op: str,
        acks: "list[tuple[str, float]]",
        missed: "list[int]",
        quorum: int,
    ) -> None:
        """Attach a per-replica breakdown of one quorum write to the trace.

        Only fires when this layer's stats are the traced (context-level)
        ones, mirroring how charges attribute — so a degraded save's span
        tree shows exactly which replica ate the latency.
        """
        if not (self.stats.traced and _trace.active()):
            return
        _trace.add_event(
            "replica-acks",
            op=op,
            quorum=f"{quorum}/{len(self.replicas)}",
            acks={name: round(cost, 9) for name, cost in acks},
            missed=[self.replicas[index].name for index in missed],
        )


class ReplicatedFileStore(_ReplicaSet):
    """File store fanning every operation across N backend replicas.

    Interface-compatible with :class:`~repro.storage.file_store.FileStore`.
    Writes need ``write_quorum`` acknowledgements; reads are served from
    one replica, digest-verified, and fail over.  Replicas that miss a
    mutation are remembered in a per-replica repair queue
    (:meth:`pending_repairs`) drained by :meth:`repair_pending` and by
    the anti-entropy scrubber.
    """

    def __init__(self, stores, **kwargs) -> None:
        super().__init__(stores, **kwargs)
        #: replica index -> {artifact_id: "put" | "delete"}.
        self._pending: dict[int, dict[str, str]] = {}
        #: artifact_id -> category charged on this layer's stats at put
        #: time, so a delete returns the bytes to the same bucket.
        self._categories: dict[str, str] = {}

    # -- repair queue -----------------------------------------------------
    def _note_repair(self, index: int, artifact_id: str, op: str) -> None:
        self._pending.setdefault(index, {})[artifact_id] = op

    def _clear_repair(self, index: int, artifact_id: str) -> None:
        queue = self._pending.get(index)
        if queue is not None:
            queue.pop(artifact_id, None)
            if not queue:
                self._pending.pop(index, None)

    def pending_repairs(self) -> dict[str, dict[str, str]]:
        """Outstanding per-replica repairs, keyed by replica name."""
        return {
            self.replicas[index].name: dict(queue)
            for index, queue in sorted(self._pending.items())
        }

    def _canonical_bytes(self, artifact_id: str) -> tuple[bytes | None, str | None]:
        """Verified bytes of an artifact from any healthy holder."""
        for state in self.replicas:
            try:
                if not state.store.exists(artifact_id):
                    continue
                if not state.store.verify_artifact(artifact_id):
                    continue
                data = state.store.get(artifact_id)
            except _REPLICA_FAILURES:
                continue
            digest = _safe_digest(state.store, artifact_id) or hash_bytes(data)
            return data, digest
        return None, None

    def repair_pending(self) -> dict:
        """Drain the repair queues against replicas that are back.

        Copies canonical verified bytes onto replicas that missed a put
        (replacing divergent copies), applies missed deletes, drops
        entries whose artifact no longer exists anywhere (superseded),
        and defers entries whose replica is still unreachable.
        """
        report = {"repaired": [], "deleted": [], "dropped": [], "deferred": []}
        for index in sorted(self._pending):
            state = self.replicas[index]
            queue = self._pending[index]
            for artifact_id, op in list(queue.items()):
                try:
                    if op == "delete":
                        if state.store.exists(artifact_id):
                            state.store.delete(artifact_id)
                        report["deleted"].append((state.name, artifact_id))
                    else:
                        data, digest = self._canonical_bytes(artifact_id)
                        if data is None:
                            report["dropped"].append((state.name, artifact_id))
                            del queue[artifact_id]
                            continue
                        converged = False
                        if state.store.exists(artifact_id):
                            if (
                                _safe_digest(state.store, artifact_id) == digest
                                and state.store.verify_artifact(artifact_id)
                            ):
                                converged = True
                            else:
                                state.store.delete(artifact_id)
                        if not converged:
                            state.store.put(
                                data,
                                artifact_id=artifact_id,
                                category="repair",
                                digest=digest,
                            )
                        report["repaired"].append((state.name, artifact_id))
                    del queue[artifact_id]
                    self._ok(state)
                except SimulatedCrashError:
                    raise
                except _REPLICA_FAILURES:
                    self._fail(state)
                    report["deferred"].append((state.name, artifact_id))
            if not queue:
                self._pending.pop(index, None)
        return report

    # -- write ------------------------------------------------------------
    def _committed(self, artifact_id: str) -> bool:
        """Held by a write quorum (clipped to the reachable replicas)?

        An id held by fewer copies is a stale or partially replicated
        leftover: a new put is allowed to proceed and converge it, which
        is what makes retrying a save after a partial failure possible.
        """
        holders = reachable = 0
        for state in self.replicas:
            try:
                held = state.store.exists(artifact_id)
            except _REPLICA_FAILURES:
                continue
            reachable += 1
            holders += bool(held)
        return reachable > 0 and holders >= min(self.write_quorum, reachable)

    def put(
        self,
        data: bytes,
        artifact_id: str | None = None,
        category: str = "binary",
        workers: int = 1,
        digest: str | None = None,
    ) -> str:
        if digest is None:
            digest = hash_bytes(data)
        derived = artifact_id is None
        target = "sha256-" + digest if derived else artifact_id
        if not derived and self._committed(target):
            raise DuplicateArtifactError(f"artifact {target!r} already exists")
        costs: list[float] = []
        acks: list[tuple[str, float]] = []
        missed: list[int] = []
        for index, state in enumerate(self.replicas):
            if not self._allow(state):
                missed.append(index)
                continue
            try:
                try:
                    state.store.put(
                        data,
                        artifact_id=artifact_id,
                        category=category,
                        workers=workers,
                        digest=digest,
                    )
                except DuplicateArtifactError:
                    # This replica already holds the id.  Matching bytes
                    # are an idempotent success; divergent bytes are a
                    # stale leftover to overwrite — write-path anti-entropy.
                    if _safe_digest(state.store, target) != digest:
                        state.store.delete(target)
                        state.store.put(
                            data,
                            artifact_id=target,
                            category=category,
                            workers=workers,
                            digest=digest,
                        )
            except SimulatedCrashError:
                raise
            except _REPLICA_FAILURES:
                self._fail(state)
                missed.append(index)
            else:
                self._ok(state)
                self._clear_repair(index, target)
                cost = state.store._write_cost(len(data), workers) * state.latency_factor
                costs.append(cost)
                acks.append((state.name, cost))
        self._require_quorum(len(costs), self.write_quorum, f"put {target!r}")
        for index in missed:
            self._note_repair(index, target, "put")
        self.stats.record_write(
            len(data), _quorum_cost(costs, self.write_quorum), category
        )
        self._categories[target] = category
        self._trace_acks(f"put {target}", acks, missed, self.write_quorum)
        return target

    def open_writer(
        self,
        artifact_id: str | None,
        category: str = "binary",
        workers: int = 1,
    ) -> "_ReplicatedWriter":
        if artifact_id is not None and self._committed(artifact_id):
            raise DuplicateArtifactError(f"artifact {artifact_id!r} already exists")
        writers: list[tuple[int, ReplicaState, Any]] = []
        missed: list[int] = []
        for index, state in enumerate(self.replicas):
            if not self._allow(state):
                missed.append(index)
                continue
            try:
                writer = state.store.open_writer(
                    artifact_id, category=category, workers=workers
                )
            except SimulatedCrashError:
                raise
            except DuplicateArtifactError:
                # A stale minority copy blocks this replica's writer; it
                # is reconciled by the repair queue after close.
                missed.append(index)
            except _REPLICA_FAILURES:
                self._fail(state)
                missed.append(index)
            else:
                writers.append((index, state, writer))
        if not writers:
            raise QuorumError(
                f"open_writer {artifact_id!r}: no replica reachable"
            )
        return _ReplicatedWriter(self, artifact_id, category, workers, writers, missed)

    # -- read -------------------------------------------------------------
    def _candidates(self) -> list[tuple[int, ReplicaState]]:
        """Replica order for reads: believed cost, then index; breaker-gated."""
        order = sorted(
            range(len(self.replicas)),
            key=lambda i: (
                self.replicas[i].store.profile.file_read_cost(_PROBE_BYTES),
                i,
            ),
        )
        return [
            (index, self.replicas[index])
            for index in order
            if self._allow(self.replicas[index])
        ]

    def _hedged(self, base: float, serving: ReplicaState, alt_costs) -> float:
        """Charge of a read with an optional hedged second request.

        ``alt_costs(state)`` returns the actual cost the alternative
        replica would take; the race winner is charged.
        """
        policy = self.policy
        if policy.hedge_threshold_s is None or base <= policy.hedge_threshold_s:
            return base
        alternatives = [
            alt_costs(state)
            for state in self.replicas
            if state is not serving and not state.breaker_open
        ]
        if not alternatives:
            return base
        hedged = policy.hedge_delay_s + min(alternatives)
        if hedged < base:
            self.stats.record_hedge()
            if self.stats.traced and _trace.active():
                _trace.add_event(
                    "hedged-read",
                    primary=serving.name,
                    primary_cost=round(base, 9),
                    hedged_cost=round(hedged, 9),
                )
            return hedged
        return base

    def get(self, artifact_id: str, workers: int = 1) -> bytes:
        tried = 0
        saw_missing = False
        saw_corrupt = False
        for index, state in self._candidates():
            try:
                data = state.store.get(artifact_id, workers=workers)
            except SimulatedCrashError:
                raise
            except ArtifactNotFoundError:
                # Healthy but divergent replica — no breaker penalty.
                saw_missing = True
                self._note_repair(index, artifact_id, "put")
                tried += 1
                continue
            except _REPLICA_FAILURES:
                self._fail(state)
                self._note_repair(index, artifact_id, "put")
                tried += 1
                continue
            recorded = _safe_digest(state.store, artifact_id)
            if recorded is not None and hash_bytes(data) != recorded:
                # Bitrot on this copy: heal later, serve from elsewhere.
                saw_corrupt = True
                self._note_repair(index, artifact_id, "put")
                tried += 1
                continue
            self._ok(state)
            if tried:
                self.stats.record_failover()
                if self.stats.traced and _trace.active():
                    _trace.add_event(
                        "read-failover",
                        artifact=artifact_id,
                        served_by=state.name,
                        replicas_skipped=tried,
                    )
            base = state.store._read_cost(len(data), workers) * state.latency_factor
            charged = self._hedged(
                base,
                state,
                lambda other: other.store._read_cost(len(data), workers)
                * other.latency_factor,
            )
            self.stats.record_read(len(data), charged)
            return data
        if saw_corrupt:
            raise ArtifactCorruptionError(
                f"artifact {artifact_id!r} fails verification on every replica"
            )
        if saw_missing:
            raise ArtifactNotFoundError(
                f"artifact {artifact_id!r} unavailable on every replica"
            )
        raise QuorumError(f"get {artifact_id!r}: no replica reachable")

    def get_range(self, artifact_id: str, offset: int, length: int) -> bytes:
        return self.get_ranges(artifact_id, [(offset, length)])[0]

    def get_ranges(
        self,
        artifact_id: str,
        ranges: "list[tuple[int, int]]",
        workers: int = 1,
    ) -> "list[bytes]":
        """Vectored range read from one verified replica.

        Range reads cannot digest-check the returned slices in
        isolation, so the serving replica's whole artifact is verified
        (uncharged, like fsck) before its byte ranges are trusted — a
        corrupt replica can therefore never silently feed garbage into
        chunk recovery.
        """
        tried = 0
        saw_missing = False
        saw_corrupt = False
        for index, state in self._candidates():
            try:
                if not state.store.exists(artifact_id):
                    saw_missing = True
                    self._note_repair(index, artifact_id, "put")
                    tried += 1
                    continue
                if not state.store.verify_artifact(artifact_id):
                    saw_corrupt = True
                    self._note_repair(index, artifact_id, "put")
                    tried += 1
                    continue
                chunks = state.store.get_ranges(artifact_id, ranges, workers=workers)
            except SimulatedCrashError:
                raise
            except _REPLICA_FAILURES:
                self._fail(state)
                self._note_repair(index, artifact_id, "put")
                tried += 1
                continue
            self._ok(state)
            if tried:
                self.stats.record_failover()
                if self.stats.traced and _trace.active():
                    _trace.add_event(
                        "read-failover",
                        artifact=artifact_id,
                        served_by=state.name,
                        replicas_skipped=tried,
                    )
            total = sum(len(chunk) for chunk in chunks)
            base = (
                makespan(
                    [
                        state.store.profile.file_read_cost(len(chunk))
                        for chunk in chunks
                    ],
                    workers,
                )
                * state.latency_factor
            )
            charged = self._hedged(
                base,
                state,
                lambda other: makespan(
                    [
                        other.store.profile.file_read_cost(len(chunk))
                        for chunk in chunks
                    ],
                    workers,
                )
                * other.latency_factor,
            )
            self.stats.record_read(total, charged)
            return chunks
        if saw_corrupt:
            raise ArtifactCorruptionError(
                f"artifact {artifact_id!r} fails verification on every replica"
            )
        if saw_missing:
            raise ArtifactNotFoundError(
                f"artifact {artifact_id!r} unavailable on every replica"
            )
        raise QuorumError(f"get_ranges {artifact_id!r}: no replica reachable")

    # -- management plane (uncharged; no breaker bookkeeping) ---------------
    def delete(self, artifact_id: str) -> None:
        """Remove an artifact; needs ``write_quorum`` acks like ``put``.

        A delete acknowledged by fewer replicas would report success
        while a majority keeps serving the bytes (and ``_committed``
        keeps blocking re-puts of the id), so it fails loudly instead
        and leaves the repair queues to finish the job.
        """
        found = False
        num_bytes = 0
        applied = 0
        missed: list[int] = []
        for index, state in enumerate(self.replicas):
            if not self._allow(state):
                missed.append(index)
                continue
            try:
                if state.store.exists(artifact_id):
                    if not found:
                        num_bytes = state.store.size(artifact_id)
                    found = True
                    state.store.delete(artifact_id)
                applied += 1
            except SimulatedCrashError:
                raise
            except _REPLICA_FAILURES:
                self._fail(state)
                missed.append(index)
            else:
                self._ok(state)
                self._clear_repair(index, artifact_id)
        self._require_quorum(applied, self.write_quorum, f"delete {artifact_id!r}")
        if not found and not missed:
            raise ArtifactNotFoundError(f"no artifact {artifact_id!r}")
        for index in missed:
            self._note_repair(index, artifact_id, "delete")
        if found:
            self.stats.record_delete(
                num_bytes, self._categories.pop(artifact_id, "binary")
            )

    def recorded_digest(self, artifact_id: str) -> str | None:
        for state in self.replicas:
            try:
                if state.store.exists(artifact_id):
                    digest = state.store.recorded_digest(artifact_id)
                    if digest is not None:
                        return digest
            except _REPLICA_FAILURES:
                continue
        return None

    def verify_artifact(self, artifact_id: str) -> bool:
        """Whether *every* reachable copy still matches its digest.

        Conservative by design: one rotten replica makes the archive
        degraded (the scrubber heals it), even though reads fail over.
        """
        verdicts: list[bool] = []
        reachable = 0
        for state in self.replicas:
            try:
                if state.store.exists(artifact_id):
                    verdicts.append(state.store.verify_artifact(artifact_id))
                reachable += 1
            except _REPLICA_FAILURES:
                continue
        if not verdicts:
            if reachable:
                raise ArtifactNotFoundError(f"no artifact {artifact_id!r}")
            raise QuorumError(
                f"verify_artifact {artifact_id!r}: no replica reachable"
            )
        return all(verdicts)

    def verify_replicas(self, artifact_id: str) -> dict[str, object]:
        """Per-replica verdicts: True/False, "missing", or "unreachable"."""
        verdicts: dict[str, object] = {}
        for state in self.replicas:
            try:
                if not state.store.exists(artifact_id):
                    verdicts[state.name] = "missing"
                else:
                    verdicts[state.name] = state.store.verify_artifact(artifact_id)
            except _REPLICA_FAILURES:
                verdicts[state.name] = "unreachable"
        return verdicts

    def exists(self, artifact_id: str) -> bool:
        reachable = 0
        for state in self.replicas:
            try:
                if state.store.exists(artifact_id):
                    return True
                reachable += 1
            except _REPLICA_FAILURES:
                continue
        if reachable == 0:
            raise QuorumError(f"exists {artifact_id!r}: no replica reachable")
        return False

    def size(self, artifact_id: str) -> int:
        reachable = 0
        for state in self.replicas:
            try:
                if state.store.exists(artifact_id):
                    return state.store.size(artifact_id)
                reachable += 1
            except _REPLICA_FAILURES:
                continue
        if reachable == 0:
            raise QuorumError(f"size {artifact_id!r}: no replica reachable")
        raise ArtifactNotFoundError(f"no artifact {artifact_id!r}")

    def ids(self) -> list[str]:
        union: set[str] = set()
        reachable = 0
        for state in self.replicas:
            try:
                union.update(state.store.ids())
                reachable += 1
            except _REPLICA_FAILURES:
                continue
        if reachable == 0:
            raise QuorumError("ids(): no replica reachable")
        return sorted(union)

    def total_bytes(self) -> int:
        """Logical archive size: the largest reachable replica's view."""
        best = None
        for state in self.replicas:
            try:
                value = state.store.total_bytes()
            except _REPLICA_FAILURES:
                continue
            best = value if best is None else max(best, value)
        if best is None:
            raise QuorumError("total_bytes(): no replica reachable")
        return best

    def __len__(self) -> int:
        return len(self.ids())

    # -- cost model (delegated to the lead replica's profile) ---------------
    def _write_cost(self, num_bytes: int, workers: int = 1) -> float:
        return self.replicas[0].store._write_cost(num_bytes, workers)

    def _read_cost(self, num_bytes: int, workers: int = 1) -> float:
        return self.replicas[0].store._read_cost(num_bytes, workers)


class _ReplicatedWriter:
    """Fans streamed chunks to one writer per reachable replica.

    Accounting mirrors :meth:`ReplicatedFileStore.put`: one write charged
    at close with the quorum completion cost.  A replica whose writer
    fails mid-stream is aborted, health-penalized, and queued for repair;
    close succeeds while ``write_quorum`` writers finalize.
    """

    def __init__(
        self,
        store: ReplicatedFileStore,
        artifact_id: str | None,
        category: str,
        workers: int,
        writers: list,
        missed: list[int],
    ) -> None:
        import hashlib

        self._store = store
        self._artifact_id = artifact_id
        self._category = category
        self._workers = workers
        self._writers = writers
        self._missed = list(missed)
        self._hasher = hashlib.sha256()
        self._num_bytes = 0
        self._closed = False

    def write(self, chunk: bytes) -> None:
        if self._closed:
            raise StorageError("writer already closed")
        chunk = bytes(chunk)
        self._hasher.update(chunk)
        self._num_bytes += len(chunk)
        survivors = []
        for index, state, writer in self._writers:
            try:
                writer.write(chunk)
            except SimulatedCrashError:
                raise
            except _REPLICA_FAILURES:
                self._store._fail(state)
                self._missed.append(index)
                try:
                    writer.abort()
                except Exception:
                    pass
            else:
                survivors.append((index, state, writer))
        self._writers = survivors
        if not survivors:
            self._closed = True
            raise QuorumError("streamed write lost every replica")

    def close(self) -> str:
        if self._closed:
            raise StorageError("writer already closed")
        self._closed = True
        store = self._store
        digest = self._hasher.hexdigest()
        target = (
            self._artifact_id
            if self._artifact_id is not None
            else "sha256-" + digest
        )
        costs: list[float] = []
        acks: list[tuple[str, float]] = []
        for index, state, writer in self._writers:
            try:
                writer.close()
            except SimulatedCrashError:
                raise
            except DuplicateArtifactError:
                # The id landed on this replica between open and close; a
                # matching digest makes the close an idempotent success.
                if _safe_digest(state.store, target) == digest:
                    store._ok(state)
                    cost = (
                        state.store._write_cost(self._num_bytes, self._workers)
                        * state.latency_factor
                    )
                    costs.append(cost)
                    acks.append((state.name, cost))
                else:
                    self._missed.append(index)
            except _REPLICA_FAILURES:
                store._fail(state)
                self._missed.append(index)
            else:
                store._ok(state)
                store._clear_repair(index, target)
                cost = (
                    state.store._write_cost(self._num_bytes, self._workers)
                    * state.latency_factor
                )
                costs.append(cost)
                acks.append((state.name, cost))
        store._require_quorum(
            len(costs), store.write_quorum, f"writer close {target!r}"
        )
        for index in self._missed:
            store._note_repair(index, target, "put")
        store.stats.record_write(
            self._num_bytes,
            _quorum_cost(costs, store.write_quorum),
            self._category,
        )
        store._categories[target] = self._category
        store._trace_acks(f"put {target}", acks, self._missed, store.write_quorum)
        return target

    def abort(self) -> None:
        self._closed = True
        for _index, _state, writer in self._writers:
            try:
                writer.abort()
            except Exception:
                pass
        self._writers = []

    def __enter__(self) -> "_ReplicatedWriter":
        return self

    def __exit__(self, exc_type, _exc, _tb) -> None:
        if exc_type is not None:
            self.abort()
        elif not self._closed:
            self.close()


def _encode(document: dict) -> str:
    """Canonical encoding for cross-replica document comparison."""
    return json.dumps(document, separators=(",", ":"), sort_keys=True)


class ReplicatedDocumentStore(_ReplicaSet):
    """Document store with quorum writes and majority-vote reads.

    Interface-compatible with
    :class:`~repro.storage.document_store.DocumentStore`, including the
    uncharged raw plane the save journal uses — journal records are
    replicated like any other document, so losing a replica never loses
    the undo log.  Reads poll every reachable replica and return the
    majority value per document; ties break toward absence only when the
    absent replicas are a majority of the full set ``N`` (no write
    quorum can have committed the value), toward presence otherwise, and
    then toward the lowest replica index.  Replicas that miss a mutation
    are remembered in a per-replica repair queue
    (:meth:`pending_repairs`) drained by :meth:`repair_pending` and by
    the anti-entropy scrubber.
    """

    def __init__(self, stores, **kwargs) -> None:
        super().__init__(stores, **kwargs)
        self.stats.origin = "doc"
        #: replica index -> {(collection, doc_id): "put" | "delete"}.
        self._pending: dict[int, dict[tuple[str, str], str]] = {}
        #: (collection, doc_id) -> category charged on this layer's stats
        #: at insert time, so a delete returns the bytes to the same bucket.
        self._categories: dict[tuple[str, str], str] = {}
        highest = -1
        for state in self.replicas:
            try:
                collections = state.store._collections
            except _REPLICA_FAILURES:
                continue
            for documents in collections.values():
                for doc_id in documents:
                    if doc_id.startswith("doc-"):
                        try:
                            highest = max(highest, int(doc_id[4:]))
                        except ValueError:
                            pass
        self._id_counter = itertools.count(highest + 1)

    # -- repair queue -----------------------------------------------------
    def _note_repair(self, index: int, collection: str, doc_id: str, op: str) -> None:
        self._pending.setdefault(index, {})[(collection, doc_id)] = op

    def _clear_repair(self, index: int, collection: str, doc_id: str) -> None:
        queue = self._pending.get(index)
        if queue is not None:
            queue.pop((collection, doc_id), None)
            if not queue:
                self._pending.pop(index, None)

    def pending_repairs(self) -> dict[str, dict[str, str]]:
        """Outstanding per-replica repairs, keyed by replica name."""
        return {
            self.replicas[index].name: {
                f"{collection}/{doc_id}": op
                for (collection, doc_id), op in sorted(queue.items())
            }
            for index, queue in sorted(self._pending.items())
        }

    def repair_pending(self) -> dict:
        """Drain the document repair queues against replicas that are back.

        A missed insert/replace is replayed as the *current* majority
        value (anti-entropy, not history replay); a missed delete is
        applied; an entry whose document no longer has a majority value
        is retired as a delete; entries whose replica is still
        unreachable (or whose majority is unreadable) are deferred.
        """
        report = {"repaired": [], "deleted": [], "deferred": []}
        for index in sorted(self._pending):
            state = self.replicas[index]
            queue = self._pending[index]
            for (collection, doc_id), op in list(queue.items()):
                label = f"{collection}/{doc_id}"
                if op == "delete":
                    document = None
                else:
                    try:
                        document = self.peek(collection, doc_id)
                    except QuorumError:
                        # Layer-wide outage, not this replica's fault.
                        report["deferred"].append((state.name, label))
                        continue
                try:
                    if document is None:
                        state.store._delete_raw(collection, doc_id)
                        report["deleted"].append((state.name, label))
                    else:
                        state.store._write_raw(collection, doc_id, document)
                        report["repaired"].append((state.name, label))
                except SimulatedCrashError:
                    raise
                except _REPLICA_FAILURES:
                    self._fail(state)
                    report["deferred"].append((state.name, label))
                else:
                    self._ok(state)
                    del queue[(collection, doc_id)]
            if not queue:
                self._pending.pop(index, None)
        return report

    # -- majority machinery ----------------------------------------------
    def _reachable_collections(self) -> list[tuple[int, dict]]:
        reachable = []
        for index, state in enumerate(self.replicas):
            try:
                reachable.append((index, state.store._collections))
            except _REPLICA_FAILURES:
                continue
        if not reachable:
            raise QuorumError("document read: no replica reachable")
        return reachable

    def _quorum_collections(self, what: str) -> list[tuple[int, dict]]:
        """Reachable collections, or :class:`QuorumError` below R."""
        reachable = self._reachable_collections()
        if len(reachable) < self.read_quorum:
            raise QuorumError(
                f"{what}: {len(reachable)} replica(s) reachable, "
                f"read quorum is {self.read_quorum} of {len(self.replicas)}"
            )
        return reachable

    def _vote(self, ballots: list[tuple[int, dict | None]]) -> dict | None:
        """Majority value of the ballots cast by reachable replicas.

        A tie (only possible while replicas are unreachable) breaks
        toward absence only when the absent replicas are a majority of
        the *full* replica set — proof that no write quorum committed
        the value.  Otherwise presence wins: a committed W-quorum write
        must stay readable while its holders are down (``W + R > N``
        guarantees a read quorum still overlaps it).  Equal-preference
        groups break toward the lowest replica index.

        Unanimous ballots (the healthy case) return the lowest replica's
        ballot without encoding anything; only a divergent vote pays for
        the canonical encodings that group it.  Unanimous means ``==``,
        under which ``1``, ``1.0`` and ``True`` are one value: ballots
        differing only in such a spelling elect the lowest replica's.
        """
        first = ballots[0][1]
        if all(document == first for _index, document in ballots):
            return first
        groups: dict[str | None, list[int]] = {}
        samples: dict[str | None, dict | None] = {}
        for index, document in ballots:
            key = None if document is None else _encode(document)
            groups.setdefault(key, []).append(index)
            samples.setdefault(key, document)
        total = len(self.replicas)

        def rank(item):
            key, indices = item
            absent = key is None
            absence_majority = absent and 2 * len(indices) > total
            return (len(indices), absence_majority, not absent, -min(indices))

        return samples[max(groups.items(), key=rank)[0]]

    def peek_collection(self, collection: str) -> dict[str, dict]:
        """Majority view of one collection, read-only like :meth:`peek`."""
        reachable = self._quorum_collections(f"collection read {collection!r}")
        doc_ids: set[str] = set()
        for _index, collections in reachable:
            doc_ids.update(collections.get(collection, {}))
        view: dict[str, dict] = {}
        for doc_id in sorted(doc_ids):
            ballots = [
                (index, collections.get(collection, {}).get(doc_id))
                for index, collections in reachable
            ]
            document = self._vote(ballots)
            if document is not None:
                view[doc_id] = document
        return view

    def peek(self, collection: str, doc_id: str) -> dict | None:
        """One single-document majority vote, uncharged and uncopied.

        Same reachability and read-quorum checks as :meth:`get`; the
        result is the winning replica's own document (**read-only**).
        """
        reachable = self._quorum_collections(
            f"document read {collection}/{doc_id}"
        )
        ballots = [
            (index, collections.get(collection, {}).get(doc_id))
            for index, collections in reachable
        ]
        return self._vote(ballots)

    @property
    def _collections(self) -> dict[str, dict[str, dict]]:
        """Merged majority view of every collection: O(archive) votes.

        Cold path, kept for the replica-divergence report of fsck and
        scrub (:func:`replica_divergence`); point reads use :meth:`peek`.
        """
        names: set[str] = set()
        for _index, collections in self._reachable_collections():
            names.update(collections)
        return {name: self.peek_collection(name) for name in sorted(names)}

    def _read_quorum_cost(self, num_bytes: int) -> float:
        """Actual cost of hearing back from the fastest R replicas."""
        costs = sorted(
            state.store.profile.doc_read_cost(num_bytes) * state.latency_factor
            for state in self.replicas
            if not state.breaker_open
        )
        if not costs:
            costs = [self.profile.doc_read_cost(num_bytes)]
        return costs[min(self.read_quorum, len(costs)) - 1]

    # -- write ------------------------------------------------------------
    def insert(
        self,
        collection: str,
        document: dict,
        doc_id: str | None = None,
        category: str = "metadata",
    ) -> str:
        if doc_id is None:
            # Pre-drawn at the layer so every replica stores the same id.
            doc_id = f"doc-{next(self._id_counter):08d}"
        num_bytes = document_num_bytes(document)
        costs: list[float] = []
        acks: list[tuple[str, float]] = []
        missed: list[int] = []
        for index, state in enumerate(self.replicas):
            if not self._allow(state):
                missed.append(index)
                continue
            try:
                state.store.insert(
                    collection, document, doc_id=doc_id, category=category
                )
            except SimulatedCrashError:
                raise
            except _REPLICA_FAILURES:
                self._fail(state)
                missed.append(index)
            else:
                self._ok(state)
                self._clear_repair(index, collection, doc_id)
                cost = (
                    state.store.profile.doc_write_cost(num_bytes)
                    * state.latency_factor
                )
                costs.append(cost)
                acks.append((state.name, cost))
        self._require_quorum(
            len(costs), self.write_quorum, f"insert {collection}/{doc_id}"
        )
        for index in missed:
            self._note_repair(index, collection, doc_id, "put")
        self.stats.record_write(
            num_bytes, _quorum_cost(costs, self.write_quorum), category
        )
        self._categories[(collection, doc_id)] = category
        self._trace_acks(
            f"insert {collection}/{doc_id}", acks, missed, self.write_quorum
        )
        return doc_id

    def replace(self, collection: str, doc_id: str, document: dict) -> None:
        existing = self.peek(collection, doc_id)
        if existing is None:
            raise DocumentNotFoundError(
                f"no document {doc_id!r} in collection {collection!r}"
            )
        num_bytes = document_num_bytes(document)
        costs: list[float] = []
        missed: list[int] = []
        for index, state in enumerate(self.replicas):
            if not self._allow(state):
                missed.append(index)
                continue
            try:
                try:
                    state.store.replace(collection, doc_id, document)
                except DocumentNotFoundError:
                    # The doc is committed (majority has it) but this
                    # replica missed the insert: converge it in passing.
                    state.store._write_raw(collection, doc_id, document)
            except SimulatedCrashError:
                raise
            except _REPLICA_FAILURES:
                self._fail(state)
                missed.append(index)
            else:
                self._ok(state)
                self._clear_repair(index, collection, doc_id)
                costs.append(
                    state.store.profile.doc_write_cost(num_bytes)
                    * state.latency_factor
                )
        self._require_quorum(
            len(costs), self.write_quorum, f"replace {collection}/{doc_id}"
        )
        for index in missed:
            self._note_repair(index, collection, doc_id, "put")
        # The overwritten document's bytes leave the store (see
        # DocumentStore.replace).
        self.stats.record_delete(
            document_num_bytes(existing),
            self._categories.get((collection, doc_id), "metadata"),
            count_op=False,
        )
        self._categories[(collection, doc_id)] = "metadata"
        self.stats.record_write(
            num_bytes, _quorum_cost(costs, self.write_quorum), "metadata"
        )

    def delete(self, collection: str, doc_id: str) -> None:
        existing = self.peek(collection, doc_id)
        if existing is None:
            raise DocumentNotFoundError(
                f"no document {doc_id!r} in collection {collection!r}"
            )
        successes = 0
        missed: list[int] = []
        for index, state in enumerate(self.replicas):
            if not self._allow(state):
                missed.append(index)
                continue
            try:
                try:
                    state.store.delete(collection, doc_id)
                except DocumentNotFoundError:
                    pass  # already absent on this replica — converged
            except SimulatedCrashError:
                raise
            except _REPLICA_FAILURES:
                self._fail(state)
                missed.append(index)
            else:
                self._ok(state)
                self._clear_repair(index, collection, doc_id)
                successes += 1
        self._require_quorum(
            successes, self.write_quorum, f"delete {collection}/{doc_id}"
        )
        for index in missed:
            self._note_repair(index, collection, doc_id, "delete")
        self.stats.record_delete(
            document_num_bytes(existing),
            self._categories.pop((collection, doc_id), "metadata"),
        )

    # -- read -------------------------------------------------------------
    def get(self, collection: str, doc_id: str) -> dict:
        document = self.peek(collection, doc_id)
        if document is None:
            raise DocumentNotFoundError(
                f"no document {doc_id!r} in collection {collection!r}"
            )
        encoded, num_bytes = encode_document(document)
        self.stats.record_read(num_bytes, self._read_quorum_cost(num_bytes))
        return json.loads(encoded)

    def find(self, collection: str, **equals) -> list[tuple[str, dict]]:
        matches: list[tuple[str, dict]] = []
        for doc_id, document in self.peek_collection(collection).items():
            if all(document.get(key) == value for key, value in equals.items()):
                encoded, num_bytes = encode_document(document)
                self.stats.record_read(
                    num_bytes, self._read_quorum_cost(num_bytes)
                )
                matches.append((doc_id, json.loads(encoded)))
        return matches

    # -- raw plane (journal bookkeeping; uncharged) -------------------------
    def _write_raw(self, collection: str, doc_id: str, document: dict) -> None:
        successes = 0
        missed: list[int] = []
        for index, state in enumerate(self.replicas):
            if not self._allow(state):
                missed.append(index)
                continue
            try:
                state.store._write_raw(collection, doc_id, document)
            except SimulatedCrashError:
                raise
            except _REPLICA_FAILURES:
                self._fail(state)
                missed.append(index)
            else:
                self._ok(state)
                self._clear_repair(index, collection, doc_id)
                successes += 1
        # The journal's undo log needs the same durability as the data
        # it protects: quorum or the save must not proceed.
        self._require_quorum(
            successes, self.write_quorum, f"raw write {collection}/{doc_id}"
        )
        for index in missed:
            self._note_repair(index, collection, doc_id, "put")

    def _delete_raw(self, collection: str, doc_id: str) -> None:
        # Best effort: a replica that misses the retirement keeps a stale
        # entry, which the majority vote hides and the repair queue (or
        # the scrubber, once every replica is reachable again) retires.
        for index, state in enumerate(self.replicas):
            if not self._allow(state):
                self._note_repair(index, collection, doc_id, "delete")
                continue
            try:
                state.store._delete_raw(collection, doc_id)
            except SimulatedCrashError:
                raise
            except _REPLICA_FAILURES:
                self._fail(state)
                self._note_repair(index, collection, doc_id, "delete")
            else:
                self._ok(state)
                self._clear_repair(index, collection, doc_id)

    def _read_raw(self, collection: str, doc_id: str) -> dict | None:
        document = self.peek(collection, doc_id)
        if document is None:
            return None
        return json.loads(json.dumps(document))

    # -- inspection (uncharged) --------------------------------------------
    def exists(self, collection: str, doc_id: str) -> bool:
        return self.peek(collection, doc_id) is not None

    def collection_ids(self, collection: str) -> list[str]:
        return sorted(self.peek_collection(collection))

    def collections(self) -> list[str]:
        names: set[str] = set()
        for _index, collections in self._reachable_collections():
            names.update(collections)
        return sorted(names)

    def count(self, collection: str) -> int:
        return len(self.peek_collection(collection))

    def total_bytes(self) -> int:
        """Logical metadata size: bytes of the majority view."""
        return sum(
            document_num_bytes(document)
            for collection in self._collections.values()
            for document in collection.values()
        )


# -- wiring and divergence inspection ---------------------------------------
def replicated_stores(context):
    """The replicated layers of a context's stores (``None`` if absent)."""

    def find(store, cls):
        while store is not None and not isinstance(store, cls):
            store = getattr(store, "_inner", None)
        return store

    return (
        find(context.file_store, ReplicatedFileStore),
        find(context.document_store, ReplicatedDocumentStore),
    )


def replica_divergence(
    file_rep: ReplicatedFileStore | None,
    doc_rep: ReplicatedDocumentStore | None,
    deep: bool = False,
) -> list[dict]:
    """Per-replica diff against the majority view.

    Shallow mode compares artifact presence and recorded digests plus
    document contents; ``deep=True`` additionally re-hashes every copy,
    which is what catches a torn replica write (honest digest over torn
    bytes).  Only replicas that diverge (or are unreachable) appear in
    the result.
    """
    entries: list[dict] = []
    canonical_docs = doc_rep._collections if doc_rep is not None else {}

    canonical_artifacts: dict[str, str | None] = {}
    if file_rep is not None:
        votes: dict[str, dict[str | None, int]] = {}
        reachable = 0
        for state in file_rep.replicas:
            try:
                ids = state.store.ids()
            except _REPLICA_FAILURES:
                continue
            reachable += 1
            for artifact_id in ids:
                digest = _safe_digest(state.store, artifact_id)
                counts = votes.setdefault(artifact_id, {})
                counts[digest] = counts.get(digest, 0) + 1
        for artifact_id, counts in votes.items():
            holders = sum(counts.values())
            if reachable and holders * 2 > reachable:
                canonical_artifacts[artifact_id] = max(
                    counts.items(), key=lambda item: item[1]
                )[0]

    names = [
        state.name
        for state in (file_rep or doc_rep).replicas
    ]
    for position, name in enumerate(names):
        entry: dict = {
            "replica": name,
            "unreachable": False,
            "missing_artifacts": [],
            "extra_artifacts": [],
            "divergent_artifacts": [],
            "missing_documents": 0,
            "extra_documents": 0,
            "divergent_documents": 0,
        }
        if file_rep is not None:
            state = file_rep.replicas[position]
            try:
                held = set(state.store.ids())
                entry["missing_artifacts"] = sorted(
                    set(canonical_artifacts) - held
                )
                entry["extra_artifacts"] = sorted(
                    held - set(canonical_artifacts)
                )
                for artifact_id in sorted(held & set(canonical_artifacts)):
                    digest = _safe_digest(state.store, artifact_id)
                    if digest != canonical_artifacts[artifact_id]:
                        entry["divergent_artifacts"].append(artifact_id)
                    elif deep and not state.store.verify_artifact(artifact_id):
                        entry["divergent_artifacts"].append(artifact_id)
            except _REPLICA_FAILURES:
                entry["unreachable"] = True
        if doc_rep is not None and not entry["unreachable"]:
            state = doc_rep.replicas[position]
            try:
                collections = state.store._collections
                for collection, canonical in canonical_docs.items():
                    held_docs = collections.get(collection, {})
                    for doc_id, document in canonical.items():
                        if doc_id not in held_docs:
                            entry["missing_documents"] += 1
                        elif _encode(held_docs[doc_id]) != _encode(document):
                            entry["divergent_documents"] += 1
                    entry["extra_documents"] += len(
                        set(held_docs) - set(canonical)
                    )
                for collection in set(collections) - set(canonical_docs):
                    entry["extra_documents"] += len(collections[collection])
            except _REPLICA_FAILURES:
                entry["unreachable"] = True
        if (
            entry["unreachable"]
            or entry["missing_artifacts"]
            or entry["extra_artifacts"]
            or entry["divergent_artifacts"]
            or entry["missing_documents"]
            or entry["extra_documents"]
            or entry["divergent_documents"]
        ):
            entries.append(entry)
    return entries
