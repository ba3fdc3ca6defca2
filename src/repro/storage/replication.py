"""Quorum-replicated storage backends with failover and repair queues.

One failed disk must not lose the archive.  This module multiplies the
storage substrates across ``N`` independent backends in the Dynamo
style:

* **quorum writes** — every mutation fans out to all reachable replicas
  and succeeds once ``write_quorum`` (W) of them acknowledge; replicas
  that missed the write are enqueued for targeted repair.
* **health tracking** — each replica carries a
  :class:`~repro.breaker.Breaker`: after ``failure_threshold`` straight
  failures it opens and traffic skips the node, with a half-open probe
  every ``probe_interval_ops`` skipped operations so a recovered node is
  noticed and folded back in.
* **failover reads** — artifact reads are served from the fastest
  healthy replica (belief order: profile cost, then index) and verified
  against the recorded digest (a ranged read with a caller's check —
  the chunk store's per-chunk digests — verifies only the bytes it
  returns); a missing, corrupt, or unreachable copy
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

How a replica is visited, and what counts as its failure, is written
once, in three primitives (DESIGN.md §7): :meth:`_ReplicaSet._fan_out`
for every mutation (with its epilogue :meth:`_ReplicaSet._settle` /
:meth:`_ReplicaSet._charge`), :meth:`ReplicatedFileStore._failover_read`
for every charged artifact read, and :meth:`_ReplicaSet._scan` for every
uncharged question — the only one that never touches a breaker.

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

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable

from repro.breaker import Breaker
from repro.errors import (
    ArtifactCorruptionError,
    ArtifactNotFoundError,
    ArtifactTruncatedError,
    DocumentNotFoundError,
    DuplicateArtifactError,
    QuorumError,
    StorageError,
)
from repro.observability import trace as _trace
from repro.storage.document_store import (
    FrozenDict,
    FrozenList,
    auto_id_counter,
    check_document_key,
    document_num_bytes,
)
from repro.storage.file_store import WriterContext, check_artifact_id
from repro.storage.hashing import hash_bytes
from repro.storage.stats import StorageStats

#: Exceptions that mark a *replica* as failed (the fan-out continues).
#: :class:`~repro.errors.SimulatedCrashError` is deliberately neither: a
#: process kill must unwind through the layer untouched.
_REPLICA_FAILURES = (StorageError, OSError)

#: Artifact size used to rank replicas by *believed* read cost.  Routing
#: uses the profile alone — a degraded replica (``latency_factor > 1``)
#: still sorts by its healthy cost, which is exactly the regime hedged
#: reads exist for.
_PROBE_BYTES = 1 << 20

#: Fan-out closure result: this replica missed the mutation through no
#: fault of its own (no breaker penalty).
_MISSED = object()
#: Failover-read closure results in place of ``(payload, size)``: the copy
#: is absent / fails verification.  ``_FAILED`` is the primitive's own.
_MISSING, _CORRUPT, _FAILED = object(), object(), object()
#: :meth:`ReplicatedFileStore.verified_copy`: accept any recorded digest.
_ANY = object()


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
    #: Consecutive-failure circuit breaker gating traffic to the node.
    breaker: Breaker
    #: Multiplier on this replica's *actual* simulated latency, modeling
    #: unexpected degradation the router does not know about (routing
    #: ranks replicas by healthy profile cost only).
    latency_factor: float = 1.0


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
        self.policy = policy = policy or ReplicationPolicy()
        self.stats = StorageStats()
        self.replicas = [
            ReplicaState(
                f"replica-{index}",
                store,
                Breaker(policy.failure_threshold, policy.probe_interval_ops),
            )
            for index, store in enumerate(stores)
        ]
        self.profile = self.replicas[0].store.profile
        #: replica index -> {key: "put" | "delete"}; the key is opaque
        #: here (an artifact id, or a ``(collection, doc_id)`` pair).
        self._pending: dict[int, dict[Any, str]] = {}
        #: key -> category charged on this layer's stats at write time,
        #: so a delete returns the bytes to the same bucket.
        self._categories: dict[Any, str] = {}

    # -- primitive 1: the write fan-out -----------------------------------
    def _fan_out(self, visit, key=None, targets=None, gated=True, quorum=0):
        """Apply one mutation to the replicas; returns ``(acks, missed)``.

        ``visit(index, store)`` mutates one backend.  Per replica (all,
        or the ``targets`` indices): a breaker refusal (``gated`` only)
        is a miss; a ``StorageError`` / ``OSError`` penalises the breaker
        and is a miss; :data:`_MISSED` is a miss without penalty; anything
        else is an ack — the breaker closes and the repair entry for
        ``key`` is cleared.  Both results list replica indices.

        When fewer than ``quorum`` replicas acknowledged, the replicas the
        breaker refused are visited ungated, as half-open probes, before
        the caller gives up: a revived replica whose breaker is still open
        then lets the write commit.  A fan-out that reaches its quorum
        never probes, so the healthy path is unchanged.
        """
        acks: list[int] = []
        missed: list[int] = []
        refused: list[int] = []
        if targets is None:
            targets = range(len(self.replicas))
        for index in targets:
            state = self.replicas[index]
            outcome = _MISSED  # unless the visit runs and acknowledges
            if not gated or state.breaker.allow():
                try:
                    outcome = visit(index, state.store)
                except _REPLICA_FAILURES:
                    state.breaker.failure()
            else:
                refused.append(index)
            if outcome is _MISSED:
                missed.append(index)
                continue
            state.breaker.success()
            if key is not None:
                self._clear_repair(index, key)
            acks.append(index)
        if refused and len(acks) < quorum:
            probed, _ = self._fan_out(visit, key, targets=refused, gated=False)
            acks = sorted(acks + probed)
            missed = [index for index in missed if index not in probed]
        return acks, missed

    def _settle(self, what: str, key, op: str, acks, missed, quorum: int) -> None:
        """The epilogue of a fan-out: require the quorum, queue repairs."""
        if len(acks) < quorum:
            raise QuorumError(
                f"{what}: {len(acks)} replica(s) acknowledged, "
                f"quorum is {quorum} of {len(self.replicas)}"
            )
        for index in missed:
            self._note_repair(index, key, op)

    def _replicate(self, what: str, key, op: str, visit, quorum=None):
        """Gated fan-out to every replica, settled at W (or ``quorum``)."""
        quorum = self.write_quorum if quorum is None else quorum
        acks, missed = self._fan_out(visit, key, quorum=quorum)
        self._settle(what, key, op, acks, missed, quorum)
        return acks, missed

    def _charge(self, label, key, num_bytes, category, cost, acks, missed) -> None:
        """Charge one settled quorum write; emit its per-replica breakdown.

        ``cost(store)`` is the write's cost on a healthy backend; the
        charge is the W-th fastest ack's actual cost.  ``replica-acks``
        fires only when this layer's stats are the traced ones, like the
        charge itself — a degraded save shows which replica ate the latency.
        """
        costs = [
            (state.name, cost(state.store) * state.latency_factor)
            for state in (self.replicas[index] for index in acks)
        ]
        self.stats.record_write(
            num_bytes,
            _quorum_cost([value for _name, value in costs], self.write_quorum),
            category,
        )
        self._categories[key] = category
        if self.stats.traced and _trace.active():
            _trace.add_event(
                "replica-acks",
                op=label,
                quorum=f"{self.write_quorum}/{len(self.replicas)}",
                acks={name: round(value, 9) for name, value in costs},
                missed=[self.replicas[index].name for index in missed],
            )

    # -- primitive 3: the reachable scan ------------------------------------
    def _scan(self, ask, what: str | None = None, skip=()):
        """Yield ``(index, ask(store))`` for every replica that answers.

        Replicas named in ``skip`` are not asked; unreachable ones
        (``StorageError`` / ``OSError``) are skipped; if nobody answered a
        named question (``what``), exhaustion raises :class:`QuorumError`.
        Lazy — a caller may stop at the first useful answer — and
        management plane: no breaker is touched.
        """
        silent = True
        for index, state in enumerate(self.replicas):
            if state.name in skip:
                continue
            try:
                answer = ask(state.store)
            except _REPLICA_FAILURES:
                continue
            silent = False
            yield index, answer
        if silent and what is not None:
            raise QuorumError(f"{what}: no replica reachable")

    def _first(self, ask, what: str | None = None):
        """The first answer that is not ``None`` (``None``: nobody has one)."""
        for _index, answer in self._scan(ask, what):
            if answer is not None:
                return answer
        return None

    def _ask_all(self, ask, skip=()) -> tuple[dict[str, Any], set[str]]:
        """``({name: answer}, names that gave none)``, ``skip`` aside."""
        answers = {
            self.replicas[index].name: answer
            for index, answer in self._scan(ask, skip=skip)
        }
        asked = {state.name for state in self.replicas} - set(skip)
        return answers, asked - set(answers)

    # -- repair queue -----------------------------------------------------
    def _note_repair(self, index: int, key, op: str) -> None:
        self._pending.setdefault(index, {})[key] = op

    def _clear_repair(self, index: int, key) -> None:
        queue = self._pending.get(index)
        if queue is not None:
            queue.pop(key, None)
            if not queue:
                del self._pending[index]

    def _drain(self, plan) -> dict:
        """Replay the queue, one replica at a time and ungated.

        ``plan(key, op)`` returns ``(bucket, visit)``: ``visit`` runs on
        the replica through the fan-out (success closes its breaker and
        clears the entry; failure files it as ``"deferred"``).  With
        ``visit=None`` nothing runs, and ``"dropped"`` forgets the entry.
        """
        report = {"repaired": [], "deleted": [], "dropped": [], "deferred": []}
        queued = [
            (index, key, op)
            for index in sorted(self._pending)
            for key, op in self._pending[index].items()
        ]
        for index, key, op in queued:
            bucket, visit = plan(key, op)
            if visit is None:
                if bucket == "dropped":
                    self._clear_repair(index, key)
            elif not self._fan_out(visit, key, targets=(index,), gated=False)[0]:
                bucket = "deferred"
            entry = (self.replicas[index].name, self._repair_label(key))
            report[bucket].append(entry)
        return report

    def _repair_label(self, key) -> str:
        return key

    def pending_repairs(self) -> dict[str, dict[str, str]]:
        """Outstanding per-replica repairs, keyed by replica name."""
        return {
            self.replicas[index].name: {
                self._repair_label(key): op for key, op in sorted(queue.items())
            }
            for index, queue in sorted(self._pending.items())
        }

    # -- monitoring --------------------------------------------------------
    def health(self) -> list[dict]:
        """Per-replica health snapshot (monitoring/CLI)."""
        return [
            {
                "replica": state.name,
                "breaker_open": state.breaker.open,
                "consecutive_failures": state.breaker.failures,
                "breaker_trips": state.breaker.trips,
            }
            for state in self.replicas
        ]


#: Ballots a unanimous vote may be remembered by (DESIGN.md §13).
_HELD = (FrozenDict, FrozenList)


def _copy_ok(store, artifact_id: str, digest, deep: bool) -> bool:
    """Does this backend's copy record ``digest`` (``deep``: and hash to it)?"""
    return _safe_digest(store, artifact_id) == digest and (
        not deep or store.verify_artifact(artifact_id)
    )


def _heal_copy(store, artifact_id: str, data: bytes, digest, deep: bool = True) -> bool:
    """Replace one backend's copy unless it is already good; did it write?"""
    if store.exists(artifact_id):
        if _copy_ok(store, artifact_id, digest, deep):
            return False
        store.delete(artifact_id)
    store.put(data, artifact_id=artifact_id, category="repair", digest=digest)
    return True


class ReplicatedFileStore(_ReplicaSet):
    """File store fanning every operation across N backend replicas.

    Interface-compatible with :class:`~repro.storage.file_store.FileStore`.
    Writes need ``write_quorum`` acknowledgements; reads are served from
    one replica, digest-verified, and fail over.  Replicas that miss a
    mutation are remembered in a per-replica repair queue
    (:meth:`pending_repairs`) drained by :meth:`repair_pending` and by
    the anti-entropy scrubber.
    """

    def repair_pending(self) -> dict:
        """Drain the repair queues against replicas that are back.

        Copies verified bytes onto replicas that missed a put (replacing
        divergent copies), applies missed deletes, drops entries whose
        artifact no longer exists anywhere (superseded), and defers
        entries whose replica is still unreachable.
        """

        def plan(artifact_id, op):
            if op == "delete":

                def visit(_index, store):
                    if store.exists(artifact_id):
                        store.delete(artifact_id)

                return "deleted", visit
            data = self.verified_copy(artifact_id)
            if data is None:
                return "dropped", None
            digest = hash_bytes(data)
            return "repaired", lambda _index, store: _heal_copy(
                store, artifact_id, data, digest
            )

        return self._drain(plan)

    # -- write ------------------------------------------------------------
    def _committed(self, artifact_id: str) -> bool:
        """Held by a write quorum (clipped to the reachable replicas)?

        An id held by fewer copies is a stale or partially replicated
        leftover: a new put is allowed to proceed and converge it, which
        is what makes retrying a save after a partial failure possible.
        """
        held = [
            answer
            for _index, answer in self._scan(lambda store: store.exists(artifact_id))
        ]
        return bool(held) and sum(held) >= min(self.write_quorum, len(held))

    def _charge_put(self, target, num_bytes, category, workers, acks, missed) -> None:
        """Charge one settled artifact write (``put`` / writer close)."""
        self._charge(
            f"put {target}", target, num_bytes, category,
            lambda store: store._write_cost(num_bytes, workers), acks, missed,
        )

    def put(
        self,
        data: bytes,
        artifact_id: str,
        category: str = "binary",
        workers: int = 1,
        digest: str | None = None,
    ) -> str:
        if digest is None:
            digest = hash_bytes(data)
        # Ahead of the fan-out: a name every backend would refuse is the
        # caller's mistake, not N replica failures.
        check_artifact_id(artifact_id)
        if self._committed(artifact_id):
            raise DuplicateArtifactError(f"artifact {artifact_id!r} already exists")

        options = {"category": category, "workers": workers, "digest": digest}

        def visit(_index, store):
            try:
                store.put(data, artifact_id=artifact_id, **options)
            except DuplicateArtifactError:
                # This replica already holds the id.  Matching bytes are
                # an idempotent success; divergent bytes are a stale
                # leftover to overwrite — write-path anti-entropy.
                if _safe_digest(store, artifact_id) != digest:
                    store.delete(artifact_id)
                    store.put(data, artifact_id=artifact_id, **options)

        acks, missed = self._replicate(f"put {artifact_id!r}", artifact_id, "put", visit)
        self._charge_put(artifact_id, len(data), category, workers, acks, missed)
        return artifact_id

    def open_writer(
        self,
        artifact_id: str,
        category: str = "binary",
        workers: int = 1,
    ) -> "_ReplicatedWriter":
        check_artifact_id(artifact_id)
        if self._committed(artifact_id):
            raise DuplicateArtifactError(f"artifact {artifact_id!r} already exists")
        writers: dict[int, Any] = {}

        def visit(index, store):
            try:
                writers[index] = store.open_writer(
                    artifact_id, category=category, workers=workers
                )
            except DuplicateArtifactError:
                # A stale minority copy blocks this replica's writer; it
                # is reconciled by the repair queue after close.
                return _MISSED

        # No key: nothing has landed yet, so no repair entry is cleared.
        _acks, missed = self._fan_out(visit, quorum=self.write_quorum)
        if not writers:
            raise QuorumError(
                f"open_writer {artifact_id!r}: no replica reachable"
            )
        return _ReplicatedWriter(self, artifact_id, category, workers, writers, missed)

    # -- primitive 2: the failover read -------------------------------------
    def _candidates(self) -> list[int]:
        """Replica order for reads: believed cost, then index; breaker-gated."""
        order = sorted(
            range(len(self.replicas)),
            key=lambda i: (
                self.replicas[i].store.profile.file_read_cost(_PROBE_BYTES),
                i,
            ),
        )
        return [index for index in order if self.replicas[index].breaker.allow()]

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
            if state is not serving and not state.breaker.open
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

    def _failover_read(self, what: str, artifact_id: str, read, cost):
        """Serve one charged read from the first replica that can.

        ``read(store)`` returns ``(payload, num_bytes)``, or
        :data:`_MISSING` / :data:`_CORRUPT` (``ArtifactNotFoundError``
        counts as missing); ``cost(store, payload)`` is the read's cost
        on a healthy backend.  A missing or corrupt copy is a healthy but
        divergent replica — no breaker penalty — while a ``StorageError``
        / ``OSError`` penalises it; all three queue a ``put`` repair and
        fail over.  The serving replica's breaker closes and its actual
        cost is charged, hedged per the policy.

        The breaker gate is **eager**: :meth:`_candidates` consults every
        breaker before the first read is tried, so a read served by
        replica 0 still advances an open breaker on replica 1 and can use
        up its probe slot without contacting it.  The expected rate of
        real probes per operation is unchanged, and the soak's and fault
        matrix's revive timing is pinned to it — so it stays.
        """
        tried = 0
        verdicts = set()
        for index in self._candidates():
            state = self.replicas[index]
            try:
                outcome = read(state.store)
            except ArtifactNotFoundError:
                outcome = _MISSING
            except _REPLICA_FAILURES:
                state.breaker.failure()
                outcome = _FAILED
            if not isinstance(outcome, tuple):
                verdicts.add(outcome)
                self._note_repair(index, artifact_id, "put")
                tried += 1
                continue
            payload, num_bytes = outcome
            state.breaker.success()
            if tried:
                self.stats.record_failover()
                if self.stats.traced and _trace.active():
                    _trace.add_event(
                        "read-failover",
                        artifact=artifact_id,
                        served_by=state.name,
                        replicas_skipped=tried,
                    )
            charged = self._hedged(
                cost(state.store, payload) * state.latency_factor,
                state,
                lambda other: cost(other.store, payload) * other.latency_factor,
            )
            self.stats.record_read(num_bytes, charged)
            return payload
        if _CORRUPT in verdicts:
            raise ArtifactCorruptionError(
                f"artifact {artifact_id!r} fails verification on every replica"
            )
        if _MISSING in verdicts:
            raise ArtifactNotFoundError(
                f"artifact {artifact_id!r} unavailable on every replica"
            )
        raise QuorumError(f"{what}: no replica reachable")

    def get(self, artifact_id: str, workers: int = 1) -> bytes:
        def read(store):
            data = store.get(artifact_id, workers=workers)
            recorded = _safe_digest(store, artifact_id)
            if recorded is not None and hash_bytes(data) != recorded:
                return _CORRUPT  # bitrot: heal later, serve from elsewhere
            return data, len(data)

        return self._failover_read(
            f"get {artifact_id!r}",
            artifact_id,
            read,
            lambda store, data: store._read_cost(len(data), workers),
        )

    def get_range(self, artifact_id: str, offset: int, length: int) -> bytes:
        return self.get_ranges(artifact_id, [(offset, length)])[0]

    def get_ranges(
        self,
        artifact_id: str,
        ranges: "list[tuple[int, int]]",
        workers: int = 1,
        check: "Callable[[list[bytes]], bool] | None" = None,
    ) -> "list[bytes]":
        """Vectored range read from one verified replica.

        ``check(slices)`` says whether one replica's slices are the bytes
        the caller expects (the chunk store checks each chunk against its
        own digest); a replica whose slices fail it counts as corrupt.
        Without a check the slices cannot be checked in isolation, so the
        serving replica's whole artifact is verified (uncharged, like
        fsck) before its byte ranges are trusted.  Either way a corrupt
        replica never silently feeds garbage into recovery; rot in bytes
        a check does not cover is the scrubber's to find.  A copy too
        short to hold every range (a torn write, a truncated file, also
        one cut after its size was remembered) is corrupt too: the
        backend's bounds check or short read says so.  A missing copy
        raises ``ArtifactNotFoundError``, which the failover counts.
        """

        def read(store):
            if check is None and not store.verify_artifact(artifact_id):
                return _CORRUPT
            try:
                chunks = store.get_ranges(artifact_id, ranges, workers=workers)
            except ArtifactTruncatedError:
                return _CORRUPT
            if check is not None and not check(chunks):
                return _CORRUPT
            return chunks, sum(len(chunk) for chunk in chunks)

        return self._failover_read(
            f"get_ranges {artifact_id!r}",
            artifact_id,
            read,
            lambda store, chunks: store._ranges_cost(chunks, workers),
        )

    # -- management plane -----------------------------------------------------
    # Which calls move a breaker: every mutation (put / open_writer / the
    # writer / delete, the repair drain) and the charged reads (get /
    # get_ranges).  The uncharged questions below — exists / size / ids /
    # total_bytes / recorded_digest / verify_* — and everything the
    # scrubber calls go through ``_scan`` and never do.
    def delete(self, artifact_id: str) -> None:
        """Remove an artifact; needs ``write_quorum`` acks like ``put``.

        A delete acknowledged by fewer replicas would report success
        while a majority keeps serving the bytes (and ``_committed``
        keeps blocking re-puts of the id), so it fails loudly instead
        and leaves the repair queues to finish the job.  A replica that
        does not hold the artifact still acknowledges.  Uncharged.
        """
        sizes: list[int] = []

        def visit(_index, store):
            if store.exists(artifact_id):
                sizes.append(store.size(artifact_id))
                store.delete(artifact_id)

        what = f"delete {artifact_id!r}"
        _acks, missed = self._replicate(what, artifact_id, "delete", visit)
        if sizes:
            category = self._categories.pop(artifact_id, None)
            self.stats.record_delete(sizes[0], category)
        elif not missed:
            raise ArtifactNotFoundError(f"no artifact {artifact_id!r}")

    def _from_holder(self, artifact_id: str, get, what: str | None = None):
        """``get(store)`` of the first replica that holds the artifact."""
        return self._first(
            lambda store: get(store) if store.exists(artifact_id) else None, what
        )

    def recorded_digest(self, artifact_id: str) -> str | None:
        return self._from_holder(
            artifact_id, lambda store: store.recorded_digest(artifact_id)
        )

    def exists(self, artifact_id: str) -> bool:
        what = f"exists {artifact_id!r}"
        return self._from_holder(artifact_id, lambda store: True, what) is not None

    def size(self, artifact_id: str) -> int:
        size = self._from_holder(
            artifact_id, lambda store: store.size(artifact_id), f"size {artifact_id!r}"
        )
        if size is None:
            raise ArtifactNotFoundError(f"no artifact {artifact_id!r}")
        return size

    def verify_replicas(self, artifact_id: str) -> dict[str, object]:
        """Per-replica verdicts: True/False, "missing", or "unreachable"."""
        answers, silent = self._ask_all(
            lambda store: store.verify_artifact(artifact_id)
            if store.exists(artifact_id)
            else "missing"
        )
        return {**answers, **dict.fromkeys(silent, "unreachable")}

    def replica_sizes(self, artifact_id: str) -> dict[str, int]:
        """``{replica name: size}`` of every reachable copy (uncharged)."""
        answers, _silent = self._ask_all(
            lambda store: store.size(artifact_id) if store.exists(artifact_id) else None
        )
        return {name: size for name, size in answers.items() if size is not None}

    def verify_artifact(self, artifact_id: str) -> bool:
        """Whether *every* reachable copy still matches its digest.

        Conservative by design: one rotten replica makes the archive
        degraded (the scrubber heals it), even though reads fail over.
        """
        verdicts = list(self.verify_replicas(artifact_id).values())
        held = [verdict for verdict in verdicts if isinstance(verdict, bool)]
        if held:
            return all(held)
        if "missing" in verdicts:
            raise ArtifactNotFoundError(f"no artifact {artifact_id!r}")
        raise QuorumError(f"verify_artifact {artifact_id!r}: no replica reachable")

    def ids(self) -> list[str]:
        held = (ids for _index, ids in self._scan(lambda store: store.ids(), "ids()"))
        return sorted(set().union(*held))

    def total_bytes(self) -> int:
        """Logical archive size: the largest reachable replica's view."""
        return max(
            value
            for _index, value in self._scan(
                lambda store: store.total_bytes(), "total_bytes()"
            )
        )

    def __len__(self) -> int:
        return len(self.ids())

    # -- anti-entropy (what the scrubber and the divergence report call) ------
    def unreachable(self) -> set[str]:
        """Names of the replicas that cannot list their artifacts."""
        return self._ask_all(lambda store: store.ids())[1]

    def majority_artifacts(self, keep=()) -> dict[str, str | None]:
        """``{artifact id: majority recorded digest}`` of the canonical set:
        every id a majority of the reachable replicas holds, plus every id
        in ``keep`` that anyone holds — a copy the documents reference is
        never pruned, even if replication fell below majority."""
        reachable = 0
        votes: dict[str, dict[str | None, int]] = {}
        for _index, held in self._scan(
            lambda store: {a: _safe_digest(store, a) for a in store.ids()}
        ):
            reachable += 1
            for artifact_id, digest in held.items():
                counts = votes.setdefault(artifact_id, {})
                counts[digest] = counts.get(digest, 0) + 1
        return {
            artifact_id: max(counts.items(), key=lambda item: item[1])[0]
            for artifact_id, counts in votes.items()
            if sum(counts.values()) * 2 > reachable or artifact_id in keep
        }

    def verified_copy(self, artifact_id: str, digest=_ANY, deep: bool = True):
        """A good copy's bytes from any replica, or ``None``: it records
        ``digest`` (any, when omitted), passes ``verify_artifact`` (``deep``
        only), and the bytes read hash to what it records."""

        def ask(store):
            if not store.exists(artifact_id):
                return None
            recorded = _safe_digest(store, artifact_id)
            if digest is not _ANY and recorded != digest:
                return None
            if deep and not store.verify_artifact(artifact_id):
                return None
            data = store.get(artifact_id)
            if recorded is not None and hash_bytes(data) != recorded:
                return None
            return data

        return self._first(ask)

    def verified_slice(
        self, artifact_id: str, offset: int, length: int, digest: str
    ) -> bytes | None:
        """A byte range that hashes to ``digest``, from any replica."""

        def ask(store):
            if not store.exists(artifact_id):
                return None
            if store.size(artifact_id) < offset + length:
                return None  # a torn copy ends before the range does
            data = store.get_range(artifact_id, offset, length)
            return data if hash_bytes(data) == digest else None

        return self._first(ask)

    def reassemble(self, artifact_id: str, slices) -> bytes | None:
        """Rebuild an artifact whose every whole copy is damaged.

        ``slices`` is the ``(content digest, length)`` of its consecutive
        parts (a chunk pack's index).  Corruption rarely hits the same
        offsets on two replicas, so each part is taken from whichever
        replica still verifies it; ``None`` unless every part recovers.
        """
        parts: list[bytes] = []
        offset = 0
        for digest, length in slices:
            part = self.verified_slice(artifact_id, offset, int(length), digest)
            if part is None:
                return None
            parts.append(part)
            offset += int(length)
        return b"".join(parts)

    def heal(
        self, artifact_id: str, data: bytes, digest, deep: bool = True, skip=()
    ) -> tuple[list[str], set[str]]:
        """Write ``data`` over every copy that is absent or differs, except
        on ``skip``; returns ``(names rewritten, names that failed)``."""
        answers, failed = self._ask_all(
            lambda store: _heal_copy(store, artifact_id, data, digest, deep), skip
        )
        return [name for name, wrote in answers.items() if wrote], failed

    def prune_orphans(self, canonical) -> tuple[list[tuple[str, str]], set[str]]:
        """Delete every copy of an id outside ``canonical``; returns
        ``((replica, artifact) pairs removed, names that failed)``.  Whether
        pruning is safe (never while a replica is silent) is the caller's."""

        def ask(store):
            removed = sorted(set(store.ids()) - set(canonical))
            for artifact_id in removed:
                store.delete(artifact_id)
            return removed

        answers, failed = self._ask_all(ask)
        pruned = [
            (name, artifact_id)
            for name, removed in answers.items()
            for artifact_id in removed
        ]
        return pruned, failed

    def divergence(self, deep: bool = False) -> dict[str, dict | None]:
        """``{replica: {"missing", "extra", "divergent"}}`` (id lists) against
        :meth:`majority_artifacts`; ``None`` for a replica that could not
        answer.  ``deep`` re-hashes every copy."""
        canonical = self.majority_artifacts()

        def ask(store):
            held = set(store.ids())
            divergent = [
                artifact_id
                for artifact_id in sorted(held & set(canonical))
                if not _copy_ok(store, artifact_id, canonical[artifact_id], deep)
            ]
            return {
                "missing": sorted(set(canonical) - held),
                "extra": sorted(held - set(canonical)),
                "divergent": divergent,
            }

        answers, silent = self._ask_all(ask)
        return {**answers, **dict.fromkeys(silent)}


class _ReplicatedWriter(WriterContext):
    """Fans streamed chunks to one writer per reachable replica.

    Accounting mirrors :meth:`ReplicatedFileStore.put`: one write charged
    at close with the quorum completion cost.  A replica whose writer
    fails mid-stream is aborted, health-penalized, and queued for repair;
    close succeeds while ``write_quorum`` writers finalize.
    """

    def __init__(
        self,
        store: ReplicatedFileStore,
        artifact_id: str,
        category: str,
        workers: int,
        writers: dict[int, Any],
        missed: list[int],
    ) -> None:
        self._store = store
        self._artifact_id = artifact_id
        self._category = category
        self._workers = workers
        #: replica index -> that backend's open writer (survivors only).
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
        _acks, missed = self._store._fan_out(
            lambda index, _store: self._writers[index].write(chunk),
            targets=list(self._writers),
            gated=False,
        )
        self._missed += missed
        self._abort(missed)
        if not self._writers:
            self._closed = True
            raise QuorumError("streamed write lost every replica")

    def close(self) -> str:
        if self._closed:
            raise StorageError("writer already closed")
        self._closed = True
        store = self._store
        digest = self._hasher.hexdigest()
        target = self._artifact_id

        def visit(index, backend):
            try:
                self._writers[index].close()
            except DuplicateArtifactError:
                # The id landed on this replica between open and close; a
                # matching digest makes the close an idempotent success.
                if _safe_digest(backend, target) != digest:
                    return _MISSED

        acks, missed = store._fan_out(
            visit, target, targets=list(self._writers), gated=False
        )
        missed = self._missed + missed
        store._settle(
            f"writer close {target!r}", target, "put", acks, missed, store.write_quorum
        )
        store._charge_put(
            target, self._num_bytes, self._category, self._workers, acks, missed
        )
        return target

    def _abort(self, indices) -> None:
        for index in indices:
            try:
                self._writers.pop(index).abort()
            except Exception:
                pass

    def abort(self) -> None:
        self._closed = True
        self._abort(list(self._writers))


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
    the anti-entropy scrubber.  Document reads (votes) never consult or
    move a breaker; mutations do.
    """

    def __init__(self, stores, **kwargs) -> None:
        super().__init__(stores, **kwargs)
        self.stats.origin = "doc"
        #: ``(collection, doc_id)`` -> the ballots of its last unanimous
        #: vote, when every ballot was a held read-only document: the
        #: same objects cast again are the same unanimous vote.
        self._unanimous: dict[tuple[str, str], list] = {}
        self._id_counter = auto_id_counter(
            doc_id
            for _index, collections in self._scan(lambda store: store._collections)
            for documents in collections.values()
            for doc_id in documents
        )

    def _repair_label(self, key) -> str:
        return "/".join(key)

    def repair_pending(self) -> dict:
        """Drain the document repair queues against replicas that are back.

        A missed insert/replace is replayed as the *current* majority
        value (anti-entropy, not history replay); a missed delete is
        applied; an entry whose document no longer has a majority value
        is retired as a delete; entries whose replica is still
        unreachable (or whose majority is unreadable) are deferred.
        """

        def plan(key, op):
            document = None
            if op != "delete":
                try:
                    document = self.peek(*key)
                except QuorumError:
                    # Layer-wide outage, not this replica's fault.
                    return "deferred", None
            if document is None:
                return "deleted", lambda _index, store: store._delete_raw(*key)
            return "repaired", lambda _index, store: store._write_raw(*key, document)

        return self._drain(plan)

    # -- majority machinery ----------------------------------------------
    def _reachable_collections(self) -> list[tuple[int, dict]]:
        return list(self._scan(lambda store: store._collections, "document read"))

    def _quorum_collections(self, what: str) -> list[tuple[int, dict]]:
        """Reachable collections, or :class:`QuorumError` below R."""
        reachable = self._reachable_collections()
        if len(reachable) < self.read_quorum:
            raise QuorumError(
                f"{what}: {len(reachable)} replica(s) reachable, "
                f"read quorum is {self.read_quorum} of {len(self.replicas)}"
            )
        return reachable

    def _vote(
        self, ballots: list[tuple[int, dict | None]], key: tuple[str, str] | None = None
    ) -> tuple[int, dict | None]:
        """The majority ballot ``(replica index, document)`` of those cast
        by reachable replicas: the document, and whose copy it is.

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

        A unanimous vote over held read-only documents is remembered by
        ``key``, the document's ``(collection, doc_id)``: while the same
        replicas cast the very same objects (``is``), nothing is
        compared.  A replica holding a new object votes afresh, and the
        store's own writes forget the memo so it keeps no old document
        alive.
        """
        memo = self._unanimous.get(key)
        if memo is not None and len(memo) == len(ballots) and all(
            index == known and document is held
            for (index, document), (known, held) in zip(ballots, memo)
        ):
            return ballots[0]
        first = ballots[0][1]
        if all(document == first for _index, document in ballots):
            if key is not None and all(
                isinstance(document, _HELD) for _index, document in ballots
            ):
                self._unanimous[key] = ballots
            return ballots[0]
        self._unanimous.pop(key, None)
        groups: dict[str | None, list[tuple[int, dict | None]]] = {}
        for ballot in ballots:
            encoded = None if ballot[1] is None else _encode(ballot[1])
            groups.setdefault(encoded, []).append(ballot)
        total = len(self.replicas)

        def rank(item):
            encoded, members = item
            absent = encoded is None
            absence_majority = absent and 2 * len(members) > total
            lowest = min(index for index, _document in members)
            return (len(members), absence_majority, not absent, -lowest)

        return max(groups.items(), key=rank)[1][0]

    def _elect_collection(self, collection: str) -> dict[str, tuple[int, dict]]:
        """``{doc_id: winning ballot}`` of one collection's present documents."""
        reachable = self._quorum_collections(f"collection read {collection!r}")
        doc_ids: set[str] = set()
        for _index, collections in reachable:
            doc_ids.update(collections.get(collection, {}))
        view: dict[str, tuple[int, dict]] = {}
        for doc_id in sorted(doc_ids):
            ballots = [
                (index, collections.get(collection, {}).get(doc_id))
                for index, collections in reachable
            ]
            winner = self._vote(ballots, (collection, doc_id))
            if winner[1] is not None:
                view[doc_id] = winner
        return view

    def _elect(self, collection: str, doc_id: str) -> tuple[int, dict | None]:
        """The winning ballot of one single-document majority vote."""
        reachable = self._quorum_collections(
            f"document read {collection}/{doc_id}"
        )
        return self._vote(
            [
                (index, collections.get(collection, {}).get(doc_id))
                for index, collections in reachable
            ],
            (collection, doc_id),
        )

    def _size_on(self, index: int, collection: str, doc_id: str) -> int:
        """The size replica ``index`` remembers for a document it holds."""
        return self.replicas[index].store.stored_size(collection, doc_id)

    def peek_collection(self, collection: str) -> dict[str, dict]:
        """Majority view of one collection, read-only like :meth:`peek`."""
        return {
            doc_id: document
            for doc_id, (_index, document) in self._elect_collection(collection).items()
        }

    def peek(self, collection: str, doc_id: str) -> dict | None:
        """One single-document majority vote, uncharged and uncopied.

        Same reachability and read-quorum checks as :meth:`get`; the
        result is the winning replica's own document (**read-only**).
        """
        return self._elect(collection, doc_id)[1]

    def stored_size(self, collection: str, doc_id: str) -> int | None:
        """The size the winning replica remembers; ``None`` when missing."""
        index, document = self._elect(collection, doc_id)
        return None if document is None else self._size_on(index, collection, doc_id)

    @property
    def _collections(self) -> dict[str, dict[str, dict]]:
        """Merged majority view of every collection: O(archive) votes.

        Cold path, kept for the replica-divergence report of fsck and
        scrub (:func:`replica_divergence`); point reads use :meth:`peek`.
        """
        return {name: self.peek_collection(name) for name in self.collections()}

    def _read_quorum_cost(self, num_bytes: int) -> float:
        """Actual cost of hearing back from the fastest R replicas."""
        costs = sorted(
            state.store.profile.doc_read_cost(num_bytes) * state.latency_factor
            for state in self.replicas
            if not state.breaker.open
        )
        if not costs:
            costs = [self.profile.doc_read_cost(num_bytes)]
        return costs[min(self.read_quorum, len(costs)) - 1]

    # -- write ------------------------------------------------------------
    def _existing_size(self, collection: str, doc_id: str) -> int:
        """Size of the committed document a replace/delete is about to touch."""
        check_document_key(collection, doc_id)
        size = self.stored_size(collection, doc_id)
        if size is None:
            raise DocumentNotFoundError(
                f"no document {doc_id!r} in collection {collection!r}"
            )
        return size

    def _charge_doc(self, label, key, num_bytes, category, acks, missed) -> None:
        """Charge one settled document write (``insert`` / ``replace``)."""
        self._charge(
            label, key, num_bytes, category,
            lambda store: store.profile.doc_write_cost(num_bytes), acks, missed,
        )

    def insert(
        self,
        collection: str,
        document: dict,
        doc_id: str | None = None,
        category: str = "metadata",
    ) -> str:
        check_document_key(collection, doc_id)
        if doc_id is None:
            # Pre-drawn at the layer so every replica stores the same id.
            doc_id = f"doc-{next(self._id_counter):08d}"
        num_bytes = document_num_bytes(document)
        key, label = (collection, doc_id), f"insert {collection}/{doc_id}"
        acks, missed = self._replicate(
            label,
            key,
            "put",
            lambda _index, store: store.insert(
                collection, document, doc_id=doc_id, category=category
            ),
        )
        self._unanimous.pop(key, None)
        self._charge_doc(label, key, num_bytes, category, acks, missed)
        return doc_id

    def replace(self, collection: str, doc_id: str, document: dict) -> None:
        old_bytes = self._existing_size(collection, doc_id)
        num_bytes = document_num_bytes(document)
        key, label = (collection, doc_id), f"replace {collection}/{doc_id}"

        def visit(_index, store):
            try:
                store.replace(collection, doc_id, document)
            except DocumentNotFoundError:
                # The doc is committed (majority has it) but this
                # replica missed the insert: converge it in passing.
                store._write_raw(collection, doc_id, document)

        acks, missed = self._replicate(label, key, "put", visit)
        self._unanimous.pop(key, None)
        # The overwritten document's bytes leave the store (see
        # DocumentStore.replace).
        self.stats.record_delete(old_bytes, self._categories.get(key), count_op=False)
        self._charge_doc(label, key, num_bytes, "metadata", acks, missed)

    def delete(self, collection: str, doc_id: str) -> None:
        num_bytes = self._existing_size(collection, doc_id)

        def visit(_index, store):
            try:
                store.delete(collection, doc_id)
            except DocumentNotFoundError:
                pass  # already absent on this replica — converged

        key = (collection, doc_id)
        self._replicate(f"delete {collection}/{doc_id}", key, "delete", visit)
        self._unanimous.pop(key, None)
        self.stats.record_delete(num_bytes, self._categories.pop(key, None))

    # -- read -------------------------------------------------------------
    def get(self, collection: str, doc_id: str) -> dict:
        index, document = self._elect(collection, doc_id)
        if document is None:
            raise DocumentNotFoundError(
                f"no document {doc_id!r} in collection {collection!r}"
            )
        return self._charged_read(index, collection, doc_id, document)

    def _charged_read(self, index: int, collection: str, doc_id: str, document: dict) -> dict:
        """One charged read of replica ``index``'s winning ballot: its
        remembered size at the read-quorum cost; the (read-only) ballot."""
        num_bytes = self._size_on(index, collection, doc_id)
        self.stats.record_read(num_bytes, self._read_quorum_cost(num_bytes))
        return document

    def find(self, collection: str, **equals) -> list[tuple[str, dict]]:
        return [
            (doc_id, self._charged_read(index, collection, doc_id, document))
            for doc_id, (index, document) in self._elect_collection(collection).items()
            if all(document.get(key) == value for key, value in equals.items())
        ]

    # -- raw plane (journal bookkeeping; uncharged) -------------------------
    def _write_raw(self, collection: str, doc_id: str, document: dict) -> None:
        check_document_key(collection, doc_id)
        # The journal's undo log needs the same durability as the data
        # it protects: quorum or the save must not proceed.
        self._replicate(
            f"raw write {collection}/{doc_id}",
            (collection, doc_id),
            "put",
            lambda _index, store: store._write_raw(collection, doc_id, document),
        )
        self._unanimous.pop((collection, doc_id), None)

    def _delete_raw(self, collection: str, doc_id: str) -> None:
        check_document_key(collection, doc_id)
        # Best effort (quorum 0): a replica that misses the retirement —
        # refused by its breaker or failing — keeps a stale entry, which
        # the majority vote hides and the repair queue (or the scrubber,
        # once every replica is reachable again) retires.
        self._replicate(
            f"raw delete {collection}/{doc_id}",
            (collection, doc_id),
            "delete",
            lambda _index, store: store._delete_raw(collection, doc_id),
            quorum=0,
        )
        self._unanimous.pop((collection, doc_id), None)

    def _read_raw(self, collection: str, doc_id: str) -> dict | None:
        return self.peek(collection, doc_id)

    # -- inspection (uncharged) --------------------------------------------
    def exists(self, collection: str, doc_id: str) -> bool:
        return self.peek(collection, doc_id) is not None

    def collection_ids(self, collection: str) -> list[str]:
        return sorted(self.peek_collection(collection))

    def collections(self) -> list[str]:
        held = (collections for _index, collections in self._reachable_collections())
        return sorted(set().union(*held))

    def count(self, collection: str) -> int:
        return len(self.peek_collection(collection))

    def total_bytes(self) -> int:
        """Logical metadata size: bytes of the majority view."""
        return sum(
            self._size_on(index, name, doc_id)
            for name in self.collections()
            for doc_id, (index, _document) in self._elect_collection(name).items()
        )

    # -- anti-entropy (what the scrubber and the divergence report call) ------
    def unreachable(self) -> set[str]:
        """Names of the replicas that cannot list their collections."""
        return self._ask_all(lambda store: store.collections())[1]

    def _diff(self, act, skip=()) -> tuple[dict[str, Any], set[str]]:
        """Diff every replica's documents against the majority view.

        ``act(store, diffs)`` gets one replica's differences as ``(kind,
        collection, doc_id, majority document)`` rows, kind ``"missing"`` /
        ``"divergent"`` / ``"extra"`` (the replica's alone; no document).
        Returns ``({replica: act's result}, names that failed)``.
        """
        majority = self._collections

        def ask(store):
            diffs = []
            for name in sorted(set(majority) | set(store.collections())):
                held, canonical = store.peek_collection(name), majority.get(name, {})
                for doc_id in sorted(set(held) | set(canonical)):
                    document = canonical.get(doc_id)
                    if doc_id not in held:
                        diffs.append(("missing", name, doc_id, document))
                    elif document is None:
                        diffs.append(("extra", name, doc_id, None))
                    elif _encode(held[doc_id]) != _encode(document):
                        diffs.append(("divergent", name, doc_id, document))
            return act(store, diffs)

        return self._ask_all(ask, skip)

    def converge(self, prune: bool) -> tuple[int, int, set[str]]:
        """Rewrite every replica's documents onto the majority view.

        Missing and divergent documents are rewritten; with ``prune`` —
        the caller's call, safe only with every replica present to vote —
        documents the majority lacks (stale journal entries, uncommitted
        minority writes) are deleted.  Returns ``(healed, pruned, failed)``.
        """
        healed = pruned = 0

        def act(store, diffs):
            nonlocal healed, pruned
            for kind, name, doc_id, document in diffs:
                if kind != "extra":
                    store._write_raw(name, doc_id, document)
                    healed += 1
                elif prune:
                    store._delete_raw(name, doc_id)
                    pruned += 1

        _answers, failed = self._diff(act)
        return healed, pruned, failed

    def divergence(self, skip=()) -> dict[str, dict | None]:
        """``{replica: {"missing": n, "extra": n, "divergent": n}}`` against
        the majority view; ``None`` for a replica that could not answer,
        nothing for the ``skip`` names (not contacted)."""

        def act(_store, diffs):
            kinds = [kind for kind, _name, _doc_id, _document in diffs]
            return {kind: kinds.count(kind) for kind in ("missing", "extra", "divergent")}

        answers, failed = self._diff(act, skip)
        return {**answers, **dict.fromkeys(failed)}


# -- wiring and divergence inspection ---------------------------------------
def replicated_pair(pairs: list, config):
    """The replicated store pair over per-replica ``(file, document)``
    backend pairs, with the quorums and policy of an
    :class:`~repro.config.ArchiveConfig`."""
    options = {
        "write_quorum": config.write_quorum,
        "read_quorum": config.read_quorum,
        "policy": config.replication_policy,
    }
    file_backends, doc_backends = zip(*pairs)
    return (
        ReplicatedFileStore(list(file_backends), **options),
        ReplicatedDocumentStore(list(doc_backends), **options),
    )


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
    artifacts = file_rep.divergence(deep) if file_rep is not None else {}
    silent = {name for name, diff in artifacts.items() if diff is None}
    documents = doc_rep.divergence(skip=silent) if doc_rep is not None else {}
    entries: list[dict] = []
    for state in (file_rep or doc_rep).replicas:
        files = artifacts.get(state.name, {})
        docs = documents.get(state.name, {})
        entry = {
            "replica": state.name,
            "unreachable": files is None or docs is None,
            "missing_artifacts": (files or {}).get("missing", []),
            "extra_artifacts": (files or {}).get("extra", []),
            "divergent_artifacts": (files or {}).get("divergent", []),
            "missing_documents": (docs or {}).get("missing", 0),
            "extra_documents": (docs or {}).get("extra", 0),
            "divergent_documents": (docs or {}).get("divergent", 0),
        }
        if any(value for key, value in entry.items() if key != "replica"):
            entries.append(entry)
    return entries
