"""Deterministic fault injection and retry policies for the stores.

The crash-consistency guarantees of the save journal are only as good as
the failure model they are tested against.  This module provides that
model: store wrappers that inject, from a **seeded** schedule,

* **process kills** (:class:`~repro.errors.SimulatedCrashError`) at an
  exact mutating-operation ordinal (``crash_at``), before the operation
  applies, after it applies, or — for artifact puts — as a *torn write*
  that persists only a prefix of the bytes under the final artifact id;
* **transient errors** (:class:`~repro.errors.TransientStorageError`),
  raised either before or after the operation applied, so a retry policy
  must cope with "failed but actually succeeded" (the idempotent-re-put
  case);
* **permanent failures** (:class:`~repro.errors.PermanentStorageError`)
  pinned to specific artifact ids;
* **silent bit corruption** on write (``corrupt_rate`` for a seeded rate,
  ``corrupt_at`` for one exact put ordinal): the stored bytes are flipped
  while the recorded digest stays honest, exactly the signature of bitrot
  that ``verify_artifact``/``fsck`` must catch; and
* **replica outages** (``down_at``): from one exact mutating-operation
  ordinal onwards the wrapped store answers every request with
  :class:`~repro.errors.ReplicaUnavailableError` — the node died, not the
  process.  The replication layer must fail over around it; ``revive()``
  brings the node back (stale) for anti-entropy testing.

Determinism: every decision is drawn from ``random.Random(seed)`` in
operation order, so the same seed over the same (serial) workload yields
the same fault at the same point — which is what lets the crash-matrix
benchmark enumerate *every* fault point of every approach.

The wrappers follow the ``_inner`` proxy convention and compose with the
journal: :func:`inject_faults` splices the faulty layer at the *bottom*
of the proxy chain, so journal bookkeeping (written directly to the real
stores) is never torn by the harness — mirroring a WAL on a device with
stronger ordering guarantees than the data it protects.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field

from repro.errors import (
    DuplicateArtifactError,
    PermanentStorageError,
    ReplicaUnavailableError,
    ReproError,
    SimulatedCrashError,
    TransientStorageError,
)
from repro.storage.hashing import hash_bytes
from repro.storage.journal import StoreProxy, WriterProxy, innermost, splice_bottom


@dataclass
class FaultInjector:
    """Seeded schedule of storage faults, shared by a store-wrapper pair.

    ``crash_at`` names the ordinal (0-based) of the mutating operation to
    kill the process at; ``crash_mode`` is ``"auto"`` (seeded choice among
    before/after/torn), or one of ``"before"``/``"after"``/``"torn"``.
    Rates are per-operation probabilities.  The injector counts mutating
    operations in :attr:`ops` even when no fault fires, so a dry run of a
    workload measures how many fault points it has.
    """

    seed: int = 0
    crash_at: int | None = None
    crash_mode: str = "auto"
    transient_rate: float = 0.0
    corrupt_rate: float = 0.0
    permanent_ids: frozenset[str] = frozenset()
    #: Ordinal of the mutating operation at which the wrapped *store*
    #: (not the process) goes down; every later request raises
    #: :class:`ReplicaUnavailableError` until :meth:`revive`.
    down_at: int | None = None
    #: What the dying replica does with the operation it went down at:
    #: ``"auto"`` (seeded choice), ``"before"`` (nothing applied),
    #: ``"after"`` (applied, acknowledgement lost), or ``"torn"``
    #: (puts only: a prefix of the bytes persisted under the final id).
    down_mode: str = "auto"
    #: Ordinal of one put whose stored bytes are silently bit-flipped
    #: (serial schedules only; the recorded digest stays honest).
    corrupt_at: int | None = None
    #: Mutating operations observed so far (put/writer-close/insert/...).
    ops: int = 0
    _rng: random.Random = field(init=False, repr=False)
    _down: bool = field(default=False, init=False, repr=False)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False
    )

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)

    @property
    def down(self) -> bool:
        """True once the injected outage point has been reached."""
        return self._down

    def check_available(self) -> None:
        """Raise if the wrapped store's injected outage has begun."""
        if self._down:
            raise ReplicaUnavailableError("injected replica outage")

    def revive(self) -> None:
        """Bring a downed replica back (its contents stay stale)."""
        self._down = False

    # -- decision points ---------------------------------------------------
    def _check_permanent(self, ids) -> None:
        for item in ids:
            if item in self.permanent_ids:
                raise PermanentStorageError(
                    f"injected permanent failure for {item!r}"
                )

    def mutation(self, apply, torn_apply=None, ids=()):
        """Route one mutating operation through the fault schedule.

        ``apply`` performs the real operation; ``torn_apply`` (puts only)
        persists a prefix of the bytes under the final id.  Returns
        ``apply()``'s result when no fault fires.

        New fault kinds never draw from the seeded RNG unless they fire,
        so schedules recorded before a knob existed stay bit-identical.
        """
        self.check_available()
        self._check_permanent(ids)
        with self._lock:
            ordinal = self.ops
            self.ops += 1
            down = self.down_at is not None and ordinal == self.down_at
            down_as = None
            if down:
                if self.down_mode == "auto":
                    modes = ["before", "after"]
                    if torn_apply is not None:
                        modes.append("torn")
                    down_as = self._rng.choice(modes)
                else:
                    down_as = self.down_mode
                    if down_as == "torn" and torn_apply is None:
                        down_as = "before"
            crash = (
                not down and self.crash_at is not None and ordinal == self.crash_at
            )
            mode = None
            if crash:
                if self.crash_mode == "auto":
                    modes = ["before", "after"]
                    if torn_apply is not None:
                        modes.append("torn")
                    mode = self._rng.choice(modes)
                else:
                    mode = self.crash_mode
                    if mode == "torn" and torn_apply is None:
                        mode = "before"
            transient = (
                not down
                and not crash
                and self.transient_rate > 0
                and self._rng.random() < self.transient_rate
            )
            transient_after = transient and self._rng.random() < 0.5
        if down:
            # The *replica* dies, not the process: the operation may or
            # may not have landed, and every later request is refused.
            self._down = True
            if down_as == "after":
                apply()
            elif down_as == "torn":
                torn_apply()
            raise ReplicaUnavailableError(
                f"injected replica outage at mutation {ordinal} ({down_as})"
            )
        if crash:
            if mode == "before":
                raise SimulatedCrashError(
                    f"injected crash before mutation {ordinal}"
                )
            if mode == "torn":
                torn_apply()
                raise SimulatedCrashError(
                    f"injected torn write at mutation {ordinal}"
                )
            apply()
            raise SimulatedCrashError(f"injected crash after mutation {ordinal}")
        if transient and not transient_after:
            raise TransientStorageError(
                f"injected transient failure before mutation {ordinal}"
            )
        result = apply()
        if transient:
            # The operation *applied*; the caller just never hears back.
            raise TransientStorageError(
                f"injected transient failure after mutation {ordinal}"
            )
        return result

    def read(self, apply, ids=()):
        """Route one read through the schedule (outage/transient/permanent)."""
        self.check_available()
        self._check_permanent(ids)
        with self._lock:
            transient = (
                self.transient_rate > 0
                and self._rng.random() < self.transient_rate
            )
        if transient:
            raise TransientStorageError("injected transient read failure")
        return apply()

    def maybe_corrupt(self, data: bytes) -> bytes:
        """Flip one byte of ``data`` with probability ``corrupt_rate``.

        ``corrupt_at`` additionally schedules corruption for the put
        taking the *next* mutation ordinal (deterministic under serial
        workloads, where the put that called this claims that ordinal).
        """
        with self._lock:
            scheduled = self.corrupt_at is not None and self.ops == self.corrupt_at
            if not scheduled and (
                self.corrupt_rate <= 0 or self._rng.random() >= self.corrupt_rate
            ):
                return data
            if not data:
                return data
            index = self._rng.randrange(len(data))
        corrupted = bytearray(data)
        corrupted[index] ^= 0xFF
        return bytes(corrupted)


class _FaultProxy(StoreProxy):
    """Base for fault-wrapping store proxies."""

    def __init__(self, inner, injector: FaultInjector) -> None:
        super().__init__(inner)
        self._injector = injector


class _FaultyWriter(WriterProxy):
    """Writer wrapper: the finalizing close is one schedulable mutation."""

    def __init__(self, writer, injector: FaultInjector) -> None:
        super().__init__(writer)
        self._injector = injector

    def write(self, chunk: bytes) -> None:
        # Streamed chunks are not schedulable fault points (only the
        # finalizing close is), but an already-down replica must drop
        # its in-flight writers too.
        self._injector.check_available()
        self._writer.write(chunk)

    def close(self) -> str:
        return self._injector.mutation(self._writer.close)


class FaultyFileStore(_FaultProxy):
    """File-store wrapper injecting crashes, torn writes, and bitrot."""

    def put(
        self,
        data: bytes,
        artifact_id: str,
        category: str = "binary",
        workers: int = 1,
        digest: str | None = None,
    ) -> str:
        # The honest digest is fixed before any corruption: a torn or
        # bit-flipped write still lands under the id (and with the
        # recorded checksum) the *intended* bytes would have had, which
        # is how a real object store fails and what makes the damage
        # detectable afterwards.
        if digest is None:
            digest = hash_bytes(data)
        stored = self._injector.maybe_corrupt(data)
        options = {"category": category, "workers": workers, "digest": digest}

        def apply():
            return self._inner.put(stored, artifact_id=artifact_id, **options)

        def torn_apply():
            if not self._inner.exists(artifact_id):
                torn = stored[: max(1, len(stored) // 2)]
                self._inner.put(torn, artifact_id=artifact_id, **options)

        return self._injector.mutation(
            apply, torn_apply=torn_apply, ids=(artifact_id,)
        )

    def open_writer(
        self,
        artifact_id: str,
        category: str = "binary",
        workers: int = 1,
    ):
        self._injector.check_available()
        self._injector._check_permanent((artifact_id,))
        return _FaultyWriter(
            self._inner.open_writer(artifact_id, category=category, workers=workers),
            self._injector,
        )

    def get(self, artifact_id: str, workers: int = 1) -> bytes:
        return self._injector.read(
            lambda: self._inner.get(artifact_id, workers=workers),
            ids=(artifact_id,),
        )

    def get_range(self, artifact_id: str, offset: int, length: int) -> bytes:
        return self.get_ranges(artifact_id, [(offset, length)])[0]

    def get_ranges(self, artifact_id: str, ranges, workers: int = 1, check=None):
        return self._injector.read(
            lambda: self._inner.get_ranges(
                artifact_id, ranges, workers=workers, check=check
            ),
            ids=(artifact_id,),
        )

    def delete(self, artifact_id: str) -> None:
        return self._injector.mutation(
            lambda: self._inner.delete(artifact_id), ids=(artifact_id,)
        )

    # -- management plane: a downed replica refuses these too ----------------
    def verify_artifact(self, artifact_id: str) -> bool:
        return self._injector.read(
            lambda: self._inner.verify_artifact(artifact_id), ids=(artifact_id,)
        )

    def recorded_digest(self, artifact_id: str) -> "str | None":
        self._injector.check_available()
        return self._inner.recorded_digest(artifact_id)

    def exists(self, artifact_id: str) -> bool:
        self._injector.check_available()
        return self._inner.exists(artifact_id)

    def size(self, artifact_id: str) -> int:
        self._injector.check_available()
        return self._inner.size(artifact_id)

    def ids(self) -> "list[str]":
        self._injector.check_available()
        return self._inner.ids()

    def total_bytes(self) -> int:
        self._injector.check_available()
        return self._inner.total_bytes()


class FaultyDocumentStore(_FaultProxy):
    """Document-store wrapper injecting crashes and transient errors."""

    def insert(
        self,
        collection: str,
        document: dict,
        doc_id: str | None = None,
        category: str = "metadata",
    ) -> str:
        return self._injector.mutation(
            lambda: self._inner.insert(
                collection, document, doc_id=doc_id, category=category
            )
        )

    def replace(self, collection: str, doc_id: str, document: dict) -> None:
        return self._injector.mutation(
            lambda: self._inner.replace(collection, doc_id, document)
        )

    def delete(self, collection: str, doc_id: str) -> None:
        return self._injector.mutation(
            lambda: self._inner.delete(collection, doc_id)
        )

    def get(self, collection: str, doc_id: str) -> dict:
        return self._injector.read(lambda: self._inner.get(collection, doc_id))

    def find(self, collection: str, **equals):
        return self._injector.read(
            lambda: self._inner.find(collection, **equals)
        )

    # -- management/raw plane: gated on availability only (no schedule) ------
    # Journal bookkeeping bypasses the schedule by design, but a downed
    # replica cannot accept it either — the replication layer must see
    # the refusal and skip the node.
    def _write_raw(self, collection: str, doc_id: str, document: dict) -> None:
        self._injector.check_available()
        return self._inner._write_raw(collection, doc_id, document)

    def _delete_raw(self, collection: str, doc_id: str) -> None:
        self._injector.check_available()
        return self._inner._delete_raw(collection, doc_id)

    def _read_raw(self, collection: str, doc_id: str) -> "dict | None":
        self._injector.check_available()
        return self._inner._read_raw(collection, doc_id)

    def peek(self, collection: str, doc_id: str) -> "dict | None":
        self._injector.check_available()
        return self._inner.peek(collection, doc_id)

    def peek_collection(self, collection: str) -> "dict[str, dict]":
        self._injector.check_available()
        return self._inner.peek_collection(collection)

    def exists(self, collection: str, doc_id: str) -> bool:
        self._injector.check_available()
        return self._inner.exists(collection, doc_id)

    def stored_size(self, collection: str, doc_id: str) -> "int | None":
        self._injector.check_available()
        return self._inner.stored_size(collection, doc_id)

    def collection_ids(self, collection: str) -> "list[str]":
        self._injector.check_available()
        return self._inner.collection_ids(collection)

    def collections(self) -> "list[str]":
        self._injector.check_available()
        return self._inner.collections()

    def count(self, collection: str) -> int:
        self._injector.check_available()
        return self._inner.count(collection)

    def total_bytes(self) -> int:
        self._injector.check_available()
        return self._inner.total_bytes()

    @property
    def _collections(self):
        self._injector.check_available()
        return self._inner._collections


# -- retry policy ----------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """Exponential-backoff retry budget for transient store failures.

    ``attempts`` bounds the total tries; backoff before retry *n* (1-based)
    is ``base_delay_s * multiplier**(n - 1)``, charged to the stats as
    simulated latency (``retries``/``simulated_retry_s``) rather than
    slept, keeping benchmarks fast and deterministic.
    """

    attempts: int = 3
    base_delay_s: float = 0.01
    multiplier: float = 2.0

    def backoff_s(self, retry_index: int) -> float:
        return self.base_delay_s * (self.multiplier ** (retry_index - 1))


class _RetryProxy(StoreProxy):
    def __init__(self, inner, policy: RetryPolicy) -> None:
        super().__init__(inner)
        self._policy = policy

    def _with_retries(self, apply, on_duplicate=None):
        last: Exception | None = None
        for attempt in range(1, self._policy.attempts + 1):
            if attempt > 1:
                self._inner.stats.record_retry(self._policy.backoff_s(attempt - 1))
            try:
                return apply()
            except TransientStorageError as error:
                last = error
            except DuplicateArtifactError:
                if attempt > 1 and on_duplicate is not None:
                    # A prior try reported failure *after* applying: the
                    # artifact is already durable, so the re-put is a
                    # success, not a conflict.
                    return on_duplicate()
                raise
        assert last is not None
        raise last


class RetryingFileStore(_RetryProxy):
    """File-store wrapper retrying transient failures with backoff."""

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
        return self._with_retries(
            lambda: self._inner.put(
                data,
                artifact_id=artifact_id,
                category=category,
                workers=workers,
                digest=digest,
            ),
            on_duplicate=lambda: artifact_id,
        )

    def get(self, artifact_id: str, workers: int = 1) -> bytes:
        return self._with_retries(
            lambda: self._inner.get(artifact_id, workers=workers)
        )

    def get_range(self, artifact_id: str, offset: int, length: int) -> bytes:
        return self.get_ranges(artifact_id, [(offset, length)])[0]

    def get_ranges(self, artifact_id: str, ranges, workers: int = 1, check=None):
        return self._with_retries(
            lambda: self._inner.get_ranges(
                artifact_id, ranges, workers=workers, check=check
            )
        )

    def delete(self, artifact_id: str) -> None:
        return self._with_retries(lambda: self._inner.delete(artifact_id))

    def verify_artifact(self, artifact_id: str) -> bool:
        return self._with_retries(
            lambda: self._inner.verify_artifact(artifact_id)
        )


class RetryingDocumentStore(_RetryProxy):
    """Document-store wrapper retrying transient failures with backoff."""

    def insert(
        self,
        collection: str,
        document: dict,
        doc_id: str | None = None,
        category: str = "metadata",
    ) -> str:
        return self._with_retries(
            lambda: self._inner.insert(
                collection, document, doc_id=doc_id, category=category
            )
        )

    def replace(self, collection: str, doc_id: str, document: dict) -> None:
        return self._with_retries(
            lambda: self._inner.replace(collection, doc_id, document)
        )

    def delete(self, collection: str, doc_id: str) -> None:
        return self._with_retries(lambda: self._inner.delete(collection, doc_id))

    def get(self, collection: str, doc_id: str) -> dict:
        return self._with_retries(lambda: self._inner.get(collection, doc_id))

    def find(self, collection: str, **equals):
        return self._with_retries(lambda: self._inner.find(collection, **equals))


# -- wiring ----------------------------------------------------------------
def inject_faults(context, injector: FaultInjector) -> FaultInjector:
    """Splice fault wrappers beneath any journal/retry layers of a context.

    The journal's own records bypass the faulty layer by design (they are
    written straight to the real stores), so every injected fault lands on
    archive data — the thing the journal must protect.
    """
    context.file_store = splice_bottom(
        context.file_store, lambda real: FaultyFileStore(real, injector)
    )
    context.document_store = splice_bottom(
        context.document_store, lambda real: FaultyDocumentStore(real, injector)
    )
    context._chunk_store = None
    return injector


def inject_replica_faults(
    context, replica_index: int, injector: FaultInjector
) -> FaultInjector:
    """Wrap ONE replica of a replicated context in the fault harness.

    Both the file and the document store of replica ``replica_index``
    share ``injector`` (a node hosts both substrates, so an outage takes
    both down at once); other replicas are untouched.  The wrappers are
    spliced beneath any per-replica retry proxies, mirroring
    :func:`inject_faults`.
    """
    from repro.storage.replication import replicated_stores

    file_rep, doc_rep = replicated_stores(context)
    if file_rep is None or doc_rep is None:
        raise ReproError("context has no replicated stores")
    file_state = file_rep.replicas[replica_index]
    file_state.store = splice_bottom(
        file_state.store, lambda real: FaultyFileStore(real, injector)
    )
    doc_state = doc_rep.replicas[replica_index]
    doc_state.store = splice_bottom(
        doc_state.store, lambda real: FaultyDocumentStore(real, injector)
    )
    context._chunk_store = None
    return injector


def with_retries(file_store, document_store, policy: "RetryPolicy | None"):
    """A store pair behind retrying proxies (``policy=None``: as it is)."""
    if policy is None:
        return file_store, document_store
    return (
        RetryingFileStore(file_store, policy),
        RetryingDocumentStore(document_store, policy),
    )


def attach_retries(context, policy: RetryPolicy) -> None:
    """Wrap a context's stores in retrying proxies."""
    context.file_store, context.document_store = with_retries(
        context.file_store, context.document_store, policy
    )
    context._chunk_store = None


def corrupt_artifact(file_store, artifact_id: str, offset: int = 0) -> None:
    """Flip one stored byte of an artifact in place (test-only bitrot).

    Bypasses all accounting and checksums — afterwards the artifact fails
    ``verify_artifact`` and digest-verified reads, which is the point.
    """
    store = innermost(file_store)
    data = bytearray(store._load(artifact_id))
    data[offset] ^= 0xFF
    if artifact_id in store._blobs:
        store._blobs[artifact_id] = bytes(data)
    else:
        (store._directory / f"{artifact_id}.bin").write_bytes(bytes(data))
