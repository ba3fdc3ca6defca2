"""Byte- and operation-level accounting for the storage substrates."""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.observability import trace as _trace


@dataclass
class StorageStats:
    """Mutable counters a store updates on every operation.

    ``simulated_*_s`` accumulate the latency-model time charged by the
    active :class:`~repro.storage.hardware.HardwareProfile`; the benchmark
    harness adds them to measured compute time to obtain TTS/TTR.

    Recording is guarded by a lock: the parallel save/recover engine
    issues store operations from worker threads, and the counters must
    stay exact (they back deterministic benchmark assertions).
    ``snapshot``/``delta_since`` take the same lock, so a reader never
    observes a half-applied record (e.g. ``writes`` bumped but
    ``bytes_by_category`` not yet).

    When ``traced`` is set (by
    :func:`repro.observability.trace.install_tracing`, on the
    context-level stats only — never on the per-replica backends, whose
    charges are already folded into the replicated store's quorum cost),
    every charge is also attributed to the current trace span.
    """

    writes: int = 0
    reads: int = 0
    #: Charged delete operations (GC/retention; management-plane raw
    #: deletes are not counted, mirroring raw writes).
    deletes: int = 0
    bytes_written: int = 0
    bytes_read: int = 0
    #: Bytes removed by charged deletes (also subtracted from
    #: ``bytes_by_category`` when their object was categorised).
    bytes_deleted: int = 0
    simulated_write_s: float = 0.0
    simulated_read_s: float = 0.0
    #: Chunk references processed by the dedup layer (one per layer tensor
    #: stored through a :class:`~repro.storage.chunk_index.ChunkStore`).
    chunks_total: int = 0
    #: References whose bytes were already present and therefore elided.
    chunks_deduped: int = 0
    #: Parameter bytes the dedup layer did not have to write.
    chunk_bytes_deduped: int = 0
    #: Store operations re-issued by the retry policy after a transient
    #: failure (each backoff sleep is charged as simulated latency).
    retries: int = 0
    simulated_retry_s: float = 0.0
    #: Reads whose simulated latency was cut by a hedged second request
    #: to another replica (the hedge won the race).
    hedged_reads: int = 0
    #: Reads that could not be served by the preferred replica and fell
    #: over to another one (outage, missing copy, or failed verification).
    read_failovers: int = 0
    #: Bytes currently stored, keyed by a caller-chosen category label
    #: (e.g. "parameters", "metadata", "hash-info") for breakdown reports.
    #: Session-relative: only objects written since the store was opened
    #: carry a category, so an object found at reopen leaves no bucket
    #: when deleted and the counts never go negative.
    bytes_by_category: dict[str, int] = field(default_factory=dict)
    #: Which substrate this object accounts ("file" or "doc") — prefixes
    #: the trace charge kind so breakdowns can tell the stores apart.
    origin: str = field(default="file", compare=False)
    #: Attribute charges to the current trace span (set by
    #: :func:`~repro.observability.trace.install_tracing`).
    traced: bool = field(default=False, compare=False)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def record_write(self, num_bytes: int, simulated_s: float, category: str) -> None:
        with self._lock:
            self.writes += 1
            self.bytes_written += num_bytes
            self.simulated_write_s += simulated_s
            self.bytes_by_category[category] = (
                self.bytes_by_category.get(category, 0) + num_bytes
            )
        if self.traced:
            _trace.charge(f"{self.origin}-write", num_bytes, simulated_s)

    def record_read(self, num_bytes: int, simulated_s: float) -> None:
        with self._lock:
            self.reads += 1
            self.bytes_read += num_bytes
            self.simulated_read_s += simulated_s
        if self.traced:
            _trace.charge(f"{self.origin}-read", num_bytes, simulated_s)

    def record_delete(
        self, num_bytes: int, category: "str | None", count_op: bool = True
    ) -> None:
        """Account removing ``num_bytes`` of stored data from ``category``.

        Keeps ``bytes_by_category`` an accurate *currently stored*
        breakdown on GC/retention paths; zeroed categories are dropped so
        a fully collected category disappears from reports.
        ``category=None`` — an object this session never categorised —
        counts the delete and its bytes but subtracts from no bucket.
        ``count_op=False`` adjusts only the byte accounting — used by
        ``replace``, which removes the overwritten document's bytes
        without being a delete operation.
        """
        with self._lock:
            if count_op:
                self.deletes += 1
            self.bytes_deleted += num_bytes
            if category is None:
                return
            remaining = self.bytes_by_category.get(category, 0) - num_bytes
            if remaining:
                self.bytes_by_category[category] = remaining
            else:
                self.bytes_by_category.pop(category, None)

    def record_chunks(self, total: int, deduped: int, bytes_deduped: int) -> None:
        """Account one dedup-layer ingest: references seen vs. elided."""
        with self._lock:
            self.chunks_total += total
            self.chunks_deduped += deduped
            self.chunk_bytes_deduped += bytes_deduped

    def record_retry(self, backoff_s: float) -> None:
        """Account one retried operation and its simulated backoff wait."""
        with self._lock:
            self.retries += 1
            self.simulated_retry_s += backoff_s
        if self.traced:
            _trace.charge("retry", 0, backoff_s)

    def record_hedge(self) -> None:
        """Account one read won by a hedged request to a second replica."""
        with self._lock:
            self.hedged_reads += 1

    def record_failover(self) -> None:
        """Account one read served by a non-preferred replica."""
        with self._lock:
            self.read_failovers += 1

    @property
    def dedup_ratio(self) -> float:
        """Fraction of chunk references served without storing new bytes."""
        if self.chunks_total == 0:
            return 0.0
        return self.chunks_deduped / self.chunks_total

    def snapshot(self) -> "StorageStats":
        """Copy of the current counters (for before/after deltas)."""
        with self._lock:
            return StorageStats(
                writes=self.writes,
                reads=self.reads,
                deletes=self.deletes,
                bytes_written=self.bytes_written,
                bytes_read=self.bytes_read,
                bytes_deleted=self.bytes_deleted,
                simulated_write_s=self.simulated_write_s,
                simulated_read_s=self.simulated_read_s,
                chunks_total=self.chunks_total,
                chunks_deduped=self.chunks_deduped,
                chunk_bytes_deduped=self.chunk_bytes_deduped,
                retries=self.retries,
                simulated_retry_s=self.simulated_retry_s,
                hedged_reads=self.hedged_reads,
                read_failovers=self.read_failovers,
                bytes_by_category=dict(self.bytes_by_category),
                origin=self.origin,
            )

    def delta_since(self, earlier: "StorageStats") -> "StorageStats":
        """Counters accumulated since ``earlier`` was snapshotted."""
        current = self.snapshot()
        categories = {
            key: current.bytes_by_category.get(key, 0)
            - earlier.bytes_by_category.get(key, 0)
            for key in set(current.bytes_by_category)
            | set(earlier.bytes_by_category)
        }
        return StorageStats(
            writes=current.writes - earlier.writes,
            reads=current.reads - earlier.reads,
            deletes=current.deletes - earlier.deletes,
            bytes_written=current.bytes_written - earlier.bytes_written,
            bytes_read=current.bytes_read - earlier.bytes_read,
            bytes_deleted=current.bytes_deleted - earlier.bytes_deleted,
            simulated_write_s=current.simulated_write_s
            - earlier.simulated_write_s,
            simulated_read_s=current.simulated_read_s - earlier.simulated_read_s,
            chunks_total=current.chunks_total - earlier.chunks_total,
            chunks_deduped=current.chunks_deduped - earlier.chunks_deduped,
            chunk_bytes_deduped=current.chunk_bytes_deduped
            - earlier.chunk_bytes_deduped,
            retries=current.retries - earlier.retries,
            simulated_retry_s=current.simulated_retry_s
            - earlier.simulated_retry_s,
            hedged_reads=current.hedged_reads - earlier.hedged_reads,
            read_failovers=current.read_failovers - earlier.read_failovers,
            bytes_by_category={k: v for k, v in categories.items() if v},
            origin=current.origin,
        )
