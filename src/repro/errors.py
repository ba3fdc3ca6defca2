"""Exception hierarchy shared across the ``repro`` library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the individual failure modes.

This module is the single home of the hierarchy: import errors from
``repro.errors`` (the ``repro`` top level and ``repro.api`` expose the
module itself as ``errors``).  No other package re-exports them.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigError",
    "SerializationError",
    "ArchitectureMismatchError",
    "UnknownArchitectureError",
    "StorageError",
    "ArtifactNotFoundError",
    "DocumentNotFoundError",
    "DuplicateArtifactError",
    "TransientStorageError",
    "PermanentStorageError",
    "ReplicaUnavailableError",
    "ShardUnavailableError",
    "QuorumError",
    "DeadLetterError",
    "IngestError",
    "IngestClosedError",
    "IngestBackpressureError",
    "ArtifactCorruptionError",
    "ArtifactTruncatedError",
    "ChunkCorruptionError",
    "SimulatedCrashError",
    "RecoveryError",
    "ProvenanceReplayError",
    "DatasetNotFoundError",
    "InvalidUpdatePlanError",
    "RegistryError",
]


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigError(ReproError):
    """Raised when an :class:`~repro.config.ArchiveConfig` is invalid."""


class SerializationError(ReproError):
    """Raised when encoding or decoding a binary artifact fails."""


class ArchitectureMismatchError(ReproError):
    """Raised when parameters do not fit the declared model architecture."""


class UnknownArchitectureError(ReproError):
    """Raised when an architecture name is not present in the registry."""


class StorageError(ReproError):
    """Base class for storage-substrate failures."""


class ArtifactNotFoundError(StorageError):
    """Raised when a requested artifact id is absent from a store."""


class DocumentNotFoundError(StorageError):
    """Raised when a requested document id is absent from a store."""


class DuplicateArtifactError(StorageError):
    """Raised when writing an artifact id that already exists."""


class TransientStorageError(StorageError):
    """A store operation failed but may succeed if retried.

    Models the recoverable failures of a remote store (timeouts, dropped
    connections, throttling).  The retry policy in
    :mod:`repro.storage.faults` catches exactly this class.
    """


class PermanentStorageError(StorageError):
    """A store operation failed and retrying cannot help."""


class ReplicaUnavailableError(TransientStorageError):
    """A replicated backend is down (connection refused / node outage).

    Raised by the fault harness once a replica's injected outage point is
    reached, and by the replication layer when a request cannot reach a
    backend.  Subclasses :class:`TransientStorageError` because the outage
    is recoverable from the client's point of view — the replica may come
    back — but the replication layer treats it as a health event and
    fails over rather than waiting.
    """


class ShardUnavailableError(TransientStorageError):
    """A fleet shard's health breaker is open (shard marked DOWN).

    Raised by a fleet's engine when an operation is routed to a shard
    whose per-shard circuit breaker has opened after consecutive
    save/flush failures (or that was pinned DOWN at open because its
    directory was missing or unreadable).  Subclasses
    :class:`TransientStorageError` like
    :class:`ReplicaUnavailableError` — the shard may come back, and a
    half-open probe will close the breaker once it does.
    """

    def __init__(
        self,
        message: str,
        shard: "int | None" = None,
        set_id: "str | None" = None,
    ) -> None:
        super().__init__(message)
        #: Index of the DOWN shard.
        self.shard = shard
        #: The set id whose operation was refused, when known.
        self.set_id = set_id


class DeadLetterError(StorageError):
    """A dead-letter store entry is missing, corrupt, or unreplayable."""


class IngestError(ReproError):
    """A submitted update could not be queued or flushed.

    When raised from :meth:`IngestQueue.drain`/``close()`` after worker
    failures, carries the affected context: ``set_ids`` (the failing
    flushes' allocated ids), ``shards`` (their shard indices), and
    ``dead_letter_ids`` (entries parked for replay, possibly empty).
    """

    def __init__(
        self,
        message: str,
        set_ids: "tuple[str, ...]" = (),
        shards: "tuple[int, ...]" = (),
        dead_letter_ids: "tuple[str, ...]" = (),
    ) -> None:
        super().__init__(message)
        self.set_ids = tuple(set_ids)
        self.shards = tuple(shards)
        self.dead_letter_ids = tuple(dead_letter_ids)


class IngestClosedError(IngestError):
    """``submit()`` was called on a closed (or closing) ingest queue.

    Raised deterministically the moment ``close()``/``abort()`` has
    begun, regardless of worker-pool state — a submit racing a close
    either fully lands before the close or raises this.
    """


class IngestBackpressureError(IngestError):
    """A submission was refused by ingest admission control.

    ``shed`` policy: raised immediately when the target shard's pending
    load sits at the high watermark.  ``block`` policy: raised when the
    blocking deadline expires before the load drains to the low
    watermark.  Carries the target ``shards`` like any
    :class:`IngestError`.
    """


class QuorumError(StorageError):
    """Too few healthy replicas acknowledged an operation.

    Raised by the replication layer when fewer than ``write_quorum``
    backends applied a write, or fewer than ``read_quorum`` backends are
    reachable for a consistent read.
    """


class ArtifactCorruptionError(StorageError):
    """Stored bytes no longer match their recorded digest (bitrot)."""


class ArtifactTruncatedError(ArtifactCorruptionError):
    """A ranged read runs past the end of an artifact (a torn write, a
    truncated file, or a descriptor that outgrew its bytes)."""

    def __init__(self, artifact_id: str, size: int, end: int) -> None:
        super().__init__(
            f"artifact {artifact_id!r} is truncated: a range ends at byte "
            f"{end}, the artifact has {size}"
        )
        self.artifact_id = artifact_id
        #: The artifact's stored size in bytes.
        self.size = size
        #: End offset of the first range past it.
        self.end = end


class ChunkCorruptionError(ArtifactCorruptionError):
    """One or more content-addressed chunks failed digest verification."""

    def __init__(self, message: str, digests: "tuple[str, ...]" = ()) -> None:
        super().__init__(message)
        #: The digests that failed verification (or are quarantined).
        self.digests = tuple(digests)


class SimulatedCrashError(ReproError):
    """A fault-injected process kill.

    Raised by the fault harness to model the process dying mid-operation:
    unlike every other exception, the save journal performs **no**
    in-process rollback when unwinding through it — cleanup must happen
    on the next :meth:`MultiModelManager.open`, exactly as after a real
    crash.
    """


class RecoveryError(ReproError):
    """Raised when a model set cannot be recovered."""


class ProvenanceReplayError(RecoveryError):
    """Raised when replaying a training pipeline fails or diverges."""


class DatasetNotFoundError(ReproError):
    """Raised when a dataset reference cannot be resolved."""


class InvalidUpdatePlanError(ReproError):
    """Raised when an update plan is inconsistent with the model set."""


class RegistryError(ReproError):
    """Raised when a registry query or record cannot be satisfied.

    Covers unknown families/tags/sets, malformed family or tag names,
    and diff requests across incompatible sets.  A stale or missing
    catalog (e.g. an archive written before the registry existed) is
    repaired with ``repro-archive <dir> register --rebuild``.
    """
