"""Binary artifact store (the "file store" of the paper's approaches).

Artifacts are immutable byte blobs addressed by an explicit id or, when no
id is given, by content hash.  :class:`FileStore` is the artifact plane's
one accounting layer — id rules, bounds checks, cost model, every
:class:`~repro.storage.stats.StorageStats` charge — over a few byte hooks
that say where the bytes live (DESIGN.md §8): in memory here, on disk in
:class:`~repro.storage.persistent.PersistentFileStore`, which overrides
the hooks and nothing else.

Every operation is charged simulated latency according to the active
:class:`~repro.storage.hardware.HardwareProfile`.  Operations issued by
the parallel engine (``workers > 1``) model striped/vectored transfers:
the simulated charge is the :func:`~repro.storage.hardware.makespan` of
the per-stripe costs across the worker lanes, not their sum.

Large artifacts can be produced incrementally through
:meth:`FileStore.open_writer` — the streaming-ingestion path uses it to
save a 5000-model parameter artifact without holding all models' bytes
at once.
"""

from __future__ import annotations

import hashlib
from typing import Callable

from repro.errors import (
    ArtifactNotFoundError,
    ArtifactTruncatedError,
    DuplicateArtifactError,
    StorageError,
)
from repro.storage.document_store import unsafe_name
from repro.storage.hardware import (
    LOCAL_PROFILE,
    HardwareProfile,
    makespan,
    stripe_sizes,
)
from repro.storage.hashing import hash_bytes
from repro.storage.stats import StorageStats


def check_artifact_id(artifact_id: str) -> None:
    """Refuse an artifact id that cannot name a file (``<id>.bin`` on disk).

    Checked before anything is written or charged, in memory too, so all
    archives refuse the same names — the rule of
    :func:`~repro.storage.document_store.check_document_key`.
    """
    if unsafe_name(artifact_id):
        raise StorageError(
            f"invalid artifact id {artifact_id!r}: an id must be non-empty, "
            "without '/' or '\\' and without a leading '.'"
        )


class WriterContext:
    """The ``with`` protocol of everything that streams an artifact (the
    writers, their proxies, the chunk ingest session): an exception inside
    the block abandons it, a clean exit finalizes it unless the block
    already did (``_closed``)."""

    def __enter__(self):
        return self

    def __exit__(self, exc_type, _exc, _tb) -> None:
        if exc_type is not None:
            self.abort()
        elif not self._closed:
            self.close()


class ArtifactWriter(WriterContext):
    """Incremental artifact writer; finalize with :meth:`close`.

    The content hash is maintained incrementally, and close is one
    :meth:`FileStore.put` of the streamed bytes: the same id rules (the
    duplicate check runs *again* — the id may have been claimed while
    the writer was open) and one write operation charged.  Where the
    chunks go is the backend's: the hooks below buffer them — the memory
    store must hold the final bytes anyway — and join once at close.
    """

    def __init__(
        self,
        store: "FileStore",
        artifact_id: str,
        category: str,
        workers: int = 1,
    ) -> None:
        self._store = store
        self._artifact_id = artifact_id
        self._category = category
        self._workers = workers
        self._hasher = hashlib.sha256()
        self._num_bytes = 0
        self._closed = False
        self._sink = self._open()

    # -- byte hooks --------------------------------------------------------
    def _open(self):
        """Start the artifact; returns what :meth:`write` hands chunks to."""
        chunks = self._chunks = []
        return lambda chunk: chunks.append(bytes(chunk))

    def _land(self, artifact_id: str, digest: str) -> None:
        """Make the streamed bytes the stored artifact."""
        self._store._write(artifact_id, b"".join(self._chunks), digest)
        self._chunks.clear()

    def _discard(self) -> None:
        """Drop everything streamed; nothing may outlive the writer."""
        self._chunks.clear()

    # -- the writer ----------------------------------------------------------
    def write(self, chunk: bytes) -> None:
        """Append ``chunk`` (bytes-like, one byte per item)."""
        if self._closed:
            raise StorageError("writer already closed")
        self._hasher.update(chunk)
        self._num_bytes += len(chunk)
        self._sink(chunk)

    def close(self) -> str:
        """Finalize the artifact; returns its id."""
        if self._closed:
            raise StorageError("writer already closed")
        self._closed = True
        try:
            return self._store._commit(
                self._artifact_id, self._hasher.hexdigest(), self._num_bytes,
                self._category, self._workers, self._land,
            )
        except BaseException:
            # Refused or failed, nothing streamed may outlive the writer.
            self._discard()
            raise

    def abort(self) -> None:
        """Discard everything written so far."""
        self._closed = True
        self._discard()


class FileStore:
    """Immutable binary artifact store with byte/op accounting.

    Parameters
    ----------
    profile:
        Latency profile charged per operation; defaults to zero-latency.

    A backend overrides the byte hooks (``_write``, ``_load``,
    ``_read_ranges``, ``_remove``, ``_size_of``, ``_size_at_rest``, ``_held``,
    ``recorded_digest``, ``_writer_class``), never an operation built on
    them.  This class's hooks hold the bytes in ``_blobs``; :meth:`get`
    returns them unverified (:meth:`verify_artifact` is what notices rot).
    """

    #: What :meth:`open_writer` builds (the backend's streaming half).
    _writer_class = ArtifactWriter

    def __init__(self, profile: HardwareProfile = LOCAL_PROFILE) -> None:
        self.profile = profile
        self.stats = StorageStats()
        #: id -> bytes.
        self._blobs: dict[str, bytes] = {}
        #: id -> SHA-256 hex digest recorded at write time, so silent
        #: corruption of stored bytes is detectable (:meth:`verify_artifact`).
        self._digests: dict[str, str] = {}
        #: id -> category charged at write time, so deletes can return
        #: the bytes to the right ``bytes_by_category`` bucket (artifacts
        #: found at reopen have none and return them to no bucket).
        self._categories: dict[str, str] = {}

    # -- byte hooks (memory backend) ----------------------------------------
    def _write(self, artifact_id: str, data: bytes, digest: str) -> None:
        """Hold ``data`` under ``artifact_id``: bytes, then digest, then index."""
        self._blobs[artifact_id] = data
        self._digests[artifact_id] = digest

    def _load(self, artifact_id: str, verify: bool = False) -> bytes:
        """The stored bytes as they are; with ``verify`` (what :meth:`get`
        serves) a backend that keeps checksums at rest checks them first."""
        return self._blobs[artifact_id]

    def _read_ranges(self, artifact_id: str, ranges) -> "list[bytes]":
        """One slice per (bounds-checked) ``(offset, length)`` range."""
        blob = self._blobs[artifact_id]
        return [blob[offset : offset + length] for offset, length in ranges]

    def _remove(self, artifact_id: str) -> None:
        del self._blobs[artifact_id]
        self._digests.pop(artifact_id, None)

    def _size_of(self, artifact_id: str) -> int:
        return len(self._blobs[artifact_id])

    def _size_at_rest(self, artifact_id: str) -> int:
        return self._size_of(artifact_id)

    def _held(self):
        """The backend's index: a mapping keyed by the ids held."""
        return self._blobs

    # -- cost model -------------------------------------------------------
    def _striped_cost(self, cost, num_bytes: int, workers: int) -> float:
        """Makespan of one transfer striped across ``workers`` lanes (one
        lane: one stripe, the plain cost)."""
        return makespan(
            [cost(size) for size in stripe_sizes(num_bytes, workers)], workers
        )

    def _write_cost(self, num_bytes: int, workers: int = 1) -> float:
        """Simulated cost of one (possibly striped) artifact write."""
        return self._striped_cost(self.profile.file_write_cost, num_bytes, workers)

    def _read_cost(self, num_bytes: int, workers: int = 1) -> float:
        """Simulated cost of one (possibly striped) artifact read."""
        return self._striped_cost(self.profile.file_read_cost, num_bytes, workers)

    def _ranges_cost(self, chunks: "list[bytes]", workers: int = 1) -> float:
        """Simulated cost of one vectored read that returned ``chunks``."""
        return makespan(
            [self.profile.file_read_cost(len(chunk)) for chunk in chunks], workers
        )

    # -- write -----------------------------------------------------------
    def _claim(self, artifact_id: str) -> None:
        """The id rules: a name that cannot be a file is refused, and so is
        an id that exists."""
        check_artifact_id(artifact_id)
        if self.exists(artifact_id):
            raise DuplicateArtifactError(f"artifact {artifact_id!r} already exists")

    def _commit(
        self, artifact_id: str, digest: str, num_bytes: int,
        category: str, workers: int, land,
    ) -> str:
        """The one write, behind ``put`` and a writer's close alike:
        ``land(artifact_id, digest)`` puts the bytes in place, then the charge."""
        self._claim(artifact_id)
        land(artifact_id, digest)
        self._categories[artifact_id] = category
        self.stats.record_write(
            num_bytes, self._write_cost(num_bytes, workers), category
        )
        return artifact_id

    def put(
        self,
        data: bytes,
        artifact_id: str,
        category: str = "binary",
        workers: int = 1,
        digest: str | None = None,
    ) -> str:
        """Store ``data`` under ``artifact_id`` and return the id.

        A caller that already hashed the bytes (the Update hash pass, the
        chunk layer) passes the hex ``digest`` to skip re-hashing them
        here; it is recorded as given.
        ``workers > 1`` models a striped parallel upload: the simulated
        charge is the makespan of the stripes, still one write operation.
        """
        if digest is None:
            digest = hash_bytes(data)
        return self._commit(
            artifact_id, digest, len(data), category, workers,
            lambda target, digest: self._write(target, data, digest),
        )

    def open_writer(
        self,
        artifact_id: str,
        category: str = "binary",
        workers: int = 1,
    ) -> ArtifactWriter:
        """Open an incremental writer for a new artifact ``artifact_id``."""
        self._claim(artifact_id)
        return self._writer_class(self, artifact_id, category, workers=workers)

    # -- read ------------------------------------------------------------
    def get(self, artifact_id: str, workers: int = 1) -> bytes:
        """Fetch an artifact's bytes; raises :class:`ArtifactNotFoundError`.

        ``workers > 1`` models a striped parallel download (one read
        operation, makespan-charged).
        """
        self._require(artifact_id)
        data = self._load(artifact_id, verify=True)
        self.stats.record_read(len(data), self._read_cost(len(data), workers))
        return data

    def get_range(self, artifact_id: str, offset: int, length: int) -> bytes:
        """Fetch ``length`` bytes of an artifact starting at ``offset``.

        Range reads power single-model recovery: recovering one model out
        of a 5000-model Baseline artifact reads ~20 KB instead of ~100 MB.
        Only the requested bytes are charged against the latency model.
        """
        return self.get_ranges(artifact_id, [(offset, length)])[0]

    def get_ranges(
        self,
        artifact_id: str,
        ranges: "list[tuple[int, int]]",
        workers: int = 1,
        check: "Callable[[list[bytes]], bool] | None" = None,
    ) -> "list[bytes]":
        """Vectored range read: fetch ``(offset, length)`` slices at once.

        Accounted as a single read operation covering the summed bytes;
        the simulated charge is the makespan of the per-range costs
        across ``workers`` lanes (a parallel engine issues independent
        range requests concurrently).  Compacted chain recovery uses this
        to fetch exactly the final bytes of every model and layer.

        ``check`` is ignored: one store's ranged reads are unverified by
        design (a replicated store runs it to choose a replica).  A range
        past the artifact's end raises :class:`ArtifactTruncatedError`; a
        negative offset or length is the caller's bug (``ValueError``).
        """
        self._require(artifact_id)
        if not ranges:
            return []
        size = self._size_of(artifact_id)
        for offset, length in ranges:
            if offset < 0 or length < 0:
                raise ValueError("offset and length must be non-negative")
            if offset + length > size:
                raise ArtifactTruncatedError(artifact_id, size, offset + length)
        chunks = self._read_ranges(artifact_id, ranges)
        total = sum(len(chunk) for chunk in chunks)
        self.stats.record_read(total, self._ranges_cost(chunks, workers))
        return chunks

    # -- management plane (not charged) ------------------------------------
    def delete(self, artifact_id: str) -> None:
        """Remove an artifact (used by garbage collection).

        Charges no simulated latency (management plane) but returns the
        bytes to their ``bytes_by_category`` bucket via
        :meth:`~repro.storage.stats.StorageStats.record_delete`, keeping
        the breakdown an accurate currently-stored view across GC.
        """
        num_bytes = self.size(artifact_id)
        self._remove(artifact_id)
        self.stats.record_delete(
            num_bytes, self._categories.pop(artifact_id, None)
        )

    # -- integrity (management plane, not charged) ------------------------
    def recorded_digest(self, artifact_id: str) -> str | None:
        """The SHA-256 hex digest recorded when the artifact was written."""
        return self._digests.get(artifact_id)

    def verify_artifact(self, artifact_id: str) -> bool:
        """Recompute an artifact's digest and compare with the recorded one.

        Returns ``True`` when the bytes still match (or no digest was
        recorded, e.g. for artifacts written by an older version); used by
        ``fsck`` and the salvage path to detect silent corruption without
        charging the latency model.
        """
        self._require(artifact_id)
        recorded = self.recorded_digest(artifact_id)
        return recorded is None or hash_bytes(self._load(artifact_id)) == recorded

    # -- inspection (not charged: management-plane operations) -----------
    def _require(self, artifact_id: str) -> None:
        if not self.exists(artifact_id):
            raise ArtifactNotFoundError(f"no artifact {artifact_id!r}")

    def size(self, artifact_id: str) -> int:
        self._require(artifact_id)
        return self._size_of(artifact_id)

    def size_at_rest(self, artifact_id: str) -> int:
        """The size its backend holds now, uncharged (audits): a disk file cut
        since it was written or found keeps the :meth:`size` reads plan by."""
        self._require(artifact_id)
        return self._size_at_rest(artifact_id)

    def exists(self, artifact_id: str) -> bool:
        return artifact_id in self._held()

    def ids(self) -> list[str]:
        return sorted(self._held())

    def total_bytes(self) -> int:
        """Bytes currently held by the store."""
        return sum(map(self._size_of, self._held()))

    def __len__(self) -> int:
        return len(self._held())
