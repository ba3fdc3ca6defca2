"""Disk-backed store implementations for durable model archives.

The in-memory stores are ideal for benchmarking (exact accounting, no
host-I/O noise), but a production archive must survive the process.
This module provides drop-in persistent variants:

* :class:`PersistentFileStore` — artifacts as ``<id>.bin`` files with
  ``<id>.sha256`` checksums, written atomically (temp file + rename) and
  read lazily; the constructor only scans the index.
* :class:`PersistentDocumentStore` — documents as
  ``<collection>/<id>.json``, also written atomically; existing
  documents are loaded on open.

Both charge the same latency model and accounting as their in-memory
counterparts, so measurements remain comparable.
``open_context`` assembles a durable :class:`~repro.core.approach.SaveContext`
(used by ``MultiModelManager.open``).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.errors import (
    ArtifactNotFoundError,
    DuplicateArtifactError,
    StorageError,
)
from repro.storage.document_store import DocumentStore, auto_id_counter
from repro.storage.hardware import (
    LOCAL_PROFILE,
    HardwareProfile,
    makespan,
    stripe_sizes,
)
from repro.storage.hashing import hash_bytes
from repro.storage.stats import StorageStats


def _atomic_write(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` via a same-directory temp file + rename."""
    temp = path.with_suffix(path.suffix + ".tmp")
    temp.write_bytes(data)
    os.replace(temp, path)


class PersistentFileStore:
    """Artifact store persisted to a directory, read lazily from disk.

    Interface-compatible with :class:`~repro.storage.file_store.FileStore`
    (put/get/get_range/exists/size/ids/total_bytes/len, ``stats``,
    ``profile``).  Every artifact carries a SHA-256 sidecar; ``get``
    verifies it and raises :class:`StorageError` on mismatch, so silent
    on-disk corruption of an archived model set cannot go unnoticed.
    """

    def __init__(
        self,
        directory: str | Path,
        profile: HardwareProfile = LOCAL_PROFILE,
    ) -> None:
        self.profile = profile
        self.stats = StorageStats()
        self._directory = Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)
        self.sweep_temp_files()
        self._sizes: dict[str, int] = {
            path.stem: path.stat().st_size
            for path in self._directory.glob("*.bin")
        }
        #: id -> category charged at write time (artifacts found on disk
        #: at reopen have no recorded category and delete as "binary").
        self._categories: dict[str, str] = {}

    def sweep_temp_files(self) -> int:
        """Remove crash-leftover ``*.tmp`` files; returns how many."""
        removed = 0
        for leftover in self._directory.glob("*.tmp"):
            leftover.unlink(missing_ok=True)
            removed += 1
        return removed

    def _path(self, artifact_id: str) -> Path:
        if "/" in artifact_id or artifact_id.startswith("."):
            raise StorageError(f"invalid artifact id {artifact_id!r}")
        return self._directory / f"{artifact_id}.bin"

    # -- cost model -------------------------------------------------------
    def _write_cost(self, num_bytes: int, workers: int = 1) -> float:
        """Simulated cost of one (possibly striped) artifact write."""
        if workers <= 1:
            return self.profile.file_write_cost(num_bytes)
        stripes = stripe_sizes(num_bytes, workers)
        return makespan(
            [self.profile.file_write_cost(size) for size in stripes], workers
        )

    def _read_cost(self, num_bytes: int, workers: int = 1) -> float:
        """Simulated cost of one (possibly striped) artifact read."""
        if workers <= 1:
            return self.profile.file_read_cost(num_bytes)
        stripes = stripe_sizes(num_bytes, workers)
        return makespan(
            [self.profile.file_read_cost(size) for size in stripes], workers
        )

    # -- write -----------------------------------------------------------
    def put(
        self,
        data: bytes,
        artifact_id: str | None = None,
        category: str = "binary",
        workers: int = 1,
        digest: str | None = None,
    ) -> str:
        """Store ``data``; an already-computed hex ``digest`` is reused for
        both the derived content address and the sidecar checksum, so the
        bytes are hashed at most once end to end."""
        if digest is None:
            digest = hash_bytes(data)
        derived = artifact_id is None
        if derived:
            artifact_id = "sha256-" + digest
        if not derived and artifact_id in self._sizes:
            raise DuplicateArtifactError(f"artifact {artifact_id!r} already exists")
        path = self._path(artifact_id)
        _atomic_write(path, data)
        _atomic_write(path.with_suffix(".sha256"), digest.encode("ascii"))
        self._sizes[artifact_id] = len(data)
        self._categories[artifact_id] = category
        self.stats.record_write(
            len(data), self._write_cost(len(data), workers), category
        )
        return artifact_id

    def open_writer(
        self, artifact_id: str, category: str = "binary", workers: int = 1
    ):
        """Open a disk-backed incremental writer (bounded memory).

        Chunks stream to a temp file with an incrementally updated
        SHA-256; close atomically renames and records the checksum, and
        charges the accounting of one write.  An exception inside a
        ``with`` block deletes the temp file.
        """
        if artifact_id in self._sizes:
            raise DuplicateArtifactError(f"artifact {artifact_id!r} already exists")
        return _DiskArtifactWriter(self, artifact_id, category, workers=workers)

    # -- read ------------------------------------------------------------
    def get(self, artifact_id: str, workers: int = 1) -> bytes:
        if artifact_id not in self._sizes:
            raise ArtifactNotFoundError(f"no artifact {artifact_id!r}")
        data = self._path(artifact_id).read_bytes()
        recorded = self._path(artifact_id).with_suffix(".sha256")
        if recorded.exists() and recorded.read_text() != hash_bytes(data):
            raise StorageError(
                f"artifact {artifact_id!r} failed checksum verification"
            )
        self.stats.record_read(len(data), self._read_cost(len(data), workers))
        return data

    def get_range(self, artifact_id: str, offset: int, length: int) -> bytes:
        return self.get_ranges(artifact_id, [(offset, length)])[0]

    def get_ranges(
        self,
        artifact_id: str,
        ranges: "list[tuple[int, int]]",
        workers: int = 1,
    ) -> "list[bytes]":
        """Vectored range read; one charged operation, makespan-costed.

        Matches :meth:`FileStore.get_ranges`: all slices are served from
        one open file handle, the summed bytes are recorded as a single
        read, and ``workers`` lanes bound the simulated completion time.
        """
        if artifact_id not in self._sizes:
            raise ArtifactNotFoundError(f"no artifact {artifact_id!r}")
        if not ranges:
            return []
        size = self._sizes[artifact_id]
        for offset, length in ranges:
            if offset < 0 or length < 0:
                raise ValueError("offset and length must be non-negative")
            if offset + length > size:
                raise ValueError(
                    f"range [{offset}, {offset + length}) exceeds artifact "
                    f"size {size}"
                )
        chunks = []
        with open(self._path(artifact_id), "rb") as handle:
            for offset, length in ranges:
                handle.seek(offset)
                chunks.append(handle.read(length))
        total = sum(len(chunk) for chunk in chunks)
        cost = makespan(
            [self.profile.file_read_cost(len(chunk)) for chunk in chunks],
            workers,
        )
        self.stats.record_read(total, cost)
        return chunks

    # -- management plane ---------------------------------------------------
    def delete(self, artifact_id: str) -> None:
        """Remove an artifact and its checksum (used by garbage collection).

        Uncharged, but the bytes are returned to their
        ``bytes_by_category`` bucket so breakdowns stay accurate.
        """
        if artifact_id not in self._sizes:
            raise ArtifactNotFoundError(f"no artifact {artifact_id!r}")
        num_bytes = self._sizes[artifact_id]
        self._path(artifact_id).unlink(missing_ok=True)
        self._path(artifact_id).with_suffix(".sha256").unlink(missing_ok=True)
        del self._sizes[artifact_id]
        self.stats.record_delete(
            num_bytes, self._categories.pop(artifact_id, "binary")
        )

    # -- integrity (management plane, not charged) --------------------------
    def recorded_digest(self, artifact_id: str) -> str | None:
        """The SHA-256 sidecar contents, or ``None`` if no sidecar exists."""
        sidecar = self._path(artifact_id).with_suffix(".sha256")
        if not sidecar.exists():
            return None
        return sidecar.read_text().strip()

    def verify_artifact(self, artifact_id: str) -> bool:
        """Recompute an artifact's digest against its sidecar, uncharged.

        Returns ``True`` when the on-disk bytes still hash to the sidecar
        value (or no sidecar was recorded).  The ``fsck`` scan uses this
        to find bitrot without charging the latency model.
        """
        if artifact_id not in self._sizes:
            raise ArtifactNotFoundError(f"no artifact {artifact_id!r}")
        recorded = self.recorded_digest(artifact_id)
        if recorded is None:
            return True
        return hash_bytes(self._path(artifact_id).read_bytes()) == recorded

    def exists(self, artifact_id: str) -> bool:
        return artifact_id in self._sizes

    def size(self, artifact_id: str) -> int:
        if artifact_id not in self._sizes:
            raise ArtifactNotFoundError(f"no artifact {artifact_id!r}")
        return self._sizes[artifact_id]

    def ids(self) -> list[str]:
        return sorted(self._sizes)

    def total_bytes(self) -> int:
        return sum(self._sizes.values())

    def __len__(self) -> int:
        return len(self._sizes)


class _DiskArtifactWriter:
    """Streaming writer used by :meth:`PersistentFileStore.open_writer`."""

    def __init__(
        self,
        store: PersistentFileStore,
        artifact_id: str,
        category: str,
        workers: int = 1,
    ) -> None:
        import hashlib

        self._store = store
        self._artifact_id = artifact_id
        self._category = category
        self._workers = workers
        self._path = store._path(artifact_id)
        self._temp = self._path.with_suffix(self._path.suffix + ".tmp")
        self._handle = open(self._temp, "wb")
        self._hasher = hashlib.sha256()
        self._bytes = 0
        self._closed = False

    def write(self, chunk: bytes) -> None:
        if self._closed:
            raise StorageError("writer already closed")
        self._handle.write(chunk)
        self._hasher.update(chunk)
        self._bytes += len(chunk)

    def close(self) -> str:
        if self._closed:
            raise StorageError("writer already closed")
        self._closed = True
        try:
            self._handle.close()
            os.replace(self._temp, self._path)
        except OSError:
            # A failed finalize must not leak the temp file.
            self._temp.unlink(missing_ok=True)
            raise
        _atomic_write(
            self._path.with_suffix(".sha256"),
            self._hasher.hexdigest().encode("ascii"),
        )
        store = self._store
        store._sizes[self._artifact_id] = self._bytes
        store._categories[self._artifact_id] = self._category
        store.stats.record_write(
            self._bytes,
            store._write_cost(self._bytes, self._workers),
            self._category,
        )
        return self._artifact_id

    def abort(self) -> None:
        self._closed = True
        try:
            self._handle.close()
        finally:
            self._temp.unlink(missing_ok=True)

    def __enter__(self) -> "_DiskArtifactWriter":
        return self

    def __exit__(self, exc_type, _exc, _tb) -> None:
        if exc_type is not None:
            self.abort()
        elif not self._closed:
            self.close()


class PersistentDocumentStore(DocumentStore):
    """Document store persisted as ``<collection>/<id>.json`` files.

    Existing documents are loaded (without charging the latency model) on
    open; inserts write through atomically.
    """

    def __init__(
        self, directory: str | Path, profile: HardwareProfile = LOCAL_PROFILE
    ) -> None:
        super().__init__(profile=profile)
        self._directory = Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)
        for collection_dir in self._directory.iterdir():
            if not collection_dir.is_dir():
                continue
            for doc_path in collection_dir.glob("*.json"):
                documents = self._collections.setdefault(collection_dir.name, {})
                documents[doc_path.stem] = json.loads(doc_path.read_text())
        # Resume auto-ids beyond anything already on disk.
        self._id_counter = auto_id_counter(
            doc_id for documents in self._collections.values() for doc_id in documents
        )

    def _persist(self, collection: str, doc_id: str) -> None:
        """Write the document's current state through: its file, written
        atomically — or no file, once the document is gone."""
        path = self._directory / collection / f"{doc_id}.json"
        document = self._collections.get(collection, {}).get(doc_id)
        if document is None:
            path.unlink(missing_ok=True)
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        _atomic_write(path, json.dumps(document, separators=(",", ":")).encode("utf-8"))

    def _drop_if_empty(self, collection: str) -> None:
        super()._drop_if_empty(collection)
        if collection not in self._collections:
            try:
                (self._directory / collection).rmdir()
            except OSError:
                pass


def _topology(directory: str | Path, prefix: str) -> int:
    """``max(index) + 1`` over the ``<prefix><index>`` subdirectories.

    *Not* a sequential scan from zero: losing one whole subtree (the
    disk failure replication and sharding exist to survive) must reopen
    as the full topology with the lost member empty or DOWN — which
    ``fsck`` reports and ``scrub`` heals — never as a silently smaller
    archive.
    """
    root = Path(directory)
    highest = -1
    if root.is_dir():
        for entry in root.iterdir():
            if not entry.is_dir() or not entry.name.startswith(prefix):
                continue
            try:
                index = int(entry.name[len(prefix):])
            except ValueError:
                continue
            highest = max(highest, index)
    return highest + 1


def detect_replicas(directory: str | Path) -> int:
    """Number of ``replica-<i>`` topology directories under ``directory``.

    Returns 1 for a single-backend archive (the classic
    ``artifacts``/``documents`` layout); see :func:`_topology` for gaps.
    """
    return max(_topology(directory, "replica-"), 1)


def detect_shards(directory: str | Path) -> int:
    """Number of ``shard-<i>`` fleet directories under ``directory``.

    Returns **0** when no ``shard-*`` directory exists — a plain
    single-archive layout (or a fresh directory), which the classic
    ``MultiModelManager`` entry points own; see :func:`_topology` for gaps.
    """
    return _topology(directory, "shard-")


def open_context(directory: str | Path, config: "object | None" = None):
    """Open (or create) a durable save context rooted at ``directory``.

    ``config`` is the :class:`~repro.config.ArchiveConfig` describing the
    archive (defaults when ``None``); what opening adds to its fields:

    * ``journal`` attaches the write-ahead save journal and immediately
      runs crash recovery: torn saves left by a dead process are rolled
      back and reported on the returned context's ``recovery_report``.
    * ``dedup`` keeps the chunk index in the document store, so a
      reopened archive resumes deduplicating against everything on disk.
    * ``replicas > 1`` lays the archive out as ``replica-<i>/artifacts`` +
      ``replica-<i>/documents`` subtrees behind the quorum replication
      layer (:mod:`repro.storage.replication`); ``None`` auto-detects the
      topology, so a replicated archive reopens replicated without flags.
    * ``retry`` then wraps each backend *below* the replication layer:
      transient blips are retried on the replica that had them, and only
      a persistent outage fails over.
    """
    from repro.config import resolve_config
    from repro.core.approach import build_context

    config = resolve_config("open_context", config)
    profile, retry = config.profile, config.retry
    root = Path(directory)
    if detect_shards(root):
        # A fleet layout reopened through the single-archive entry point
        # would create a fresh empty archive beside the shard subtrees,
        # silently shadowing every set in them.
        raise StorageError(
            f"archive at {root} is a sharded fleet layout (shard-<i>/ "
            "subtrees); open it with repro.fleet.FleetManager.open or "
            "repro-archive --shards"
        )
    replicas = detect_replicas(root) if config.replicas is None else config.replicas
    if replicas > 1:
        # Refuse to shadow an existing single-backend archive: fresh
        # empty replica-<i> subtrees would make its data silently
        # invisible and subsequent writes would fork the layout.
        for legacy in ("artifacts", "documents"):
            tree = root / legacy
            if tree.is_dir() and any(tree.rglob("*")):
                raise StorageError(
                    f"archive at {root} has a single-backend {legacy}/ tree; "
                    f"move it into {root / 'replica-0'}/ (one subtree per "
                    "replica) before reopening with replicas > 1"
                )
        from repro.storage.faults import RetryingDocumentStore, RetryingFileStore
        from repro.storage.replication import replicated_pair

        bases = [root / f"replica-{index}" for index in range(replicas)]
        file_backends = [
            PersistentFileStore(base / "artifacts", profile=profile) for base in bases
        ]
        doc_backends = [
            PersistentDocumentStore(base / "documents", profile=profile)
            for base in bases
        ]
        if retry is not None:
            file_backends = [RetryingFileStore(store, retry) for store in file_backends]
            doc_backends = [RetryingDocumentStore(store, retry) for store in doc_backends]
        file_store, document_store = replicated_pair(file_backends, doc_backends, config)
        retry = None  # applied per backend above
    else:
        file_store = PersistentFileStore(root / "artifacts", profile=profile)
        document_store = PersistentDocumentStore(root / "documents", profile=profile)
    return build_context(
        file_store, document_store, config, retry=retry, journal=config.journal
    )
