"""Disk-backed store implementations for durable model archives.

The in-memory stores are ideal for benchmarking (exact accounting, no
host-I/O noise), but a production archive must survive the process.
This module provides drop-in persistent variants:

* :class:`PersistentFileStore` — artifacts as ``<id>.bin`` files with
  ``<id>.sha256`` checksums, written atomically (temp file + rename) and
  read lazily; the constructor only scans the index.
* :class:`PersistentDocumentStore` — documents as
  ``<collection>/<id>.json``, also written atomically; existing
  documents are loaded on open.  The save journal's collection is the
  exception: one append-only log, ``save_journal.log`` (DESIGN.md §11).

Both are subclasses of their in-memory counterparts that override where
the bytes live and inherit every rule, charge and cost, so measurements
remain comparable.  :func:`open_stores` decides "memory or disk" for
every store pair; ``open_context`` assembles a durable
:class:`~repro.core.approach.SaveContext` (used by
``MultiModelManager.open``).
"""

from __future__ import annotations

import itertools
import os
import struct
import weakref
import zlib
from pathlib import Path

from repro.errors import ArtifactTruncatedError, ConfigError, StorageError
from repro.storage.document_store import (
    DocumentStore,
    auto_id_counter,
    compact_json,
    document_num_bytes,
    load_frozen,
)
from repro.storage.file_store import ArtifactWriter, FileStore
from repro.storage.hardware import LOCAL_PROFILE, HardwareProfile
from repro.storage.hashing import hash_bytes
from repro.storage.journal import JOURNAL_COLLECTION


def _atomic_write(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` via a same-directory temp file + rename."""
    temp = path.with_suffix(path.suffix + ".tmp")
    temp.write_bytes(data)
    os.replace(temp, path)


class _DiskArtifactWriter(ArtifactWriter):
    """Streaming writer of :class:`PersistentFileStore` (bounded memory).

    Chunks go straight to a temp file of the writer's own — never the
    ``<id>.bin.tmp`` a concurrent ``put`` of the same id renames from;
    close renames it into place, then records the checksum.
    """

    def _open(self):
        store = self._store
        self._temp = store._directory / f".writer-{next(store._writer_serial)}.tmp"
        self._handle = open(self._temp, "wb")
        return self._handle.write

    def _land(self, artifact_id: str, digest: str) -> None:
        path = self._store._path(artifact_id)
        self._handle.close()
        os.replace(self._temp, path)
        _atomic_write(path.with_suffix(".sha256"), digest.encode("ascii"))
        self._store._sizes[artifact_id] = self._num_bytes

    def _discard(self) -> None:
        # The unlink runs even if closing the handle fails: the temp file
        # must never outlive the writer.
        try:
            self._handle.close()
        finally:
            self._temp.unlink(missing_ok=True)


class PersistentFileStore(FileStore):
    """Artifact store persisted to a directory, read lazily from disk.

    A :class:`~repro.storage.file_store.FileStore` whose byte hooks keep
    the artifacts in ``<id>.bin`` files and only a size index in memory.
    Every artifact carries a SHA-256 sidecar; ``get`` verifies it and
    raises :class:`StorageError` on mismatch, so silent on-disk
    corruption of an archived model set cannot go unnoticed.
    """

    _writer_class = _DiskArtifactWriter

    def __init__(
        self,
        directory: str | Path,
        profile: HardwareProfile = LOCAL_PROFILE,
    ) -> None:
        super().__init__(profile)
        self._directory = Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)
        self.sweep_temp_files()
        #: id -> size, the only in-memory footprint.  Artifacts found at
        #: reopen have no remembered category and delete from no bucket.
        self._sizes: dict[str, int] = {
            path.stem: path.stat().st_size
            for path in self._directory.glob("*.bin")
        }
        self._writer_serial = itertools.count()

    def sweep_temp_files(self) -> int:
        """Remove crash-leftover ``*.tmp`` files; returns how many."""
        removed = 0
        for leftover in self._directory.glob("*.tmp"):
            leftover.unlink(missing_ok=True)
            removed += 1
        return removed

    def _path(self, artifact_id: str) -> Path:
        return self._directory / f"{artifact_id}.bin"

    # -- byte hooks (disk backend) -------------------------------------------
    def _write(self, artifact_id: str, data: bytes, digest: str) -> None:
        path = self._path(artifact_id)
        _atomic_write(path, data)
        _atomic_write(path.with_suffix(".sha256"), digest.encode("ascii"))
        self._sizes[artifact_id] = len(data)

    def _load(self, artifact_id: str, verify: bool = False) -> bytes:
        data = self._path(artifact_id).read_bytes()
        recorded = self.recorded_digest(artifact_id) if verify else None
        if recorded is not None and recorded != hash_bytes(data):
            raise StorageError(
                f"artifact {artifact_id!r} failed checksum verification"
            )
        return data

    def _read_ranges(self, artifact_id: str, ranges) -> "list[bytes]":
        """The ranges' bytes; a range the file no longer holds (cut since
        its size was remembered) raises :class:`ArtifactTruncatedError`
        with the size on disk."""
        chunks = []
        with open(self._path(artifact_id), "rb") as handle:
            for offset, length in ranges:
                handle.seek(offset)
                chunk = handle.read(length)
                if len(chunk) < length:
                    size = os.fstat(handle.fileno()).st_size
                    raise ArtifactTruncatedError(artifact_id, size, offset + length)
                chunks.append(chunk)
        return chunks

    def _remove(self, artifact_id: str) -> None:
        path = self._path(artifact_id)
        path.unlink(missing_ok=True)
        path.with_suffix(".sha256").unlink(missing_ok=True)
        del self._sizes[artifact_id]

    def _size_of(self, artifact_id: str) -> int:
        return self._sizes[artifact_id]

    def _size_at_rest(self, artifact_id: str) -> int:
        try:
            return self._path(artifact_id).stat().st_size
        except FileNotFoundError:
            return 0

    def _held(self) -> "dict[str, int]":
        return self._sizes

    def recorded_digest(self, artifact_id: str) -> str | None:
        """The SHA-256 sidecar contents, or ``None`` if no sidecar exists."""
        if artifact_id not in self._sizes:
            return None
        sidecar = self._path(artifact_id).with_suffix(".sha256")
        return sidecar.read_text().strip() if sidecar.exists() else None


#: A log frame's head: the payload's length, then its CRC-32.
_FRAME = struct.Struct("<II")
#: A payload opens with its doc id's length; the id and the document's
#: compact JSON follow.  A tombstone is a payload with no JSON.
_ID_LENGTH = struct.Struct("<H")


def _encode_frame(doc_id: str, encoded: "str | None") -> bytes:
    """One log frame: length, CRC-32, doc id, and the compact JSON the
    write encoded — or nothing after the id (``None``), a tombstone."""
    key = doc_id.encode("utf-8")
    body = b"" if encoded is None else encoded.encode("utf-8")
    payload = _ID_LENGTH.pack(len(key)) + key + body
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def _decode_frames(data: bytes):
    """Yield ``(frame size, doc id, compact JSON or None)`` for each frame
    of ``data``, stopping at the first torn or bad-CRC frame."""
    offset = 0
    while offset + _FRAME.size <= len(data):
        length, crc = _FRAME.unpack_from(data, offset)
        start, end = offset + _FRAME.size, offset + _FRAME.size + length
        if length < _ID_LENGTH.size or end > len(data):
            return
        payload = data[start:end]
        (key_length,) = _ID_LENGTH.unpack_from(payload)
        body = _ID_LENGTH.size + key_length
        if zlib.crc32(payload) != crc or body > length:
            return
        yield (
            end - offset,
            payload[_ID_LENGTH.size : body].decode("utf-8"),
            payload[body:].decode("utf-8") if body < length else None,
        )
        offset = end


class _DocumentLog:
    """One collection of a :class:`PersistentDocumentStore` kept as an
    append-only file of frames (:func:`_encode_frame`).

    The handle opens at the first frame after the log was last emptied
    and closes when it is emptied again; frames are written unbuffered,
    so a killed process loses nothing the OS already holds.  There is
    no fsync, as nowhere else in the stores.
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        self._handle = None
        self._close = None
        #: Bytes in the file.
        self.size = 0
        #: doc id -> size of the frame holding its current value.
        self._live: dict[str, int] = {}
        #: The sum of ``_live``'s frame sizes.
        self.live_bytes = 0

    def _note(self, doc_id: str, frame_size: int, encoded: "str | None") -> None:
        self.size += frame_size
        self.live_bytes -= self._live.pop(doc_id, 0)
        if encoded is not None:
            self._live[doc_id] = frame_size
            self.live_bytes += frame_size

    def replay(self) -> "dict[str, str]":
        """``{doc id: compact JSON}`` of the live documents in the log's
        intact prefix; a torn or bad-CRC tail is truncated away."""
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            return {}
        documents: dict[str, str] = {}
        for frame_size, doc_id, encoded in _decode_frames(data):
            self._note(doc_id, frame_size, encoded)
            documents[doc_id] = encoded
        if self.size < len(data):
            os.truncate(self.path, self.size)
        return {doc_id: encoded for doc_id, encoded in documents.items() if encoded}

    def holds(self, doc_id: str) -> bool:
        return doc_id in self._live

    def append(self, doc_id: str, encoded: "str | None") -> None:
        """Append one document's frame, or its tombstone (``None``)."""
        frame = _encode_frame(doc_id, encoded)
        if self._handle is None:
            self._handle = open(self.path, "ab", buffering=0)
            # Closes a handle a crashed transaction left open once the
            # store is collected, or at exit.
            self._close = weakref.finalize(self, self._handle.close)
        try:
            view = memoryview(frame)
            while view:
                view = view[self._handle.write(view) :]
        except OSError:
            # A frame cut short (a full disk) must not be followed by the
            # next one: replay would stop at it and lose that frame too.
            os.truncate(self.path, self.size)
            raise
        self._note(doc_id, len(frame), encoded)

    def oversized(self) -> bool:
        """Whether the log holds more than twice its live frames."""
        return self.size > 2 * self.live_bytes

    def rewrite(self, documents: dict) -> None:
        """Replace the log by one frame per live document (temp file +
        rename); ``documents`` holds their current values by id.  An id
        whose tombstone failed to append is still live in the log but gone
        from ``documents``; the rewrite drops it."""
        frames = {
            doc_id: _encode_frame(doc_id, compact_json(document))
            for doc_id, document in documents.items()
            if doc_id in self._live
        }
        # Not through _atomic_write: the log's bytes are not document files.
        temp = self.path.with_suffix(self.path.suffix + ".tmp")
        temp.write_bytes(b"".join(frames.values()))
        self._close_handle()
        os.replace(temp, self.path)
        self._live = {doc_id: len(frame) for doc_id, frame in frames.items()}
        self.size = self.live_bytes = sum(self._live.values())

    def clear(self) -> None:
        """Truncate the log to zero bytes and close its handle."""
        if self.size:
            os.truncate(self.path, 0)
        self._close_handle()
        self.size = self.live_bytes = 0
        self._live.clear()

    def _close_handle(self) -> None:
        if self._handle is not None:
            self._close()
            self._handle = None


class PersistentDocumentStore(DocumentStore):
    """Document store persisted as ``<collection>/<id>.json`` files.

    Existing documents are loaded (without charging the latency model) on
    open, read-only like every held document (:func:`load_frozen`), each
    remembered at its compact-JSON size whatever the file's
    spelling; inserts write through atomically.  The save journal's
    collection is one append-only log instead, ``save_journal.log``
    (:class:`_DocumentLog`), emptied whenever the collection empties.
    """

    def __init__(
        self, directory: str | Path, profile: HardwareProfile = LOCAL_PROFILE
    ) -> None:
        super().__init__(profile=profile)
        self._directory = Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)
        self.sweep_temp_files()
        for collection_dir in self._directory.iterdir():
            if not collection_dir.is_dir():
                continue
            for doc_path in collection_dir.glob("*.json"):
                documents = self._collections.setdefault(collection_dir.name, {})
                document = load_frozen(doc_path.read_text())
                documents[doc_path.stem] = document
                self._sizes[(collection_dir.name, doc_path.stem)] = (
                    document_num_bytes(document)
                )
        #: Journal documents still in the per-file layout of older code:
        #: each file is unlinked when its document is retired.
        self._legacy_journal = set(self._collections.get(JOURNAL_COLLECTION, ()))
        self._journal_log = _DocumentLog(self._directory / f"{JOURNAL_COLLECTION}.log")
        for doc_id, encoded in self._journal_log.replay().items():
            self._hold(JOURNAL_COLLECTION, doc_id, encoded)
        if not self._collections.get(JOURNAL_COLLECTION):
            self._journal_log.clear()
        # Resume auto-ids beyond anything already on disk.
        self._id_counter = auto_id_counter(
            doc_id for documents in self._collections.values() for doc_id in documents
        )

    def sweep_temp_files(self) -> int:
        """Remove the temp files of writes a crash interrupted (each
        collection's ``*.json.tmp``, the log's rewrite); returns how many."""
        leftovers = [
            *self._directory.glob("*/*.json.tmp"),
            *self._directory.glob(f"{JOURNAL_COLLECTION}.log.tmp"),
        ]
        for leftover in leftovers:
            leftover.unlink(missing_ok=True)
        return len(leftovers)

    def _persist(self, collection: str, doc_id: str, encoded: "str | None") -> None:
        """Write the document's current state through: the text the write
        encoded, atomically — or no file, once the document is gone."""
        if collection == JOURNAL_COLLECTION:
            self._persist_logged(doc_id, encoded)
            return
        path = self._directory / collection / f"{doc_id}.json"
        if encoded is None:
            path.unlink(missing_ok=True)
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        _atomic_write(path, encoded.encode("utf-8"))

    def _persist_logged(self, doc_id: str, encoded: "str | None") -> None:
        """:meth:`_persist` of the journal collection: append to its log.

        Only a document frame can trigger the rewrite: a retirement
        tombstones a header and then each of its records, so mid-way its
        live set shrinks toward the truncation that ends it.
        """
        log = self._journal_log
        if encoded is not None:
            log.append(doc_id, encoded)
            if log.oversized():
                log.rewrite(self._collections[JOURNAL_COLLECTION])
            return
        if doc_id in self._legacy_journal:
            self._legacy_journal.discard(doc_id)
            (self._directory / JOURNAL_COLLECTION / f"{doc_id}.json").unlink(
                missing_ok=True
            )
        if not self._collections.get(JOURNAL_COLLECTION):
            log.clear()
        elif log.holds(doc_id):
            log.append(doc_id, None)

    def _drop_if_empty(self, collection: str) -> None:
        super()._drop_if_empty(collection)
        if collection not in self._collections:
            try:
                (self._directory / collection).rmdir()
            except OSError:
                pass


#: Directory name of shard ``i`` under a fleet root.
SHARD_PREFIX = "shard-"


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
    single-archive layout (or a fresh directory); see :func:`_topology`
    for gaps.
    """
    return _topology(directory, SHARD_PREFIX)


def shard_roots(
    directory: str | Path, shards: "int | None" = None, fresh: "int | None" = None
) -> "tuple[list[Path], list[int]]":
    """The archive's shard roots, and the indices of the missing ones.

    The one topology rule.  A plain archive is one shard rooted at the
    directory itself: ``[directory]``.  A fleet is ``directory/shard-<i>``
    for every index below the detected shard count; an index whose
    directory is absent is reported missing, never recreated here.
    ``shards=None`` auto-detects (no ``shard-<i>/`` means plain); a count
    asks for a fleet of exactly that size.  ``fresh`` is what a directory
    holding no archive becomes when no count is asked: ``None`` the
    directory itself, a count a fleet of that size.

    Two refusals live here and nowhere else: mixing a plain layout (any
    of ``artifacts/``, ``documents/`` or ``replica-<i>/``) with a fleet
    (shard subtrees beside it, or a shard count asked of it) raises
    :class:`~repro.errors.StorageError`; a count contradicting an
    existing fleet raises :class:`~repro.errors.ConfigError`.
    """
    root = Path(directory)
    detected = detect_shards(root)
    plain = (
        (root / "artifacts").is_dir()
        or (root / "documents").is_dir()
        or _topology(root, "replica-") > 0
    )
    if plain and (detected or shards is not None):
        raise StorageError(
            f"{root} holds a plain single archive; move its contents into "
            f"{root / (SHARD_PREFIX + '0')}/ to adopt the fleet layout, or "
            "open it without a shard count"
        )
    if shards is None and not detected:
        if plain or fresh is None:
            return [root], []
        shards = fresh
    num = detected if shards is None else int(shards)
    if detected and detected != num:
        raise ConfigError(
            f"archive at {root} has {detected} shard(s) but shards={num} was "
            "requested; resharding an existing fleet is not supported"
        )
    roots = [root / f"{SHARD_PREFIX}{index}" for index in range(num)]
    return roots, [index for index, shard in enumerate(roots) if not shard.is_dir()]


def open_stores(
    directory: "str | Path | None",
    profile: HardwareProfile = LOCAL_PROFILE,
    artifacts: bool = True,
):
    """One backend's ``(file_store, document_store)`` pair: in memory when
    ``directory`` is ``None``, else under ``<directory>/artifacts`` and
    ``<directory>/documents``.

    ``artifacts=False`` keeps the artifact half in memory: a root that
    holds documents only (the fleet registry) grows no ``artifacts/``.
    """
    if directory is None:
        return FileStore(profile), DocumentStore(profile)
    root = Path(directory)
    file_store = (
        PersistentFileStore(root / "artifacts", profile)
        if artifacts
        else FileStore(profile)
    )
    return file_store, PersistentDocumentStore(root / "documents", profile)


def open_archive_stores(roots: list, config):
    """An archive's store pair over one :func:`open_stores` backend per
    root (a directory, or ``None`` for memory).

    ``config.retry`` wraps every backend — *below* the replication layer,
    so a transient blip is retried on the replica that had it and only a
    persistent outage fails over; more than one backend goes behind the
    quorum replication layer (:mod:`repro.storage.replication`).
    """
    from repro.storage.faults import with_retries
    from repro.storage.replication import replicated_pair

    pairs = [
        with_retries(*open_stores(root, config.profile), config.retry)
        for root in roots
    ]
    return pairs[0] if len(pairs) == 1 else replicated_pair(pairs, config)


def open_context(
    directory: str | Path, config: "object | None" = None, wiring=None
):
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
      layer; ``None`` auto-detects the topology, so a replicated archive
      reopens replicated without flags.
    * ``retry`` wraps each backend (see :func:`open_archive_stores`).

    ``wiring`` makes the context a fleet shard (see
    :func:`~repro.core.approach.build_context`).
    """
    from repro.config import resolve_config
    from repro.core.approach import build_context

    config = resolve_config("open_context", config)
    root = Path(directory)
    if shard_roots(root)[0] != [root]:
        # A fleet layout reopened through the single-archive entry point
        # would create a fresh empty archive beside the shard subtrees,
        # silently shadowing every set in them.
        raise StorageError(
            f"archive at {root} is a sharded fleet layout (shard-<i>/ "
            "subtrees); open it with MultiModelManager.open or repro-archive"
        )
    replicas = detect_replicas(root) if config.replicas is None else config.replicas
    roots = [root]
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
        roots = [root / f"replica-{index}" for index in range(replicas)]
    file_store, document_store = open_archive_stores(roots, config)
    return build_context(
        file_store, document_store, config, journal=config.journal, wiring=wiring
    )
