"""Content-addressed, refcounted chunk layer over the artifact stores.

The paper's O1 observation — thousands of same-architecture models share
most of their bytes — is exploited here at the finest useful grain: one
**chunk** per layer tensor, keyed by the SHA-256 of its serialized bytes.
A chunk is stored exactly once, no matter how many models (in one set,
across a derivation chain, or across sibling chains) reference it.

Layout
------
* Chunk *bytes* live in the regular file store, packed: each save appends
  only its **new** unique chunks, concatenated in first-seen order, as one
  "pack" artifact (``<set-id>-chunks``).  Elided chunks cost no file-store
  operation at all — only the metadata below — which is what makes the
  simulated time-to-save gain deterministic.
* The chunk *index* lives in the document store, so persistent archives
  reopen with the index intact:

  - ``chunk_packs``: one document per pack artifact with the digests and
    lengths of its chunks (offsets are the running sum), and
  - ``chunk_refs``: a single ledger document mapping digest → reference
    count, rewritten whenever counts change (the "metadata cost" charged
    for a deduplicated save).

In memory the index is six columns by digest id
(:data:`~repro.storage.hashing.DIGESTS`): whether a digest is held,
whether it is quarantined, each chunk's pack, offset and length, and
its reference count.  The constructor rebuilds them from the two
collections above and every mutation writes them directly, so
:meth:`ChunkStore.servable` answers for a whole id column at once and a
read plans its ranges with array operations.

Reads use the **single-fetch fan-out**: :meth:`ChunkStore.fetch` groups
the requested digest ids by pack, coalesces adjacent ranges, and issues
one vectored :meth:`get_ranges` per pack — each unique chunk crosses the
wire once, and the caller copies it into every referencing (model,
layer) slot.  Each read hands the store a check of every chunk it serves
against the chunk's own digest: a replicated store runs it on the
serving replica and fails over when a chunk does not match.

Garbage collection is refcount-driven: deleting a set releases its
references (:meth:`release`), and :meth:`sweep` mark-and-sweeps the index
— packs whose chunks are all dead are deleted outright, packs holding a
mix are rewritten to contain only their live chunks, so the bytes
reclaimed equal exactly the bytes of zero-reference chunks.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from repro.errors import ChunkCorruptionError, StorageError
from repro.storage.file_store import WriterContext
from repro.storage.hashing import DIGESTS, SMALL_IDS, distinct, fit, hash_bytes, lookup

#: Collection holding one layout document per pack artifact.
PACKS_COLLECTION = "chunk_packs"

#: Collection holding the single refcount ledger document.
REFS_COLLECTION = "chunk_refs"

#: Document id of the refcount ledger.
REFS_DOC_ID = "refcounts"


class ChunkLocation(NamedTuple):
    """Where one chunk's stored bytes live: a range of a pack artifact."""

    artifact_id: str
    offset: int
    length: int


@dataclass(frozen=True)
class IngestReport:
    """What one ingest (save) did at the chunk layer."""

    chunks_total: int
    chunks_new: int
    chunks_deduped: int
    bytes_new: int
    bytes_deduped: int
    pack_artifact: str | None


@dataclass
class SweepReport:
    """What one mark-and-sweep pass reclaimed."""

    chunks_reclaimed: int = 0
    bytes_reclaimed: int = 0
    packs_deleted: list[str] = field(default_factory=list)
    packs_rewritten: list[str] = field(default_factory=list)


def _group_reads(
    ids: np.ndarray, pack: np.ndarray, offset: np.ndarray, length: np.ndarray
) -> "list[tuple[int, list, list, list]]":
    """Plan one read of the chunks ``ids`` (with repeats), located by the
    parallel ``pack`` / ``offset`` / ``length`` columns.

    Returns one ``(pack number, ranges, ids, slots)`` per pack, packs in
    order of first request: the pack's chunks sorted by offset, exactly
    adjacent ones coalesced into one ``(offset, length)`` range (no gap
    is bridged), and each chunk's slot ``(range, offset within it,
    length)``.  Both ways of planning give the same reads: up to
    :data:`~repro.storage.hashing.SMALL_IDS` chunks in Python (8 chunks:
    ~7 µs, ~30 µs as arrays), more as arrays (2,000: ~0.34 ms, ~2.5 ms
    in Python).
    """
    if len(ids) <= SMALL_IDS:
        packs = pack.tolist()
        reads = {number: ([], [], []) for number in dict.fromkeys(packs)}
        located = set(zip(packs, offset.tolist(), length.tolist(), ids.tolist()))
        for number, start, size, ident in sorted(located):
            ranges, chunk_ids, slots = reads[number]
            if ranges and start == ranges[-1][0] + ranges[-1][1]:
                ranges[-1] = (ranges[-1][0], ranges[-1][1] + size)
            else:
                ranges.append((start, size))
            chunk_ids.append(ident)
            slots.append((len(ranges) - 1, start - ranges[-1][0], size))
        return [(number, *read) for number, read in reads.items()]
    order = np.lexsort((ids, length, offset, pack))
    ids, pack, offset, length = ids[order], pack[order], offset[order], length[order]
    # Sorted, a repeated id sits next to its first request: keep that.
    fresh = np.concatenate(([True], ids[1:] != ids[:-1]))
    if not fresh.all():
        order, ids, pack, offset, length = (
            column[fresh] for column in (order, ids, pack, offset, length)
        )
    # A range breaks where the pack changes or the chunks stop touching.
    new_pack = pack[1:] != pack[:-1]
    starts = np.flatnonzero(
        np.concatenate(([True], new_pack | (offset[1:] != offset[:-1] + length[:-1])))
    )
    run = np.zeros(len(ids), dtype=np.int64)
    run[starts] = 1
    run = np.cumsum(run) - 1  # each chunk's range
    # Where each pack's chunks begin (and the end), and its first range.
    cuts = np.flatnonzero(np.concatenate(([True], new_pack, [True])))
    first_range = run[cuts[:-1]]
    slots = list(zip(
        (run - np.repeat(first_range, np.diff(cuts))).tolist(),
        (offset - offset[starts][run]).tolist(),
        length.tolist(),
    ))
    ranges = list(zip(offset[starts].tolist(), np.add.reduceat(length, starts).tolist()))
    range_cuts = [*first_range.tolist(), len(ranges)]
    ids, pack, cuts = ids.tolist(), pack.tolist(), cuts.tolist()
    reads = [
        (
            pack[lo],
            ranges[range_cuts[index] : range_cuts[index + 1]],
            ids[lo:hi],
            slots[lo:hi],
        )
        for index, (lo, hi) in enumerate(zip(cuts, cuts[1:]))
    ]
    # Packs in order of first request: the earliest request of each.
    first_request = np.minimum.reduceat(order, cuts[:-1])
    return [reads[index] for index in np.argsort(first_request).tolist()]


def _slices(blobs: "list[bytes]", slots: "list[tuple[int, int, int]]") -> "list[memoryview]":
    """The chunks ``(blob, offset, length)`` of ``slots``, as views of
    the range reads ``blobs``."""
    views = [memoryview(blob) for blob in blobs]
    return [views[blob][start : start + length] for blob, start, length in slots]


def _digest_check(
    ids: "list[int]", slots: "list[tuple[int, int, int]]", passed: "set[int] | None" = None
) -> "Callable[[list[bytes]], bool]":
    """A :meth:`get_ranges` check: the chunk at each of ``slots`` hashes
    to the digest of its id in ``ids`` (hex is built only if it runs).
    When it passes, ``ids`` join ``passed``: the store served them checked."""

    def check(blobs: "list[bytes]") -> bool:
        verdict = all(
            hash_bytes(chunk) == digest
            for chunk, digest in zip(_slices(blobs, slots), DIGESTS.hexes(ids))
        )
        if verdict and passed is not None:
            passed.update(ids)
        return verdict

    return check


class IngestSession(WriterContext):
    """Streaming ingest of one save's chunk references.

    References are added one at a time (:meth:`add`), so a 5000-model save
    never holds more than one new chunk's bytes beyond the pack writer's
    buffer.  The pack artifact writer is opened lazily on the first *new*
    chunk: a fully deduplicated save performs no file-store operation.
    Close with :meth:`close`; usable as a context manager (an exception
    aborts the pack without storing anything).
    """

    def __init__(
        self,
        store: "ChunkStore",
        pack_id: str,
        category: str = "parameters",
        workers: int = 1,
    ) -> None:
        self._store = store
        self._pack_id = pack_id
        self._category = category
        self._workers = workers
        self._writer = None
        #: The digest id of every reference added, repeats included.
        self._ids: list[int] = []
        #: Length by digest id of the chunks first stored by this session,
        #: in pack order.
        self._new: dict[int, int] = {}
        self._deduped = 0
        self._bytes_deduped = 0
        self._closed = False

    def add(self, digest: str, data: bytes | Callable[[], bytes]) -> None:
        """Reference one chunk; stores its bytes only if not yet present.

        ``data`` may be the bytes themselves or a zero-argument callable
        producing them — the callable is only invoked for chunks that
        actually need storing, so callers can defer serialization.
        """
        if self._closed:
            raise StorageError("ingest session already closed")
        ident = DIGESTS.intern(digest)
        self._ids.append(ident)
        store = self._store
        # A quarantined chunk counts as absent: its stored bytes are
        # corrupt, so this save re-stores a clean copy (healing the index
        # for every set referencing the digest).
        if ident < len(store._held) and store._held[ident] and not store._quarantined[ident]:
            length = store._length[ident]
        else:
            length = self._new.get(ident)
        if length is not None:
            self._deduped += 1
            self._bytes_deduped += length
            return
        payload = data() if callable(data) else bytes(data)
        if self._writer is None:
            self._writer = store.file_store.open_writer(
                self._pack_id, category=self._category, workers=self._workers
            )
        self._writer.write(payload)
        self._new[ident] = len(payload)

    def close(self) -> IngestReport:
        """Finalize the pack (if any) and commit index + refcounts."""
        if self._closed:
            raise StorageError("ingest session already closed")
        self._closed = True
        store = self._store
        pack_artifact: str | None = None
        if self._writer is not None:
            pack_artifact = self._writer.close()
            ids = np.fromiter(self._new, np.int64, len(self._new))
            lengths = np.fromiter(self._new.values(), np.int64, len(self._new))
            # Re-store of a quarantined chunk: the clean copy takes over
            # the digest, keeping accumulated references, and the corrupt
            # location is disowned so an index rebuild cannot resurrect it.
            for ident in ids[store.held(ids)].tolist():
                store._mark_superseded(ident)
            store._place(ids, pack_artifact, np.cumsum(lengths) - lengths, lengths)
            store._quarantined[ids] = False
            store.document_store.insert(
                PACKS_COLLECTION,
                {
                    "artifact": pack_artifact,
                    "digests": DIGESTS.hexes(self._new),
                    "lengths": lengths.tolist(),
                },
                doc_id=pack_artifact,
                category="chunk-index",
            )
        referenced, counts = np.unique(np.array(self._ids, dtype=np.int64), return_counts=True)
        store._refs[referenced] += counts
        store._persist_refs()
        store.file_store.stats.record_chunks(
            len(self._ids), self._deduped, int(self._bytes_deduped)
        )
        return IngestReport(
            chunks_total=len(self._ids),
            chunks_new=len(self._new),
            chunks_deduped=self._deduped,
            bytes_new=sum(self._new.values()),
            bytes_deduped=int(self._bytes_deduped),
            pack_artifact=pack_artifact,
        )

    def abort(self) -> None:
        """Discard the session: no pack, no index or refcount changes."""
        self._closed = True
        if self._writer is not None:
            self._writer.abort()


class ChunkStore:
    """Refcounted content-addressed chunk index over one store pair.

    One instance per :class:`~repro.core.approach.SaveContext`; the index
    is rebuilt from the document store on construction (management plane,
    uncharged), so persistent archives resume deduplicating against
    everything they already hold.
    """

    def __init__(self, file_store, document_store) -> None:
        self.file_store = file_store
        self.document_store = document_store
        #: The index, by digest id: whether a digest is held, whether its
        #: stored bytes are quarantined (they failed verification: reads
        #: refuse the chunk until a clean copy takes over the digest), the
        #: number (in ``_pack_ids``), offset and length of its location,
        #: and its reference count.  An id not held reads zero throughout.
        self._held = np.zeros(1, dtype=bool)
        self._quarantined = np.zeros(1, dtype=bool)
        self._pack = np.zeros(1, dtype=np.int64)
        self._offset = np.zeros(1, dtype=np.int64)
        self._length = np.zeros(1, dtype=np.int64)
        self._refs = np.zeros(1, dtype=np.int64)
        #: Pack artifact id by pack number, and back.
        self._pack_ids: list[str] = []
        self._pack_numbers: dict[str, int] = {}
        #: Callables invoked with an id column of the digests that just
        #: stopped being servable (quarantined or swept).  The serving
        #: cache registers here so a doomed chunk can never be served
        #: from cache after the store has disowned it.
        self.invalidation_listeners: list[Callable[[np.ndarray], None]] = []
        packs = document_store.peek_collection(PACKS_COLLECTION)
        # Deterministic rebuild: repair packs apply last so a repaired
        # digest always resolves to its clean copy, and a pack's
        # ``superseded`` digests (disowned by a later re-store or repair)
        # never claim the digest back.
        ordered = sorted(
            packs.values(), key=lambda doc: bool(doc.get("repair", False))
        )
        for doc in ordered:
            lengths = np.asarray(doc["lengths"], dtype=np.int64)
            superseded = set(doc.get("superseded", ()))
            kept = np.fromiter(
                (digest not in superseded for digest in doc["digests"]), bool, len(lengths)
            )
            self._place(
                DIGESTS.intern_many(doc["digests"])[kept],
                str(doc["artifact"]),
                (np.cumsum(lengths) - lengths)[kept],
                lengths[kept],
            )
        ledger = document_store.peek(REFS_COLLECTION, REFS_DOC_ID) or {}
        refs = ledger.get("refs", {})
        counted = DIGESTS.intern_many(refs)
        quarantined = DIGESTS.intern_many(ledger.get("quarantined", ()))
        self._grow()
        # Only held digests keep a count or a quarantine flag.
        self._refs[counted] = np.where(
            self._held[counted], np.fromiter(refs.values(), np.int64, len(refs)), 0
        )
        self._quarantined[quarantined] = self._held[quarantined]

    # -- write ----------------------------------------------------------------
    def open_ingest(
        self, pack_id: str, category: str = "parameters", workers: int = 1
    ) -> IngestSession:
        """Begin ingesting one save's chunk references (see IngestSession)."""
        return IngestSession(self, pack_id, category=category, workers=workers)

    def ingest(
        self,
        references: Iterable[tuple[str, bytes | Callable[[], bytes]]],
        pack_id: str,
        category: str = "parameters",
        workers: int = 1,
    ) -> IngestReport:
        """Convenience wrapper: ingest an iterable of (digest, data) refs."""
        with self.open_ingest(pack_id, category=category, workers=workers) as session:
            for digest, data in references:
                session.add(digest, data)
            return session.close()

    def _persist_refs(self) -> None:
        """Rewrite the refcount ledger document (the metadata charge)."""
        ids = np.flatnonzero(self._held)
        counts = zip(DIGESTS.hexes(ids.tolist()), self._refs[ids].tolist())
        document = {"refs": dict(sorted(counts))}
        quarantined = self.quarantined_digests()
        if quarantined:
            document["quarantined"] = quarantined
        if self.document_store.exists(REFS_COLLECTION, REFS_DOC_ID):
            self.document_store.replace(REFS_COLLECTION, REFS_DOC_ID, document)
        else:
            self.document_store.insert(
                REFS_COLLECTION, document, doc_id=REFS_DOC_ID, category="chunk-index"
            )

    def _grow(self) -> None:
        """Fit every column to the digest table (see :func:`fit`)."""
        for name in ("_held", "_quarantined", "_pack", "_offset", "_length", "_refs"):
            setattr(self, name, fit(getattr(self, name), len(DIGESTS)))

    def _place(
        self, ids: np.ndarray, artifact_id: str, offsets: np.ndarray, lengths: np.ndarray
    ) -> None:
        """Hold chunks ``ids`` at ``offsets`` of pack ``artifact_id``
        (their counts and quarantine flags are left as they are)."""
        self._grow()
        number = self._pack_numbers.setdefault(artifact_id, len(self._pack_ids))
        if number == len(self._pack_ids):
            self._pack_ids.append(artifact_id)
        self._held[ids] = True
        self._pack[ids] = number
        self._offset[ids] = offsets
        self._length[ids] = lengths

    def _held_ids(self, digests: Iterable[str], action: str) -> np.ndarray:
        """The ids of ``digests``, which must all be held."""
        digests = list(digests)
        ids = DIGESTS.intern_many(digests)
        held = self.held(ids)
        if not held.all():
            unknown = digests[int(np.argmin(held))]
            raise StorageError(f"{action}: unknown chunk {unknown!r}")
        return ids

    def _mark_superseded(self, ident: int) -> None:
        """Disown chunk ``ident``'s current location in its pack's layout
        document (called just before a clean copy takes over the digest).

        The digest (and its offset math) stays in the pack document so the
        surviving chunks' offsets remain valid, but an index rebuild will
        never resolve the digest to the disowned (corrupt) bytes again.
        """
        artifact_id = self._pack_ids[self._pack[ident]]
        [digest] = DIGESTS.hexes([ident])
        doc = self.document_store._read_raw(PACKS_COLLECTION, artifact_id)
        if doc is None:
            return
        superseded = set(doc.get("superseded", []))
        if digest in superseded:
            return
        superseded.add(digest)
        self.document_store.replace(
            PACKS_COLLECTION,
            artifact_id,
            {**doc, "superseded": sorted(superseded)},
        )

    # -- read -----------------------------------------------------------------
    def fetch(
        self, ids: "np.ndarray | Sequence[int]", workers: int = 1
    ) -> "dict[int, memoryview]":
        """Fetch the bytes of every *unique* digest id, one pass per pack.

        The requested chunks are grouped by pack (packs in order of first
        request) and sorted by offset; exactly adjacent chunks are
        coalesced into one range, and each pack is served by a single
        vectored :meth:`get_ranges` call, whose check hashes every
        served chunk against its own digest.  Each unique chunk is read
        once regardless of how many (model, layer) slots the caller fans
        it out to, and comes back as a view of its range's bytes.
        """
        return self._read(ids, workers)

    def _read(
        self, ids: "np.ndarray | Sequence[int]", workers: int, passed: "set[int] | None" = None
    ) -> "dict[int, memoryview]":
        """:meth:`fetch`; the ids whose bytes the store's read check
        passed join ``passed`` (none do on a store that ignores it)."""
        ids = np.asarray(ids, dtype=np.int64)
        # Only held digests are ever quarantined.  (Python's any/all over
        # a short list cost a tenth of numpy's on one model's 8 chunks.)
        held, quarantined = lookup(self._held, ids), lookup(self._quarantined, ids)
        if any(quarantined.tolist()):
            doomed = distinct(ids[quarantined]).tolist()
            raise ChunkCorruptionError(
                f"{len(doomed)} requested chunk(s) are quarantined as "
                "corrupt; use fetch_verified/salvage to recover the rest",
                digests=tuple(DIGESTS.hexes(doomed)),
            )
        if not all(held.tolist()):
            [unknown] = DIGESTS.hexes(ids[~held][:1].tolist())
            raise StorageError(f"unknown chunk {unknown!r}")
        reads = _group_reads(ids, self._pack[ids], self._offset[ids], self._length[ids])
        out: dict[int, memoryview] = {}
        for number, ranges, chunk_ids, slots in reads:
            blobs = self.file_store.get_ranges(
                self._pack_ids[number],
                ranges,
                workers=workers,
                check=_digest_check(chunk_ids, slots, passed),
            )
            out.update(zip(chunk_ids, _slices(blobs, slots)))
        return out

    # -- corruption handling ---------------------------------------------------
    def fetch_verified(
        self, digests: Iterable[str], workers: int = 1, quarantine: bool = True
    ) -> "tuple[dict[str, memoryview], set[str]]":
        """Fetch unique digests, verifying every chunk against its digest.

        Returns ``(values, corrupted)``: corrupted digests are absent from
        ``values`` instead of aborting the whole read, which is what lets
        salvage recovery return every intact model.  Already-quarantined
        chunks are reported corrupted without touching the bytes; freshly
        discovered corruption (bitrot, unreadable pack regions) is
        quarantined and persisted when ``quarantine=True`` so subsequent
        plain :meth:`fetch` calls refuse fast.  Each chunk is hashed once:
        by the store's read check where it runs one, else here.
        """
        unique = list(dict.fromkeys(digests))
        ids = self._held_ids(unique, "read")
        flagged = self._quarantined[ids]
        corrupted = {digest for digest, bad in zip(unique, flagged.tolist()) if bad}
        to_read = ids[~flagged].tolist()
        # A missing or truncated pack raises StorageError (or OSError).
        unreadable = (StorageError, OSError)
        checked: set[int] = set()
        try:
            fetched = self._read(to_read, workers, checked)
        except unreadable:
            # Fall back to per-digest reads so one bad pack only loses its
            # own chunks.
            fetched, checked = {}, set()
            for ident in to_read:
                try:
                    fetched.update(self._read([ident], 1, checked))
                except unreadable:
                    pass  # absent from ``fetched``: corrupted below
        values: dict[str, memoryview] = {}
        newly: list[str] = []
        for digest, ident in zip(DIGESTS.hexes(to_read), to_read):
            data = fetched.get(ident)
            if data is not None and (ident in checked or hash_bytes(data) == digest):
                values[digest] = data
            else:
                corrupted.add(digest)
                newly.append(digest)
        if newly and quarantine:
            self.quarantine(newly)
        return values, corrupted

    def quarantine(self, digests: Iterable[str]) -> None:
        """Mark chunks' stored bytes as corrupt (persisted in the ledger).

        Reads refuse quarantined chunks until a clean copy takes over the
        digest — via :meth:`repair` or simply the next save that stores it.
        Reference counts are untouched: the *identity* is fine, only the
        bytes at the current location are bad.
        """
        ids = self._held_ids(digests, "quarantine")
        fresh = distinct(ids[~self._quarantined[ids]])
        if len(fresh):
            self._quarantined[fresh] = True
            self._persist_refs()
            self._notify_invalidated(fresh)

    def repair(self, digest: str, data: bytes) -> None:
        """Replace a quarantined chunk's bytes with a verified clean copy.

        The payload must hash to ``digest`` (salvage finds candidates in
        replicas: another set's full artifact holding the same layer
        bytes).  The clean copy is stored as a single-chunk repair pack,
        the corrupt location is disowned, and the digest keeps its
        accumulated reference count.
        """
        ids = self._held_ids([digest], "repair")
        payload = bytes(data)
        if hash_bytes(payload) != digest:
            raise ChunkCorruptionError(
                f"repair payload does not hash to {digest[:16]}...",
                digests=(digest,),
            )
        pack_id = f"repair-{digest[:16]}"
        while self.file_store.exists(pack_id):
            pack_id += "-r"
        self.file_store.put(
            payload, artifact_id=pack_id, category="parameters", digest=digest
        )
        self.document_store.insert(
            PACKS_COLLECTION,
            {
                "artifact": pack_id,
                "digests": [digest],
                "lengths": [len(payload)],
                "repair": True,
            },
            doc_id=pack_id,
            category="chunk-index",
        )
        self._mark_superseded(int(ids[0]))
        self._place(ids, pack_id, 0, len(payload))
        self._quarantined[ids] = False
        self._persist_refs()

    def quarantined_digests(self) -> list[str]:
        """Digests currently refusing reads (management plane)."""
        return sorted(DIGESTS.hexes(np.flatnonzero(self._quarantined).tolist()))

    # -- reference management -------------------------------------------------
    def release(self, digests: Iterable[str]) -> None:
        """Drop one reference per digest (set deletion); persists the ledger."""
        ids = self._held_ids(digests, "release")
        if len(ids):
            np.subtract.at(self._refs, ids, 1)
            self._persist_refs()

    # -- garbage collection ---------------------------------------------------
    def sweep(self, workers: int = 1) -> SweepReport:
        """Mark-and-sweep: reclaim the bytes of zero-reference chunks.

        Dead chunks are removed from the index; a pack whose chunks are
        all dead is deleted, and a pack holding both live and dead chunks
        is rewritten with only its live bytes (the rewrite I/O is charged
        honestly).  Afterwards the store holds exactly the live chunks.
        """
        report = SweepReport()
        held = np.flatnonzero(self._held)
        dead = held[self._refs[held] <= 0]
        packs = {
            self._pack_ids[number]: held[self._pack[held] == number]
            for number in set(self._pack[dead].tolist())
        }
        for artifact_id, members in sorted(packs.items()):
            members = members[np.argsort(self._offset[members], kind="stable")]
            alive = self._refs[members] > 0
            live, doomed = members[alive], members[~alive]
            report.chunks_reclaimed += len(doomed)
            report.bytes_reclaimed += int(self._length[doomed].sum())
            self._held[doomed] = self._quarantined[doomed] = False
            self._pack[doomed] = self._offset[doomed] = self._length[doomed] = 0
            self._refs[doomed] = 0
            if not len(live):
                self.file_store.delete(artifact_id)
                self.document_store.delete(PACKS_COLLECTION, artifact_id)
                report.packs_deleted.append(artifact_id)
                continue
            # Rewrite the pack with only its live chunks, preserving order.
            offsets, lengths = self._offset[live], self._length[live]
            # Quarantined chunks move as they are: their bytes are known bad.
            checked = np.flatnonzero(~self._quarantined[live])
            blobs = self.file_store.get_ranges(
                artifact_id,
                list(zip(offsets.tolist(), lengths.tolist())),
                workers=workers,
                check=_digest_check(
                    live[checked].tolist(),
                    [(index, 0, int(lengths[index])) for index in checked.tolist()],
                ),
            )
            new_id = f"{artifact_id}-gc"
            while self.file_store.exists(new_id):
                new_id += "-gc"
            hasher = hashlib.sha256()
            for blob in blobs:
                hasher.update(blob)
            self.file_store.put(
                b"".join(blobs),
                artifact_id=new_id,
                category="parameters",
                workers=workers,
                digest=hasher.hexdigest(),
            )
            self.file_store.delete(artifact_id)
            self._place(live, new_id, np.cumsum(lengths) - lengths, lengths)
            self.document_store.delete(PACKS_COLLECTION, artifact_id)
            self.document_store.insert(
                PACKS_COLLECTION,
                {
                    "artifact": new_id,
                    "digests": DIGESTS.hexes(live.tolist()),
                    "lengths": lengths.tolist(),
                },
                doc_id=new_id,
                category="chunk-index",
            )
            report.packs_rewritten.append(new_id)
        if report.chunks_reclaimed:
            self._persist_refs()
            self._notify_invalidated(dead)
        return report

    def _notify_invalidated(self, ids: np.ndarray) -> None:
        for listener in self.invalidation_listeners:
            listener(ids)

    # -- inspection (management plane, not charged) ---------------------------
    def __contains__(self, digest: str) -> bool:
        return bool(lookup(self._held, DIGESTS.intern(digest)))

    def __iter__(self) -> Iterator[str]:
        """The held digests, in id order."""
        return iter(DIGESTS.hexes(np.flatnonzero(self._held).tolist()))

    def __len__(self) -> int:
        return int(np.count_nonzero(self._held))

    def references(self, ids: "np.ndarray | int") -> "np.ndarray | int":
        """Current reference counts of digest ``ids`` (0 if unknown); a
        single id gives a single count."""
        return lookup(self._refs, ids)

    def held(self, ids: np.ndarray) -> np.ndarray:
        """A mask over the digest ids ``ids``: which the index holds."""
        return lookup(self._held, ids)

    def servable(self, ids: np.ndarray) -> np.ndarray:
        """A mask over the digest ids ``ids``: which a read would serve
        (held and not quarantined)."""
        return self.held(ids) & ~lookup(self._quarantined, ids)

    def locate(self, digest: str) -> ChunkLocation:
        """Where one chunk's bytes live (raises for unknown digests)."""
        [ident] = self._held_ids([digest], "locate").tolist()
        return ChunkLocation(
            self._pack_ids[self._pack[ident]], int(self._offset[ident]), int(self._length[ident])
        )

    def pack_extents(self) -> "dict[str, int]":
        """``{pack artifact id: end of its last held chunk}``: the least
        size each pack must have for every chunk it holds to be read."""
        held = np.flatnonzero(self._held)
        ends = np.zeros(len(self._pack_ids), dtype=np.int64)
        np.maximum.at(ends, self._pack[held], self._offset[held] + self._length[held])
        return dict(zip(self._pack_ids, ends.tolist()))

    def total_references(self) -> int:
        return int(self._refs.sum())

    def live_bytes(self) -> int:
        """Bytes held by chunks with at least one reference."""
        return int(self._length[self._refs > 0].sum())

    def dead_bytes(self) -> int:
        """Bytes held by zero-reference chunks (reclaimable by sweep)."""
        return int(self._length[self._held & (self._refs <= 0)].sum())

    def stored_bytes(self) -> int:
        """Bytes of all indexed chunks, live or dead."""
        return int(self._length.sum())

    def dedup_ratio(self) -> float:
        """1 - unique/references: the fraction of references served free."""
        refs = self.total_references()
        if refs == 0:
            return 0.0
        return 1.0 - len(self) / refs
