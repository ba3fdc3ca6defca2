"""Write-ahead save journal: atomic multi-artifact saves with crash recovery.

Every save in this library is a *multi-artifact* operation — a parameter
blob (or several chunk packs), a descriptor document, hash-info documents,
refcount-ledger updates.  A process that dies between any two of those
writes leaves a torn set: artifacts without descriptors, refcounts without
packs, descriptors referencing bytes that were never written.  The
:class:`SaveJournal` turns each save (and each retention/GC pass) into an
atomic commit:

1. :meth:`SaveJournal.begin` durably writes a ``pending`` entry header
   *before* the first mutation.
2. The :class:`JournaledFileStore` / :class:`JournaledDocumentStore`
   proxies log every mutation's **undo information** *before* applying
   it (write-ahead) — one record document per op, written once and never
   rewritten — and **defer** physical artifact deletes until commit so a
   rollback never has to resurrect bytes.
3. Commit flips the header to ``committing`` with the deferred deletes,
   applies them, then deletes the header (the commit point) and its
   records.  Rollback (any in-process exception) undoes the logged
   operations in reverse.  A crash —
   :class:`~repro.errors.SimulatedCrashError` in the fault harness, a real
   ``kill -9`` in production — leaves the entry behind; the next
   :meth:`SaveJournal.recover` (run by ``MultiModelManager.open``) rolls
   ``pending`` entries back, re-applies the deferred deletes of
   ``committing`` entries and sweeps records whose header is gone, so
   reopening an archive always lands on a consistent prefix of its save
   history.

Journal records are management-plane bookkeeping: they are written through
the stores' uncharged ``_write_raw``/``_delete_raw`` paths, so the
benchmark accounting of every approach is byte-for-byte identical with
journaling on or off.  For the same reason the journal holds references to
the *innermost* (real) stores — its records bypass any fault-injection or
retry wrappers layered on top.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.errors import ArtifactNotFoundError, SimulatedCrashError, StorageError
from repro.storage.document_store import check_document_key
from repro.storage.file_store import WriterContext, check_artifact_id

#: Document-store collection holding each open transaction's header
#: (``txn-<n>``) and its op records (``txn-<n>.<seq>``).
JOURNAL_COLLECTION = "save_journal"

#: Mirrors :data:`repro.core.approach.SETS_COLLECTION`.  Not imported:
#: the core package depends on this module, not the other way around.
_SETS_COLLECTION = "model_sets"


def _record_of(doc_id: str) -> tuple[str, int] | None:
    """``(entry id, seq)`` of an op record id; ``None`` for a header."""
    entry_id, dot, seq = doc_id.rpartition(".")
    if dot and seq.isdigit():
        return entry_id, int(seq)
    return None


def entry_ids(doc_ids) -> list[str]:
    """The entry (header) ids among a journal collection's document ids."""
    return sorted(doc_id for doc_id in doc_ids if _record_of(doc_id) is None)


class StoreProxy:
    """Base of every transparent store wrapper (journal, fault, retry):
    what a proxy does not override is its ``_inner`` store's."""

    def __init__(self, inner) -> None:
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def __len__(self) -> int:
        return len(self._inner)


def innermost(store):
    """Unwrap a proxy chain (``_inner`` convention) down to the real store."""
    while hasattr(store, "_inner"):
        store = store._inner
    return store


def splice_bottom(store, wrap):
    """Wrap the real store at the bottom of a proxy chain; returns the top."""
    if not hasattr(store, "_inner"):
        return wrap(store)
    store._inner = splice_bottom(store._inner, wrap)
    return store


class WriterProxy(WriterContext):
    """Base of the artifact-writer wrappers; ``_closed`` is the inner
    writer's, so a proxy above sees whether a with-block exit must close."""

    def __init__(self, writer) -> None:
        self._writer = writer

    @property
    def _closed(self) -> bool:
        return self._writer._closed

    def abort(self) -> None:
        self._writer.abort()


@dataclass
class RecoveryReport:
    """What :meth:`SaveJournal.recover` found and repaired at open time."""

    #: One summary dict per torn save rolled back: ``txn``, ``kind``,
    #: ``approach``, ``set_id``, ``artifacts_removed``,
    #: ``documents_restored``.
    rolled_back: list[dict] = field(default_factory=list)
    #: Entry ids whose deferred deletes were re-applied (crash mid-commit).
    redone: list[str] = field(default_factory=list)
    #: Orphaned artifacts reclaimed across all rolled-back entries.
    artifacts_removed: list[str] = field(default_factory=list)
    #: Documents restored to their pre-transaction contents.
    documents_restored: int = 0

    @property
    def clean(self) -> bool:
        """True when the archive needed no repair."""
        return not (self.rolled_back or self.redone)


class SaveTransaction:
    """One open journal entry; used as a context manager around a save.

    Exits commit on success and roll back on failure — except for
    :class:`~repro.errors.SimulatedCrashError`, which unwinds **without**
    touching the stores: the entry stays durable and cleanup happens at
    the next open, exactly as after a real process kill.
    """

    def __init__(self, journal: "SaveJournal", txn_id: str, header: dict) -> None:
        self._journal = journal
        self.txn_id = txn_id
        self._header = header
        #: Undo records logged so far, kept for in-process rollback.
        self.ops: list[dict] = []
        #: Artifacts to delete at commit; durable only once committing.
        self.deletes: list[str] = []
        #: Callbacks run in order once the commit point has passed;
        #: a rollback or a crash drops them (see :meth:`after_commit`).
        self.committed_callbacks: list = []
        self.closed = False

    def _check_open(self) -> None:
        if self.closed:
            raise StorageError(f"transaction {self.txn_id} already closed")

    def record_ids(self) -> list[str]:
        """Document ids of the op records this transaction has logged."""
        return [f"{self.txn_id}.{seq}" for seq in range(len(self.ops))]

    def log_op(self, op: dict) -> None:
        """Durably record one mutation's undo info *before* it applies."""
        self._check_open()
        seq = len(self.ops)
        self.ops.append(op)
        self._journal._write(f"{self.txn_id}.{seq}", op)

    def defer_delete(self, artifact_id: str) -> None:
        """Schedule a physical artifact delete for commit time.

        Nothing durable: a ``pending`` entry's deletes never ran, so
        recovery never needs them.
        """
        self._check_open()
        self.deletes.append(artifact_id)

    def after_commit(self, callback) -> None:
        """Run ``callback()`` once this transaction has committed.

        Nothing durable: a rollback or a crash discards it with the
        transaction, so work held here happens only for committed state.
        """
        self._check_open()
        self.committed_callbacks.append(callback)

    def __enter__(self) -> "SaveTransaction":
        return self

    def __exit__(self, exc_type, _exc, _tb) -> bool:
        if self.closed:
            return False
        if exc_type is None:
            self._journal.commit(self)
        elif issubclass(exc_type, SimulatedCrashError):
            # Process "died": no in-process cleanup, entry stays on disk.
            self._journal.detach(self)
        else:
            self._journal.rollback(self)
        return False


class _NestedTransaction:
    """No-op context returned for a begin() inside an open transaction.

    The inner scope joins the outer transaction: its mutations are logged
    against the outer entry and commit/rollback happen at the outer exit.
    """

    def __enter__(self) -> "_NestedTransaction":
        return self

    def __exit__(self, _exc_type, _exc, _tb) -> bool:
        return False


class SaveJournal:
    """Single-writer write-ahead journal over one (file, document) store pair."""

    def __init__(self, file_store, document_store) -> None:
        # Journal records must bypass fault/retry wrappers: a save's
        # durability bookkeeping cannot itself be torn by the harness.
        self._file_store = innermost(file_store)
        self._document_store = innermost(document_store)
        self._txn: SaveTransaction | None = None
        #: Called after any rollback (in-process or at recover), so the
        #: owner can drop caches rebuilt from store state (chunk index).
        self.on_rollback = None
        highest = -1
        for doc_id in self._document_store.collection_ids(JOURNAL_COLLECTION):
            # Record ids count too: an orphan's txn id is never reused.
            entry_id = doc_id.partition(".")[0]
            if entry_id.startswith("txn-"):
                try:
                    highest = max(highest, int(entry_id[4:]))
                except ValueError:
                    pass
        self._counter = itertools.count(highest + 1)

    # -- transaction lifecycle ---------------------------------------------
    def active_txn(self) -> SaveTransaction | None:
        return self._txn

    def begin(self, kind: str = "save", approach: str | None = None):
        """Open a transaction; nested begins join the outer transaction."""
        if self._txn is not None:
            return _NestedTransaction()
        txn_id = f"txn-{next(self._counter):06d}"
        txn = SaveTransaction(
            self, txn_id, {"status": "pending", "kind": kind, "approach": approach}
        )
        self._write(txn_id, txn._header)
        self._txn = txn
        return txn

    def commit(self, txn: SaveTransaction) -> None:
        """Apply deferred deletes, retire the entry, then run the
        transaction's :meth:`~SaveTransaction.after_commit` callbacks."""
        if txn.deletes:
            self._write(
                txn.txn_id,
                {**txn._header, "status": "committing", "deletes": txn.deletes},
            )
            self._apply_deletes(txn.deletes)
        self._retire(txn.txn_id, txn.record_ids())
        txn.closed = True
        self._txn = None
        for callback in txn.committed_callbacks:
            callback()

    def rollback(self, txn: SaveTransaction) -> tuple[list[str], int]:
        """Undo every logged operation in reverse; deferred deletes never ran."""
        removed, restored = self._undo(txn.ops)
        self._retire(txn.txn_id, txn.record_ids())
        txn.closed = True
        self._txn = None
        if self.on_rollback is not None:
            self.on_rollback()
        return removed, restored

    def detach(self, txn: SaveTransaction) -> None:
        """Abandon a transaction in-process (simulated crash): no cleanup."""
        txn.closed = True
        self._txn = None

    # -- crash recovery ----------------------------------------------------
    def recover(self) -> RecoveryReport:
        """Repair every entry a dead process left behind (run at open)."""
        report = RecoveryReport()
        documents = dict(self._document_store.peek_collection(JOURNAL_COLLECTION))
        records: dict[str, list[tuple[int, str]]] = {}
        for doc_id in documents:
            record = _record_of(doc_id)
            if record is not None:
                records.setdefault(record[0], []).append((record[1], doc_id))
        for entry_id in reversed(entry_ids(documents)):
            entry = documents[entry_id]
            record_ids = [doc_id for _seq, doc_id in sorted(records.pop(entry_id, []))]
            status = entry.get("status")
            if status == "committing":
                # All mutations applied; only the deferred deletes may be
                # partial.  Re-applying them is idempotent.
                self._apply_deletes(entry.get("deletes", []))
                report.redone.append(entry_id)
            elif status == "pending":
                # An entry written before records existed carries its ops
                # inline; either way they are undone newest first.
                ops = entry.get("ops", []) + [documents[r] for r in record_ids]
                removed, restored = self._undo(ops)
                report.artifacts_removed.extend(removed)
                report.documents_restored += restored
                report.rolled_back.append(
                    {
                        "txn": entry_id,
                        "kind": entry.get("kind"),
                        "approach": entry.get("approach"),
                        "set_id": _created_set(ops),
                        "artifacts_removed": removed,
                        "documents_restored": restored,
                    }
                )
            self._retire(entry_id, record_ids)
        # Records without a header: residue of a commit that happened.
        for orphans in records.values():
            for _seq, doc_id in orphans:
                self._document_store._delete_raw(JOURNAL_COLLECTION, doc_id)
        if not report.clean and self.on_rollback is not None:
            self.on_rollback()
        return report

    def pending_entries(self) -> list[str]:
        """Ids of unretired journal entries (normally empty)."""
        return entry_ids(self._document_store.collection_ids(JOURNAL_COLLECTION))

    # -- internals ---------------------------------------------------------
    def _write(self, doc_id: str, document: dict) -> None:
        self._document_store._write_raw(JOURNAL_COLLECTION, doc_id, document)

    def _retire(self, entry_id: str, record_ids: list[str]) -> None:
        """Delete the header first — the commit point — then its records.

        The other order could leave a ``pending`` header over a partial op
        list after a crash, and recovery would roll back a committed save.
        """
        self._document_store._delete_raw(JOURNAL_COLLECTION, entry_id)
        for record_id in record_ids:
            self._document_store._delete_raw(JOURNAL_COLLECTION, record_id)

    def _apply_deletes(self, artifact_ids: list[str]) -> None:
        for artifact_id in artifact_ids:
            if self._file_store.exists(artifact_id):
                self._file_store.delete(artifact_id)

    def _undo(self, ops: list[dict]) -> tuple[list[str], int]:
        artifacts_removed: list[str] = []
        documents_restored = 0
        for op in reversed(ops):
            kind = op["op"]
            if kind == "put_artifact":
                artifact_id = op["artifact_id"]
                # Absent means the crash hit before the write applied.
                if self._file_store.exists(artifact_id):
                    self._file_store.delete(artifact_id)
                    artifacts_removed.append(artifact_id)
            elif kind == "insert_doc":
                self._document_store._delete_raw(op["collection"], op["doc_id"])
            elif kind in ("replace_doc", "delete_doc"):
                self._document_store._write_raw(
                    op["collection"], op["doc_id"], op["prior"]
                )
                documents_restored += 1
        return artifacts_removed, documents_restored


def _created_set(ops: list[dict]) -> str | None:
    """The set id a transaction created: its first descriptor insert."""
    for op in ops:
        if op["op"] == "insert_doc" and op["collection"] == _SETS_COLLECTION:
            return op["doc_id"]
    return None


class _JournaledProxy(StoreProxy):
    """A store proxy that logs into its journal's open transaction."""

    def __init__(self, inner, journal: SaveJournal) -> None:
        super().__init__(inner)
        self._journal = journal


class JournaledFileStore(_JournaledProxy):
    """File-store proxy logging put intents and deferring deletes."""

    def put(
        self,
        data: bytes,
        artifact_id: str,
        category: str = "binary",
        workers: int = 1,
        digest: str | None = None,
    ) -> str:
        txn = self._journal.active_txn()
        if txn is not None:
            # Refuse a bad name before the intent is logged, like the
            # document proxy does.
            check_artifact_id(artifact_id)
            # Only log ids this put will create: a pre-existing id is
            # about to raise DuplicateArtifactError, and must not be
            # undone by rollback.
            if not self._inner.exists(artifact_id):
                txn.log_op({"op": "put_artifact", "artifact_id": artifact_id})
        return self._inner.put(
            data,
            artifact_id=artifact_id,
            category=category,
            workers=workers,
            digest=digest,
        )

    def open_writer(
        self,
        artifact_id: str,
        category: str = "binary",
        workers: int = 1,
    ):
        txn = self._journal.active_txn()
        if txn is not None and not self._inner.exists(artifact_id):
            check_artifact_id(artifact_id)
            # Logged at open: until close only a temp file exists, so the
            # undo (delete-if-present) is correct at every crash point.
            txn.log_op({"op": "put_artifact", "artifact_id": artifact_id})
        # (An id that exists gets the inner store's DuplicateArtifactError.)
        return self._inner.open_writer(artifact_id, category=category, workers=workers)

    def delete(self, artifact_id: str) -> None:
        txn = self._journal.active_txn()
        if txn is None:
            return self._inner.delete(artifact_id)
        if not self._inner.exists(artifact_id):
            raise ArtifactNotFoundError(f"no artifact {artifact_id!r}")
        # Deferred to commit: rollback must be able to keep the bytes, and
        # bytes are far too large to stage in the journal entry.
        txn.defer_delete(artifact_id)


class JournaledDocumentStore(_JournaledProxy):
    """Document-store proxy logging insert/replace/delete undo info."""

    def insert(
        self,
        collection: str,
        document: dict,
        doc_id: str | None = None,
        category: str = "metadata",
    ) -> str:
        txn = self._journal.active_txn()
        if txn is None:
            return self._inner.insert(
                collection, document, doc_id=doc_id, category=category
            )
        # Refuse a bad name before the intent is logged: the undo of an
        # insert is a raw delete, which refuses the same names.
        check_document_key(collection, doc_id)
        if doc_id is None:
            # Pre-draw the auto id from the inner counter so the intent
            # can be logged write-ahead; the inner insert then stores
            # under exactly this id.
            doc_id = f"doc-{next(self._inner._id_counter):08d}"
        txn.log_op({"op": "insert_doc", "collection": collection, "doc_id": doc_id})
        return self._inner.insert(
            collection, document, doc_id=doc_id, category=category
        )

    def replace(self, collection: str, doc_id: str, document: dict) -> None:
        txn = self._journal.active_txn()
        if txn is None:
            return self._inner.replace(collection, doc_id, document)
        prior = self._inner._read_raw(collection, doc_id)
        if prior is None:
            # Let the inner store raise its DocumentNotFoundError.
            return self._inner.replace(collection, doc_id, document)
        txn.log_op(
            {
                "op": "replace_doc",
                "collection": collection,
                "doc_id": doc_id,
                "prior": prior,
            }
        )
        return self._inner.replace(collection, doc_id, document)

    def delete(self, collection: str, doc_id: str) -> None:
        txn = self._journal.active_txn()
        if txn is None:
            return self._inner.delete(collection, doc_id)
        prior = self._inner._read_raw(collection, doc_id)
        if prior is None:
            return self._inner.delete(collection, doc_id)
        txn.log_op(
            {
                "op": "delete_doc",
                "collection": collection,
                "doc_id": doc_id,
                "prior": prior,
            }
        )
        return self._inner.delete(collection, doc_id)


def open_journal(file_store, document_store):
    """Journal a store pair: build the :class:`SaveJournal`, run crash
    recovery before anyone reads the pair, wrap both stores in journaled
    proxies (composing with any fault/retry wrappers already present).

    Returns ``(journal, file proxy, document proxy, recovery report)``.
    """
    journal = SaveJournal(file_store, document_store)
    report = journal.recover()
    return (
        journal,
        JournaledFileStore(file_store, journal),
        JournaledDocumentStore(document_store, journal),
        report,
    )


def attach_journal(context) -> SaveJournal:
    """Wire a :class:`SaveJournal` into a save context's store pair.

    Idempotent.  The context's stores become :func:`open_journal`'s
    proxies, what crash recovery repaired lands on
    ``context.recovery_report``, the chunk index cache is invalidated now
    and on every rollback, and the journal is exposed as
    ``context.journal`` for ``SaveContext.save_transaction``.
    """
    if getattr(context, "journal", None) is not None:
        return context.journal
    journal, context.file_store, context.document_store, context.recovery_report = open_journal(
        context.file_store, context.document_store
    )
    journal.on_rollback = context._invalidate_chunk_store
    context._invalidate_chunk_store()
    context.journal = journal
    return journal
