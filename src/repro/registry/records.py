"""Registry record plumbing: collections and journaled raw writes.

The registry is management-plane bookkeeping, exactly like the save
journal: its documents are written through the stores' uncharged
``_write_raw``/``_delete_raw`` paths so attaching a registry changes no
approach's benchmark accounting.  Unlike plain raw writes, every record
mutation logs its undo information into the *active journal transaction
first* — so a registry record made inside a save transaction commits or
rolls back atomically with the save itself, and a crash mid-record is
repaired by the same :meth:`~repro.storage.journal.SaveJournal.recover`
pass that repairs torn saves.
"""

from __future__ import annotations

from repro.storage.document_store import check_document_key

#: Directory name of the fleet-level registry subtree under a fleet root
#: (outside every shard, like ``deadletter/``).
REGISTRY_DIR = "registry"

#: One document per model family: ``{"root_set": <first recorded id>}``.
FAMILIES_COLLECTION = "registry_families"
#: One document per registered set, keyed by set id: family membership,
#: version number, derivation edge, and (on fleets) shard placement.
VERSIONS_COLLECTION = "registry_versions"
#: One document per ``family:tag`` pair: ``{"family", "tag", "set_id"}``.
TAGS_COLLECTION = "registry_tags"

#: All collections owned by the registry (rebuild clears exactly these).
REGISTRY_COLLECTIONS = (
    FAMILIES_COLLECTION,
    VERSIONS_COLLECTION,
    TAGS_COLLECTION,
)

#: Mirrors :data:`repro.core.approach.SETS_COLLECTION`.  Not imported:
#: the core package builds registries, not the other way around (same
#: convention as :mod:`repro.storage.journal`).
SETS_COLLECTION = "model_sets"


def journaled_write(store, journal, collection: str, doc_id: str, document: dict):
    """Raw-write one registry document, undo-logged against any open txn.

    Inside a save transaction the op joins the save's journal entry;
    standalone callers open their own transaction around this.  With no
    journal (in-memory contexts) the write is plain raw.  A name the
    stores refuse (family and tag names come from callers) is refused
    here first, before an undo op that could not be replayed is logged.
    """
    check_document_key(collection, doc_id)
    txn = journal.active_txn() if journal is not None else None
    if txn is not None:
        prior = store._read_raw(collection, doc_id)
        if prior is None:
            txn.log_op(
                {"op": "insert_doc", "collection": collection, "doc_id": doc_id}
            )
        else:
            txn.log_op(
                {
                    "op": "replace_doc",
                    "collection": collection,
                    "doc_id": doc_id,
                    "prior": prior,
                }
            )
    store._write_raw(collection, doc_id, document)


def journaled_delete(store, journal, collection: str, doc_id: str):
    """Raw-delete one registry document, undo-logged against any open txn."""
    check_document_key(collection, doc_id)
    txn = journal.active_txn() if journal is not None else None
    if txn is not None:
        prior = store._read_raw(collection, doc_id)
        if prior is not None:
            txn.log_op(
                {
                    "op": "delete_doc",
                    "collection": collection,
                    "doc_id": doc_id,
                    "prior": prior,
                }
            )
    store._delete_raw(collection, doc_id)
