"""JSON document store (the metadata store of the paper's approaches).

Models a MongoDB-style service: named collections of JSON documents, each
insert/fetch being one round trip.  Document size is measured as the
compact-JSON encoding, which is what the storage-consumption metric counts
for metadata.

MMlib-base performs one insert per model; the set-oriented approaches
perform O(1) inserts per set — the operation counters make that O3
(write-overhead) difference directly observable.
"""

from __future__ import annotations

import itertools
import json
from typing import Any

from repro.errors import DocumentNotFoundError, StorageError
from repro.storage.hardware import LOCAL_PROFILE, HardwareProfile
from repro.storage.stats import StorageStats

JsonDocument = dict[str, Any]


def encode_document(document: JsonDocument) -> tuple[str, int]:
    """Compact-JSON text of ``document`` and its UTF-8 byte size.

    A charged read encodes once: the size is what the read is charged,
    ``json.loads`` of the text is the caller's private copy.
    """
    encoded = json.dumps(document, separators=(",", ":"))
    return encoded, len(encoded.encode("utf-8"))


def document_num_bytes(document: JsonDocument) -> int:
    """Compact-JSON byte size of ``document`` (UTF-8)."""
    return encode_document(document)[1]


def unsafe_name(name: str) -> bool:
    """Whether ``name`` breaks the naming rule of both planes (document
    keys, artifact ids): to be a file in a store's directory a name is
    non-empty, has no ``/`` or ``\\`` and no leading ``.``; ``:`` is legal."""
    return not name or name[0] == "." or "/" in name or "\\" in name


def check_document_key(collection: str, doc_id: str | None = None) -> None:
    """Refuse a collection or document id that cannot name a file.

    Durable stores lay documents out as ``<collection>/<doc_id>.json`` and
    some ids (registry family and tag names) come from callers, so every
    write entry point of every document store checks both names *before*
    anything is mutated or charged — in memory too, so all archives refuse
    the same names (:func:`unsafe_name`).  ``doc_id=None``: the store draws
    the id.
    """
    for name in (collection,) if doc_id is None else (collection, doc_id):
        if unsafe_name(name):
            raise StorageError(
                f"invalid document key {collection!r}/{doc_id!r}: a collection "
                "or document id must be non-empty, without '/' or '\\' and "
                "without a leading '.'"
            )


def auto_id_counter(doc_ids=()) -> "itertools.count[int]":
    """Counter behind the ``doc-<n>`` auto ids, resuming past ``doc_ids``."""
    highest = -1
    for doc_id in doc_ids:
        if doc_id.startswith("doc-"):
            try:
                highest = max(highest, int(doc_id[4:]))
            except ValueError:
                pass
    return itertools.count(highest + 1)


class DocumentStore:
    """Collection-based JSON document store with byte/op accounting."""

    def __init__(self, profile: HardwareProfile = LOCAL_PROFILE) -> None:
        self.profile = profile
        self.stats = StorageStats(origin="doc")
        self._collections: dict[str, dict[str, JsonDocument]] = {}
        #: (collection, doc_id) -> category charged at insert time, so a
        #: delete returns the bytes to the right breakdown bucket.
        self._categories: dict[tuple[str, str], str] = {}
        self._id_counter = auto_id_counter()

    # -- write -----------------------------------------------------------
    def insert(
        self,
        collection: str,
        document: JsonDocument,
        doc_id: str | None = None,
        category: str = "metadata",
    ) -> str:
        """Insert ``document`` and return its id.

        The document is deep-copied via JSON round trip, both to enforce
        JSON-serializability and to decouple the store from caller-held
        references (as a real remote store would).
        """
        check_document_key(collection, doc_id)
        encoded = json.dumps(document, separators=(",", ":"))
        if doc_id is None:
            doc_id = f"doc-{next(self._id_counter):08d}"
        self._collections.setdefault(collection, {})[doc_id] = json.loads(encoded)
        self._categories[(collection, doc_id)] = category
        num_bytes = len(encoded.encode("utf-8"))
        self.stats.record_write(
            num_bytes, self.profile.doc_write_cost(num_bytes), category
        )
        self._persist(collection, doc_id)
        return doc_id

    def _persist(self, collection: str, doc_id: str) -> None:
        """Hook run after every mutation of one document (in memory: nothing).

        Durable stores write the document's *current* state through here —
        its file, or no file once it is gone.
        """

    # -- read ------------------------------------------------------------
    def get(self, collection: str, doc_id: str) -> JsonDocument:
        """Fetch one document; raises :class:`DocumentNotFoundError`."""
        try:
            document = self._collections[collection][doc_id]
        except KeyError:
            raise DocumentNotFoundError(
                f"no document {doc_id!r} in collection {collection!r}"
            ) from None
        encoded, num_bytes = encode_document(document)
        self.stats.record_read(num_bytes, self.profile.doc_read_cost(num_bytes))
        return json.loads(encoded)

    def find(
        self, collection: str, **equals: Any
    ) -> list[tuple[str, JsonDocument]]:
        """Scan a collection for documents whose top-level fields match.

        Equality filters only (``find("model_sets", type="update")``).
        Matching documents are charged as reads, mirroring a real query
        that returns them; the scan itself is server-side.
        """
        matches: list[tuple[str, JsonDocument]] = []
        for doc_id, document in self._collections.get(collection, {}).items():
            if all(document.get(key) == value for key, value in equals.items()):
                encoded, num_bytes = encode_document(document)
                self.stats.record_read(
                    num_bytes, self.profile.doc_read_cost(num_bytes)
                )
                matches.append((doc_id, json.loads(encoded)))
        return matches

    # -- management plane (not charged) --------------------------------------
    def _write_raw(self, collection: str, doc_id: str, document: JsonDocument) -> None:
        """Write a document without charging the latency model.

        Used by the save journal for its begin/commit records and by
        crash recovery when restoring a document's prior contents —
        bookkeeping of the durability machinery itself, not archive data.
        """
        check_document_key(collection, doc_id)
        encoded = json.dumps(document, separators=(",", ":"))
        self._collections.setdefault(collection, {})[doc_id] = json.loads(encoded)
        self._persist(collection, doc_id)

    def _delete_raw(self, collection: str, doc_id: str) -> None:
        """Remove a document without charging; missing ids are a no-op."""
        check_document_key(collection, doc_id)
        self._collections.get(collection, {}).pop(doc_id, None)
        self._persist(collection, doc_id)
        self._drop_if_empty(collection)

    def _drop_if_empty(self, collection: str) -> None:
        """Forget a collection once its last document is gone.

        Keeps replicas structurally identical after anti-entropy: a
        reopen from disk never resurrects empty collections, so the
        in-memory view must not retain them either.
        """
        if not self._collections.get(collection):
            self._collections.pop(collection, None)

    def _read_raw(self, collection: str, doc_id: str) -> JsonDocument | None:
        """Fetch a document copy without charging; ``None`` when missing."""
        document = self._collections.get(collection, {}).get(doc_id)
        if document is None:
            return None
        return json.loads(json.dumps(document))

    def delete(self, collection: str, doc_id: str) -> None:
        """Remove a document (used by garbage collection).

        Uncharged, but the document's bytes are returned to their
        ``bytes_by_category`` bucket (see
        :meth:`~repro.storage.stats.StorageStats.record_delete`).
        """
        check_document_key(collection, doc_id)
        try:
            document = self._collections[collection][doc_id]
        except KeyError:
            raise DocumentNotFoundError(
                f"no document {doc_id!r} in collection {collection!r}"
            ) from None
        num_bytes = document_num_bytes(document)
        del self._collections[collection][doc_id]
        self._drop_if_empty(collection)
        self.stats.record_delete(
            num_bytes, self._categories.pop((collection, doc_id), "metadata")
        )
        self._persist(collection, doc_id)

    def replace(self, collection: str, doc_id: str, document: JsonDocument) -> None:
        """Overwrite an existing document in place (charged as a write).

        Used by compaction, which rewrites a delta/provenance set
        descriptor as a full snapshot.
        """
        check_document_key(collection, doc_id)
        if doc_id not in self._collections.get(collection, {}):
            raise DocumentNotFoundError(
                f"no document {doc_id!r} in collection {collection!r}"
            )
        # The overwritten document's bytes leave the store: return them
        # to their category so the breakdown tracks what is stored now.
        old_bytes = document_num_bytes(self._collections[collection][doc_id])
        old_category = self._categories.get((collection, doc_id), "metadata")
        encoded = json.dumps(document, separators=(",", ":"))
        self._collections[collection][doc_id] = json.loads(encoded)
        self._categories[(collection, doc_id)] = "metadata"
        num_bytes = len(encoded.encode("utf-8"))
        self.stats.record_delete(old_bytes, old_category, count_op=False)
        self.stats.record_write(
            num_bytes, self.profile.doc_write_cost(num_bytes), "metadata"
        )
        self._persist(collection, doc_id)

    # -- inspection (management plane, not charged) -----------------------
    def peek(self, collection: str, doc_id: str) -> JsonDocument | None:
        """The stored document itself, uncharged; ``None`` when missing.

        **Read-only**: no copy is made, so mutating the result corrupts
        the store.  Use :meth:`get` for a charged private copy.
        """
        return self._collections.get(collection, {}).get(doc_id)

    def peek_collection(self, collection: str) -> dict[str, JsonDocument]:
        """``{doc_id: document}`` of one collection, under :meth:`peek`'s
        read-only contract (empty when the collection does not exist)."""
        return self._collections.get(collection, {})

    def exists(self, collection: str, doc_id: str) -> bool:
        return doc_id in self._collections.get(collection, {})

    def collection_ids(self, collection: str) -> list[str]:
        return sorted(self._collections.get(collection, {}))

    def collections(self) -> list[str]:
        return sorted(self._collections)

    def count(self, collection: str) -> int:
        return len(self._collections.get(collection, {}))

    def total_bytes(self) -> int:
        """Compact-JSON bytes of all documents currently stored."""
        return sum(
            document_num_bytes(doc)
            for collection in self._collections.values()
            for doc in collection.values()
        )
