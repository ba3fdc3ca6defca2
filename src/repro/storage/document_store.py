"""JSON document store (the metadata store of the paper's approaches).

Models a MongoDB-style service: named collections of JSON documents, each
insert/fetch being one round trip.  Document size is measured as the
compact-JSON encoding, which is what the storage-consumption metric counts
for metadata.  A store remembers that size from the one encoding each
write does, and holds the document as a read-only tree built at that
write, so a charged read neither encodes nor copies (DESIGN.md §13).

MMlib-base performs one insert per model; the set-oriented approaches
perform O(1) inserts per set — the operation counters make that O3
(write-overhead) difference directly observable.
"""

from __future__ import annotations

import itertools
import json
from itertools import chain
from typing import Any, Callable, TypeVar

from repro.errors import DocumentNotFoundError, StorageError
from repro.storage.hardware import LOCAL_PROFILE, HardwareProfile
from repro.storage.stats import StorageStats

JsonDocument = dict[str, Any]
T = TypeVar("T")


def compact_json(document: JsonDocument) -> str:
    """The compact-JSON text of ``document``: what a durable store writes
    and what a document's size counts.  ``json.dumps`` escapes every
    non-ASCII character, so the text's length is its UTF-8 byte size."""
    return json.dumps(document, separators=(",", ":"))


def document_num_bytes(document: JsonDocument) -> int:
    """Compact-JSON byte size of ``document`` (UTF-8)."""
    return len(compact_json(document))


def _read_only(self, *_args, **_kwargs):
    raise TypeError(
        "a stored document is read-only: thaw() it for an editable copy"
    )


class FrozenDict(dict):
    """A held document's objects: a ``dict`` whose mutators raise.

    It compares equal to, and encodes like, the plain dict it spells.
    """

    __slots__ = ("_derived",)
    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return type(self), (dict(self),)

    def derive(self, build: Callable[["FrozenDict"], T]) -> T:
        """``build(self)``, computed once and kept with this object.

        A held document never changes — a replace holds a new object —
        so nothing derived from it goes stale.  Threads racing on the
        first call may each build; they build equal values.
        """
        try:
            derived = self._derived
        except AttributeError:
            derived = self._derived = {}
        try:
            return derived[build]
        except KeyError:
            value = derived[build] = build(self)
            return value

    def derived(self, build: Callable[["FrozenDict"], T]) -> "T | None":
        """What :meth:`derive` keeps for ``build``; ``None`` until its
        first call (a cold memo)."""
        try:
            return self._derived.get(build)
        except AttributeError:
            return None


class FrozenList(list):
    """A held document's arrays: a ``list`` whose mutators raise."""

    __slots__ = ()
    __setitem__ = __delitem__ = __iadd__ = __imul__ = _read_only
    append = extend = insert = pop = remove = reverse = sort = clear = _read_only

    def __reduce__(self):
        return type(self), (list(self),)


def _frozen_list(items: list) -> FrozenList:
    # A row of scalars (a diff entry's layers) is wrapped whole, and a
    # matrix of them (the hash rows) with no Python call per row; only
    # a row holding arrays among other values is walked.  Objects are
    # frozen already: the decoder builds them inside out.
    kinds = set(map(type, items))
    if list in kinds:
        if kinds == {list} and list not in set(map(type, chain.from_iterable(items))):
            return FrozenList(map(FrozenList, items))
        items = [_frozen_list(item) if type(item) is list else item for item in items]
    return FrozenList(items)


def _frozen_object(decoded: dict) -> FrozenDict:
    if list in set(map(type, decoded.values())):
        decoded.update(
            {key: _frozen_list(value) for key, value in decoded.items() if type(value) is list}
        )
    return FrozenDict(decoded)


def load_frozen(encoded: str) -> JsonDocument:
    """The read-only tree the compact JSON ``encoded`` spells.

    What every store holds and every read returns (DESIGN.md §13): built
    once, when the document is written or loaded, and never copied.
    """
    # Text with no "[" spells no array: every object is frozen as decoded.
    hook = _frozen_object if "[" in encoded else FrozenDict
    return json.loads(encoded, object_hook=hook)


def thaw(document: Any) -> Any:
    """A caller's editable deep copy of a read-only document (or any
    value in one): plain dicts and lists throughout."""
    if isinstance(document, dict):
        return {key: thaw(value) for key, value in document.items()}
    if isinstance(document, list):
        return [thaw(item) for item in document]
    return document


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
        #: (collection, doc_id) -> compact-JSON byte size, from the
        #: encoding that stored the document: what a read is charged.
        self._sizes: dict[tuple[str, str], int] = {}
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
        encoded = compact_json(document)
        if doc_id is None:
            doc_id = f"doc-{next(self._id_counter):08d}"
        num_bytes = self._hold(collection, doc_id, encoded)
        self._categories[(collection, doc_id)] = category
        self.stats.record_write(
            num_bytes, self.profile.doc_write_cost(num_bytes), category
        )
        self._persist(collection, doc_id, encoded)
        return doc_id

    def _hold(self, collection: str, doc_id: str, encoded: str) -> int:
        """Keep the document ``encoded`` spells, and its size; returns it.

        Decoding the text decouples the store from the caller's
        references and normalises the tree to JSON; the tree is built
        read-only (:func:`load_frozen`), so every read can return it.
        """
        self._collections.setdefault(collection, {})[doc_id] = load_frozen(encoded)
        self._sizes[(collection, doc_id)] = num_bytes = len(encoded)
        return num_bytes

    def _persist(self, collection: str, doc_id: str, encoded: "str | None") -> None:
        """Hook run after every mutation of one document (in memory: nothing).

        Durable stores write the document's *current* state through here:
        ``encoded``, the compact JSON the mutation stored — or ``None``
        once the document is gone.
        """

    # -- read ------------------------------------------------------------
    def get(self, collection: str, doc_id: str) -> JsonDocument:
        """Fetch one document, read-only (see :meth:`peek`); raises
        :class:`DocumentNotFoundError`."""
        try:
            document = self._collections[collection][doc_id]
        except KeyError:
            raise DocumentNotFoundError(
                f"no document {doc_id!r} in collection {collection!r}"
            ) from None
        return self._charged_read(collection, doc_id, document)

    def _charged_read(
        self, collection: str, doc_id: str, document: JsonDocument
    ) -> JsonDocument:
        """One charged read: the remembered size; the held document."""
        num_bytes = self._sizes[(collection, doc_id)]
        self.stats.record_read(num_bytes, self.profile.doc_read_cost(num_bytes))
        return document

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
                matches.append(
                    (doc_id, self._charged_read(collection, doc_id, document))
                )
        return matches

    # -- management plane (not charged) --------------------------------------
    def _write_raw(self, collection: str, doc_id: str, document: JsonDocument) -> None:
        """Write a document without charging the latency model.

        Used by the save journal for its begin/commit records and by
        crash recovery when restoring a document's prior contents —
        bookkeeping of the durability machinery itself, not archive data.
        """
        check_document_key(collection, doc_id)
        encoded = compact_json(document)
        self._hold(collection, doc_id, encoded)
        self._persist(collection, doc_id, encoded)

    def _delete_raw(self, collection: str, doc_id: str) -> None:
        """Remove a document without charging; missing ids are a no-op."""
        check_document_key(collection, doc_id)
        self._collections.get(collection, {}).pop(doc_id, None)
        self._sizes.pop((collection, doc_id), None)
        self._persist(collection, doc_id, None)
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
        """:meth:`peek` under the raw plane's name (the journal and the
        registry read through it)."""
        return self.peek(collection, doc_id)

    def delete(self, collection: str, doc_id: str) -> None:
        """Remove a document (used by garbage collection).

        Uncharged, but the document's bytes are returned to their
        ``bytes_by_category`` bucket (see
        :meth:`~repro.storage.stats.StorageStats.record_delete`).
        """
        check_document_key(collection, doc_id)
        if doc_id not in self._collections.get(collection, {}):
            raise DocumentNotFoundError(
                f"no document {doc_id!r} in collection {collection!r}"
            )
        del self._collections[collection][doc_id]
        self._drop_if_empty(collection)
        self.stats.record_delete(
            self._sizes.pop((collection, doc_id)),
            self._categories.pop((collection, doc_id), None),
        )
        self._persist(collection, doc_id, None)

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
        old_bytes = self._sizes[(collection, doc_id)]
        old_category = self._categories.get((collection, doc_id))
        encoded = compact_json(document)
        num_bytes = self._hold(collection, doc_id, encoded)
        self._categories[(collection, doc_id)] = "metadata"
        self.stats.record_delete(old_bytes, old_category, count_op=False)
        self.stats.record_write(
            num_bytes, self.profile.doc_write_cost(num_bytes), "metadata"
        )
        self._persist(collection, doc_id, encoded)

    # -- inspection (management plane, not charged) -----------------------
    def peek(self, collection: str, doc_id: str) -> JsonDocument | None:
        """The stored document itself, uncharged; ``None`` when missing.

        Read-only, like every read (its mutators raise; :func:`thaw` is
        the editable copy): it differs from :meth:`get` only by the charge.
        """
        return self._collections.get(collection, {}).get(doc_id)

    def peek_collection(self, collection: str) -> dict[str, JsonDocument]:
        """``{doc_id: document}`` of one collection, under :meth:`peek`'s
        read-only contract (empty when the collection does not exist)."""
        return self._collections.get(collection, {})

    def stored_size(self, collection: str, doc_id: str) -> int | None:
        """The size a read of the document is charged (its compact-JSON
        bytes), uncharged; ``None`` when missing."""
        return self._sizes.get((collection, doc_id))

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
        return sum(self._sizes.values())
