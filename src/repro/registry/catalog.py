"""The model registry: families, versions, tags, and the derivation DAG.

One queryable source of truth over what an archive (or a whole fleet)
holds.  Every committed save appends one *version record* to a family:

* **family** — a named line of model sets.  Explicit via
  ``SetMetadata(extra={"family": "pack-a"})``; otherwise a derived set
  joins its base's family and an initial set roots a new family named
  after its own set id.
* **version** — 1-based position within the family in set-id order,
  assigned at save time (an archive commits its ids in order).
* **tags** — ``"latest"`` is maintained automatically (always the
  newest surviving version); arbitrary tags are pinned with
  :meth:`Registry.tag` and feed
  ``manager.recover_set(family=..., tag=...)``.

One catalog rule: every save, compaction and deletion records itself
through ``context.registry`` inside its own transaction.  A plain
archive's catalog joins that transaction, so a record commits or rolls
back with the change; a fleet shard's ``context.registry`` is the root
catalog bound to the shard (:meth:`Registry.bind`), which applies the
records when the shard's transaction commits.  The whole catalog is
rebuildable from descriptor documents via :meth:`Registry.rebuild`
(``repro-archive register --rebuild``).

:meth:`Registry.diff` answers "which layers changed between A and B"
from the Update approach's stored per-layer hashes (or a chunked set's
digest matrix) and reads **zero parameter bytes** when both sets carry
hash metadata; sets without it fall back to recover-and-hash.
"""

from __future__ import annotations

import copy
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable

from repro.core.recovery import StoredDigests, changed_rows, stored_digests
from repro.errors import RegistryError, StorageError
from repro.observability import trace as _trace
from repro.registry.records import (
    FAMILIES_COLLECTION,
    REGISTRY_COLLECTIONS,
    REGISTRY_DIR,
    SETS_COLLECTION,
    TAGS_COLLECTION,
    VERSIONS_COLLECTION,
    journaled_delete,
    journaled_write,
)
from repro.storage.journal import innermost, open_journal
from repro.storage.persistent import open_stores

#: The automatically maintained tag: always the newest surviving version.
LATEST_TAG = "latest"


@dataclass(frozen=True)
class VersionRecord:
    """One registered set: family membership plus descriptor summary."""

    set_id: str
    family: str
    version: int
    base_set: "str | None"
    kind: str
    approach: str
    architecture: str
    num_models: int
    #: Owning shard on a fleet registry; ``None`` on plain archives.
    shard: "int | None" = None

    @classmethod
    def from_doc(cls, set_id: str, doc: dict) -> "VersionRecord":
        return cls(
            set_id=set_id,
            family=str(doc["family"]),
            version=int(doc["version"]),
            base_set=doc.get("base_set"),
            kind=str(doc.get("kind", "full")),
            approach=str(doc.get("approach", "")),
            architecture=str(doc.get("architecture", "")),
            num_models=int(doc.get("num_models", 0)),
            shard=doc.get("shard"),
        )

    def to_json(self) -> dict:
        data = {
            "set_id": self.set_id,
            "family": self.family,
            "version": self.version,
            "base_set": self.base_set,
            "kind": self.kind,
            "approach": self.approach,
            "architecture": self.architecture,
            "num_models": self.num_models,
        }
        if self.shard is not None:
            data["shard"] = self.shard
        return data


@dataclass(frozen=True)
class RegistryModelDiff:
    """Per-model slice of a :class:`RegistryDiff`."""

    model_index: int
    changed_layers: tuple[str, ...]


@dataclass(frozen=True)
class RegistryDiff:
    """Layer-level change set between two registered model sets.

    ``source`` records how each side's digest matrix was obtained:
    ``hash-info`` (Update's stored per-layer hashes), ``chunk-digests``
    (a chunked set's descriptor matrix), or ``recovered``
    (recover-and-hash fallback).  The first two read zero parameter
    bytes.
    """

    set_a: str
    set_b: str
    num_models: int
    layers: tuple[str, ...]
    changed: tuple[RegistryModelDiff, ...]
    source: str

    @property
    def changed_models(self) -> tuple[int, ...]:
        return tuple(entry.model_index for entry in self.changed)

    @property
    def identical(self) -> bool:
        return not self.changed

    def to_json(self) -> dict:
        return {
            "set_a": self.set_a,
            "set_b": self.set_b,
            "num_models": self.num_models,
            "layers": list(self.layers),
            "source": self.source,
            "changed": [
                {
                    "model_index": entry.model_index,
                    "changed_layers": list(entry.changed_layers),
                }
                for entry in self.changed
            ],
        }


def _callable(value) -> "Callable[[], Any]":
    if value is None:
        return lambda: None
    if callable(value):
        return value
    return lambda: value


class Registry:
    """Document-store-backed catalog over one archive or a whole fleet.

    Parameters
    ----------
    store:
        The (innermost) document store holding the registry collections.
        Plain archives share their archive's document store; fleets keep
        a dedicated store under ``root/registry/``.
    journal:
        The journal registry mutations log their undo information to —
        a :class:`~repro.storage.journal.SaveJournal` or a zero-argument
        callable returning one (``None`` disables undo logging).  Inside
        a save transaction, records join the save's entry; standalone
        mutations open their own ``registry`` transaction.
    resolver:
        ``resolver(shard)`` returns the :class:`SaveContext` holding a
        record's descriptor and hash documents (``shard`` is ``None`` on
        plain archives).
    metrics:
        A :class:`~repro.observability.metrics.MetricsRegistry` (or
        callable returning one) for the registry counters.

    Thread safety: one reentrant lock, shared with every binding,
    serializes every catalog mutation and query — required on fleets,
    where saves commit concurrently across shards but the journal
    underneath the registry is single-writer.  Lock order: a shard
    commit takes this lock inside the shard's mutex, so nothing holding
    it may take a shard mutex (queries and ``diff`` take none).
    """

    def __init__(self, store, journal=None, resolver=None, metrics=None) -> None:
        self._store = innermost(store)
        self._journal = _callable(journal)
        self._resolver = resolver
        self._metrics = _callable(metrics)
        self._lock = threading.RLock()
        #: The shard whose records this catalog writes (see :meth:`bind`);
        #: ``None`` on plain archives and the fleet's own handle.
        self.shard: "int | None" = None
        #: ``(shard context, applier)`` of a binding; ``None`` records in
        #: place.
        self._binding: "tuple[Any, Registry] | None" = None

    # -- factories ---------------------------------------------------------
    @classmethod
    def for_context(cls, context) -> "Registry":
        """Registry sharing a plain archive's document store and journal.

        The journal is read through the context on every mutation, so a
        journal attached *after* this registry (the open/attach order of
        durable archives and tests) is still honored.
        """
        return cls(
            innermost(context.document_store),
            journal=lambda: context.journal,
            resolver=lambda shard: context,
            metrics=lambda: context.metrics,
        )

    def bind(self, shard: int, context) -> "Registry":
        """This catalog as fleet shard ``shard``'s ``context.registry``.

        The binding shares the catalog's store, journal and lock, and
        supplies ``shard`` to every record.  A record made inside one of
        the shard's transactions is held on it and applied when the
        outermost one commits — dropped with it on rollback or a crash —
        and one made with no transaction open applies at once.  Applying
        is a transaction of the catalog's own journal, after the shard's
        commit: a store failure there is not the shard's, so it is
        counted (``registry_record_failures_total``) and leaves that one
        record missing, as a crash in the same gap does, until the engine
        reopens (:meth:`heal`) or ``register --rebuild``.
        """
        applier = copy.copy(self)
        applier.shard = int(shard)
        bound = copy.copy(applier)
        bound._binding = (context, applier)
        return bound

    def _held(self, name: str, *args) -> bool:
        """Route one record of a binding (:meth:`bind`): hold it on the
        shard's open transaction, or apply it now.  ``False`` when this
        catalog records in place."""
        if self._binding is None:
            return False
        context, applier = self._binding

        def apply() -> None:
            try:
                getattr(applier, name)(*args)
            except (OSError, StorageError):
                applier._inc(
                    "registry_record_failures_total",
                    "catalog records lost to a store failure after their commit",
                )

        journal = context.journal
        txn = journal.active_txn() if journal is not None else None
        if txn is None:
            apply()
        else:
            txn.after_commit(apply)
        return True

    # -- plumbing ----------------------------------------------------------
    @contextmanager
    def _registry_txn(self):
        """A journal transaction for one standalone registry mutation.

        Inside an open save/GC transaction this *joins* it (nested
        begin), making the registry record atomic with the save; with no
        journal the mutation applies unlogged.
        """
        journal = self._journal()
        if journal is None:
            yield
            return
        with journal.begin("registry"):
            yield

    def _write(self, collection: str, doc_id: str, document: dict) -> None:
        journaled_write(self._store, self._journal(), collection, doc_id, document)

    def _delete(self, collection: str, doc_id: str) -> None:
        journaled_delete(self._store, self._journal(), collection, doc_id)

    def _inc(self, name: str, description: str) -> None:
        metrics = self._metrics()
        if metrics is not None:
            metrics.counter(name, description).inc()

    def _context_for(self, shard: "int | None"):
        if self._resolver is None:
            raise RegistryError(
                "this registry has no archive contexts attached; "
                "descriptor-backed operations (record, diff, rebuild "
                "sources) are unavailable"
            )
        return self._resolver(shard)

    @staticmethod
    def _check_name(what: str, name: str) -> str:
        if not name or ":" in name:
            raise RegistryError(
                f"invalid {what} name {name!r}: must be non-empty and "
                "must not contain ':'"
            )
        return name

    def _version_doc(self, set_id: str) -> "dict | None":
        return self._store.peek(VERSIONS_COLLECTION, set_id)

    def _require_version(self, set_id: str) -> dict:
        doc = self._version_doc(set_id)
        if doc is None:
            raise RegistryError(
                f"set {set_id!r} is not in the registry; if it exists in "
                "the archive, run `repro-archive <dir> register --rebuild`"
            )
        return doc

    def _version_docs(self) -> "list[tuple[str, dict]]":
        return sorted(self._store.peek_collection(VERSIONS_COLLECTION).items())

    def _family_docs(self, family: str) -> "list[tuple[str, dict]]":
        return [
            (set_id, doc)
            for set_id, doc in self._version_docs()
            if doc.get("family") == family
        ]

    def _family_tags(self, family: str) -> "list[tuple[str, dict]]":
        return [
            (tag_id, doc)
            for tag_id, doc in sorted(
                self._store.peek_collection(TAGS_COLLECTION).items()
            )
            if tag_id.startswith(f"{family}:")
        ]

    # -- record side (called by the save / retention paths) ----------------
    def record_save(self, set_id: str) -> None:
        """Register one saved set (called inside the save's transaction).

        The manager calls this between the approach's save and the
        commit.  A plain archive's catalog joins that transaction, so the
        record commits or rolls back with the save; a fleet shard's
        binding (:meth:`bind`) holds it for the shard's commit.  A bad
        family name fails the save either way.
        """
        context = self._context_for(self.shard)
        descriptor = innermost(context.document_store).peek(SETS_COLLECTION, set_id)
        if descriptor is None:
            raise RegistryError(
                f"cannot register {set_id!r}: no descriptor document"
            )
        self._explicit_family(descriptor)
        if self._held("record_save", set_id):
            return
        with self._lock:
            with _trace.span("registry-record", kind="registry", set_id=set_id):
                with self._registry_txn():
                    self._record(set_id, descriptor, self.shard)
        self._inc("registry_records_total", "registry version records written")

    def _explicit_family(self, descriptor: dict) -> "str | None":
        """The family a descriptor's metadata names, checked; else ``None``."""
        family = descriptor.get("metadata", {}).get("extra", {}).get("family")
        return None if family is None else self._check_name("family", str(family))

    def _record(self, set_id: str, descriptor: dict, shard: "int | None") -> None:
        existing = self._version_doc(set_id)
        explicit = self._explicit_family(descriptor)
        if existing is not None:
            # Idempotent re-record (rebuild heal, save retry): keep the
            # assigned family/version, refresh the descriptor summary.
            family = str(existing["family"])
            version = int(existing["version"])
        elif explicit is not None:
            family = explicit
        else:
            base = descriptor.get("base_set") or descriptor.get("compacted_from")
            base_doc = self._version_doc(base) if base is not None else None
            family = str(base_doc["family"]) if base_doc is not None else set_id
        if existing is None:
            # Versions follow id order within a family.  A set recorded
            # after a later id of its family (a lost record healed at
            # open, concurrent shards) takes the place of the first later
            # version, and those versions move up one.
            docs = self._family_docs(family)
            later = [(sid, doc) for sid, doc in docs if sid > set_id]
            version = min(
                (int(doc["version"]) for _sid, doc in later),
                default=1 + max((int(doc["version"]) for _sid, doc in docs), default=0),
            )
            for sid, doc in later:
                self._write(
                    VERSIONS_COLLECTION, sid, {**doc, "version": int(doc["version"]) + 1}
                )
        if self._store.peek(FAMILIES_COLLECTION, family) is None:
            self._write(FAMILIES_COLLECTION, family, {"root_set": set_id})
        record: dict = {
            "family": family,
            "version": version,
            "base_set": descriptor.get("base_set"),
            "kind": descriptor.get("kind", "full"),
            "approach": descriptor.get("type"),
            "architecture": descriptor.get("architecture"),
            "num_models": descriptor.get("num_models"),
        }
        if shard is not None:
            record["shard"] = int(shard)
        self._write(VERSIONS_COLLECTION, set_id, record)
        latest = self._store.peek(TAGS_COLLECTION, f"{family}:{LATEST_TAG}")
        latest_doc = (
            self._version_doc(latest["set_id"]) if latest is not None else None
        )
        if latest_doc is None or int(latest_doc["version"]) <= version:
            self._write(
                TAGS_COLLECTION,
                f"{family}:{LATEST_TAG}",
                {"family": family, "tag": LATEST_TAG, "set_id": set_id},
            )

    def record_delete(self, set_id: str) -> None:
        """Unregister a garbage-collected set (inside the GC txn).

        The family's ``latest`` tag retargets to the newest surviving
        version; pinned tags on the deleted set are dropped; a family
        with no surviving versions disappears entirely.  Unregistered
        ids are ignored, so callers can feed every deleted set through.
        """
        if self._held("record_delete", set_id):
            return
        with self._lock:
            with self._registry_txn():
                record = self._version_doc(set_id)
                if record is None:
                    return
                family = str(record["family"])
                self._delete(VERSIONS_COLLECTION, set_id)
                survivors = self._family_docs(family)
                if not survivors:
                    self._delete(FAMILIES_COLLECTION, family)
                    for tag_id, _doc in self._family_tags(family):
                        self._delete(TAGS_COLLECTION, tag_id)
                    self._inc(
                        "registry_deletes_total", "registry version records removed"
                    )
                    return
                newest = max(survivors, key=lambda item: int(item[1]["version"]))[0]
                for tag_id, tag_doc in self._family_tags(family):
                    if tag_doc.get("set_id") != set_id:
                        continue
                    if tag_doc.get("tag") == LATEST_TAG:
                        self._write(
                            TAGS_COLLECTION,
                            tag_id,
                            {"family": family, "tag": LATEST_TAG, "set_id": newest},
                        )
                    else:
                        self._delete(TAGS_COLLECTION, tag_id)
        self._inc("registry_deletes_total", "registry version records removed")

    def record_compact(self, set_id: str) -> None:
        """Reflect an in-place compaction (delta rewritten as full).

        The derivation edge is preserved — compaction keeps ``base_set``
        as ``compacted_from`` history, and the DAG outlives the bytes.
        """
        if self._held("record_compact", set_id):
            return
        with self._lock:
            with self._registry_txn():
                record = self._version_doc(set_id)
                if record is None:
                    return
                updated = dict(record)
                updated["kind"] = "full"
                self._write(VERSIONS_COLLECTION, set_id, updated)

    def rebuild(self, sources) -> int:
        """Drop and re-derive the whole catalog from descriptor documents.

        ``sources`` is an iterable of ``(shard, context)`` pairs
        (``shard=None`` on plain archives).  Set ids are zero-padded
        commit counters, so id order is commit order: replaying
        descriptors in id order reproduces the incremental family and
        version assignment exactly (on archives that were never
        garbage-collected; after GC, versions renumber densely).

        Deliberately **unjournaled**: a catalog-sized transaction would
        rewrite its journal entry per record (quadratic), and rebuild is
        already idempotent — rerunning after an interruption converges
        on the same catalog.  Pinned tags are not derivable from
        descriptors and must be re-created; ``latest`` is restored.

        Returns the number of sets registered.
        """
        with self._lock:
            for collection in REGISTRY_COLLECTIONS:
                for doc_id in list(self._store.collection_ids(collection)):
                    self._store._delete_raw(collection, doc_id)
            descriptors = []
            for shard, context in sources:
                store = innermost(context.document_store)
                for set_id in store.collection_ids(SETS_COLLECTION):
                    descriptors.append(
                        (set_id, store.peek(SETS_COLLECTION, set_id), shard)
                    )
            descriptors.sort(key=lambda item: item[0])
            for set_id, descriptor, shard in descriptors:
                self._record(set_id, descriptor, shard)
        self._inc("registry_rebuilds_total", "registry rebuilds completed")
        return len(descriptors)

    def heal(self, contexts) -> int:
        """Record the committed sets this fleet catalog lacks, in id order.

        ``contexts`` are fleet shard contexts whose ``registry`` is this
        catalog's binding (:meth:`bind`).  A kill between a shard's commit
        and its root record leaves exactly that record missing; the fleet
        engine heals the gap when it opens, as does any later store
        failure that lost a record while the engine kept running.  Each
        missing set is recorded through its shard's binding, so as one
        transaction of this catalog's own journal, and takes its place in
        id order (:meth:`_record`): ``latest`` stays on the newest id and
        pinned tags are left as they are.  A set saved while its base's
        record was missing started a family of its own; only
        ``register --rebuild`` re-derives that.  With nothing missing
        this only lists ids.  Returns the number of sets recorded.
        """
        with self._lock:
            known = set(self._store.collection_ids(VERSIONS_COLLECTION))
        lost = sorted(
            (
                (set_id, context)
                for context in contexts
                for set_id in innermost(context.document_store).collection_ids(
                    SETS_COLLECTION
                )
                if set_id not in known
            ),
            key=lambda item: item[0],
        )
        for set_id, context in lost:
            context.registry.record_save(set_id)
        return len(lost)

    # -- query side --------------------------------------------------------
    def families(self) -> list[str]:
        """All family names, sorted."""
        self._inc("registry_queries_total", "registry queries answered")
        with self._lock:
            return list(self._store.collection_ids(FAMILIES_COLLECTION))

    def versions(self, family: str) -> list[VersionRecord]:
        """A family's version records, oldest first."""
        self._inc("registry_queries_total", "registry queries answered")
        with self._lock:
            if self._store.peek(FAMILIES_COLLECTION, family) is None:
                raise RegistryError(
                    f"unknown family {family!r}; known: {self.families()}"
                )
            docs = self._family_docs(family)
        return sorted(
            (VersionRecord.from_doc(set_id, doc) for set_id, doc in docs),
            key=lambda record: record.version,
        )

    def describe(self, set_id: str) -> VersionRecord:
        """The version record of one registered set."""
        self._inc("registry_queries_total", "registry queries answered")
        with self._lock:
            return VersionRecord.from_doc(set_id, self._require_version(set_id))

    def records(self) -> list[VersionRecord]:
        """Every version record in the catalog, ordered by set id."""
        self._inc("registry_queries_total", "registry queries answered")
        with self._lock:
            docs = self._version_docs()
        return [VersionRecord.from_doc(set_id, doc) for set_id, doc in docs]

    def derived_from(self, set_id: str, transitive: bool = False) -> list[str]:
        """Ids of sets derived from ``set_id`` (children, or whole subtree)."""
        self._inc("registry_queries_total", "registry queries answered")
        with self._lock:
            self._require_version(set_id)
            docs = self._version_docs()
        from repro.core.lineage import reachable

        children: dict[str, list[str]] = {}
        for child, doc in docs:
            base = doc.get("base_set")
            if base is not None:
                children.setdefault(base, []).append(child)
        return sorted(reachable(children, set_id) if transitive else children.get(set_id, []))

    def tags(self, family: str) -> dict[str, str]:
        """``{tag: set_id}`` of a family (always includes ``latest``)."""
        self._inc("registry_queries_total", "registry queries answered")
        with self._lock:
            if self._store.peek(FAMILIES_COLLECTION, family) is None:
                raise RegistryError(
                    f"unknown family {family!r}; known: {self.families()}"
                )
            return {
                doc["tag"]: doc["set_id"]
                for _tag_id, doc in self._family_tags(family)
            }

    def resolve(self, family: str, tag: str = LATEST_TAG) -> str:
        """The set id a ``family:tag`` pair points at.

        Feeds ``manager.recover_set(family=..., tag=...)``; on fleets the
        resolved record also carries the owning shard (:meth:`shard_of`).
        """
        self._inc("registry_queries_total", "registry queries answered")
        with _trace.span("registry-query", kind="registry", op="resolve"):
            with self._lock:
                doc = self._store.peek(TAGS_COLLECTION, f"{family}:{tag}")
                if doc is None:
                    if self._store.peek(FAMILIES_COLLECTION, family) is None:
                        raise RegistryError(
                            f"unknown family {family!r}; known: {self.families()}"
                        )
                    raise RegistryError(
                        f"family {family!r} has no tag {tag!r}; "
                        f"known: {sorted(self.tags(family))}"
                    )
                return str(doc["set_id"])

    def tag(self, family: str, tag: str, set_id: str) -> None:
        """Pin ``family:tag`` to a registered set of that family."""
        self._check_name("tag", tag)
        if tag == LATEST_TAG:
            raise RegistryError(
                f"tag {LATEST_TAG!r} is maintained automatically"
            )
        with self._lock:
            with self._registry_txn():
                record = self._require_version(set_id)
                if record.get("family") != family:
                    raise RegistryError(
                        f"set {set_id!r} belongs to family "
                        f"{record.get('family')!r}, not {family!r}"
                    )
                self._write(
                    TAGS_COLLECTION,
                    f"{family}:{tag}",
                    {"family": family, "tag": tag, "set_id": set_id},
                )

    def shard_of(self, set_id: str) -> "int | None":
        """Owning shard recorded for a set (``None`` on plain archives)."""
        with self._lock:
            return self._require_version(set_id).get("shard")

    # -- diff --------------------------------------------------------------
    def diff(self, set_a: str, set_b: str) -> RegistryDiff:
        """Layer-level change set between two registered sets.

        Answered from stored digest matrices — Update's per-layer hash
        documents or a chunked set's ``chunk_digests``, read through
        :func:`repro.core.recovery.stored_digests` and compared by
        :func:`repro.core.recovery.changed_rows` — whenever both
        sides carry one, reading **zero parameter bytes**.  A set
        without digest metadata (e.g. plain Baseline) falls back to
        recover-and-hash for that side only.  Both matrices are full
        SHA-256 over each layer's raw bytes, so every source agrees with
        the ground-truth recover-and-compare oracle.  A matrix that is
        not ``num_models`` rows of one digest per layer raises
        :class:`RegistryError`.
        """
        self._inc("registry_queries_total", "registry queries answered")
        with _trace.span(
            "registry-query", kind="registry", op="diff", a=set_a, b=set_b
        ):
            with self._lock:
                record_a = self._require_version(set_a)
                record_b = self._require_version(set_b)
            sides = []
            for set_id, record in ((set_a, record_a), (set_b, record_b)):
                context = self._context_for(record.get("shard"))
                descriptor = innermost(context.document_store).peek(
                    SETS_COLLECTION, set_id
                )
                if descriptor is None:
                    raise RegistryError(
                        f"registered set {set_id!r} has no descriptor in its "
                        "archive; run `repro-archive <dir> register --rebuild`"
                    )
                sides.append((set_id, context, descriptor))
            (_, ctx_a, doc_a), (_, ctx_b, doc_b) = sides
            for label, field_a, field_b in (
                ("architecture", doc_a.get("architecture"), doc_b.get("architecture")),
                ("num_models", doc_a.get("num_models"), doc_b.get("num_models")),
            ):
                if field_a != field_b:
                    raise RegistryError(
                        f"cannot diff {set_a!r} and {set_b!r}: "
                        f"{label} differs ({field_a!r} vs {field_b!r})"
                    )
            (layers_a, rows_a, source_a), (layers_b, rows_b, source_b) = (
                self._matrix(*side) for side in sides
            )
            layers = tuple(layers_a)
            if layers != tuple(layers_b):
                raise RegistryError(
                    f"cannot diff {set_a!r} and {set_b!r}: layer schemas differ"
                )
            changed = tuple(
                RegistryModelDiff(index, changed_layers)
                for index, changed_layers in changed_rows(rows_a, rows_b, layers=layers)
            )
            source = source_a if source_a == source_b else f"{source_a}+{source_b}"
            return RegistryDiff(
                set_a=set_a,
                set_b=set_b,
                num_models=int(doc_a.get("num_models", len(rows_a))),
                layers=layers,
                changed=changed,
                source=source,
            )

    @staticmethod
    def _matrix(set_id: str, context, descriptor: dict):
        """``(layers, rows, source)`` of one side of a diff: the stored
        digest matrix, read uncharged through recovery's one reader, else
        recovered and hashed.  A malformed stored matrix is refused:
        comparing it would drop rows."""
        stored = stored_digests(context, descriptor, set_id, innermost(context.document_store).peek)
        if stored is not None:
            problem = stored.malformed(int(descriptor.get("num_models", len(stored.rows))))
            if problem:
                raise RegistryError(f"cannot diff set {set_id!r}: {problem}")
            return stored
        from repro.core.baseline import layer_hashes
        from repro.core.manager import APPROACHES

        approach_name = str(descriptor.get("type"))
        if approach_name not in APPROACHES:
            raise RegistryError(
                f"set {set_id!r} has unknown approach {approach_name!r}"
            )
        model_set = APPROACHES[approach_name](context).recover(set_id)
        layers = model_set.schema.layer_names()
        hashes = layer_hashes(model_set.states, layers, context.workers)
        return StoredDigests(layers, hashes, "recovered")


def attach_registry(context) -> Registry:
    """Wire a :class:`Registry` onto a plain archive context (idempotent)."""
    if getattr(context, "registry", None) is None:
        context.registry = Registry.for_context(context)
    return context.registry


def open_fleet_registry(
    directory, resolver=None, metrics=None
) -> Registry:
    """Open (or create) the fleet-level registry store.

    Durable fleets keep it under ``root/registry/`` — outside every
    shard, like ``deadletter/``, so the catalog stays queryable while a
    shard is DOWN; ``directory=None`` builds an in-memory catalog.  The
    store carries a private journal replayed on open, so a crash
    mid-record never surfaces a torn catalog entry; records are documents
    only, so the journal's artifact half is a throwaway in-memory store
    and ``registry/`` holds ``documents/`` alone.
    """
    file_store, store = open_stores(directory, artifacts=False)
    journal = open_journal(file_store, store)[0]
    return Registry(store, journal=journal, resolver=resolver, metrics=metrics)


__all__ = [
    "LATEST_TAG",
    "REGISTRY_DIR",
    "Registry",
    "RegistryDiff",
    "RegistryModelDiff",
    "VersionRecord",
    "attach_registry",
    "open_fleet_registry",
]
