"""Retention management: compaction and chain-aware garbage collection.

Two maintenance operations an unbounded archive eventually needs:

* :meth:`RetentionManager.compact` — rewrite a delta (Update) or
  provenance set as a full snapshot *in place*.  This cuts the set's
  recovery chain to zero and, crucially, makes its ancestors deletable.
* :meth:`RetentionManager.collect` — delete every set not in a keep
  list, **except** sets that kept sets still need for recovery (their
  chain ancestors).  Deleting a needed base would be data loss; the
  collector refuses it structurally rather than by convention.

The combination is the one retention rule (DESIGN.md §10):
:meth:`RetentionManager.retire` deletes a *doomed* set of ids after
compacting every kept set whose base is doomed, so nothing doomed
survives for chain reasons.  "Keep the newest *k*" is
``retire(older_than_newest(k, listings))`` — for one archive
(:meth:`RetentionManager.keep_last`), the ``gc``/``maintain`` verbs and
the maintenance scheduler alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable

from repro.core.approach import SETS_COLLECTION, SaveContext
from repro.core.baseline import write_set
from repro.core.lineage import LineageGraph
from repro.core.manager import APPROACHES
from repro.core.recovery import set_owns
from repro.core.save_info import SetMetadata
from repro.errors import DocumentNotFoundError, ReproError


@dataclass
class CollectionReport:
    """What a garbage-collection pass did."""

    deleted_sets: list[str] = field(default_factory=list)
    retained_for_chains: list[str] = field(default_factory=list)
    bytes_reclaimed: int = 0
    #: Zero-reference chunks reclaimed by the chunk-layer sweep (dedup
    #: archives only); their bytes are included in ``bytes_reclaimed``.
    chunks_reclaimed: int = 0
    #: Kept sets :meth:`RetentionManager.retire` compacted to cut their
    #: chains free of doomed bases (``collect`` compacts nothing).
    compacted_sets: list[str] = field(default_factory=list)


def older_than_newest(count: int, listings: "Iterable[Iterable[str]]") -> "set[str]":
    """Ids older than the newest ``count`` across the given set listings.

    Set ids are commit counters (fleet ids are allocated fleet-wide), so
    id order is commit order and one sort over every shard's listing
    decides "keep the newest K" for a whole fleet.  ``count`` below 1
    raises :class:`ValueError`.
    """
    if count < 1:
        raise ValueError(f"keep-last count must be >= 1, got {count!r}")
    return set(sorted(chain.from_iterable(listings))[:-count])


class RetentionManager:
    """Compaction and garbage collection over one save context."""

    def __init__(self, context: SaveContext) -> None:
        self.context = context

    # -- compaction ---------------------------------------------------------
    def compact(self, set_id: str) -> bool:
        """Rewrite a derived set as an independent full snapshot.

        The set keeps its id — descendants' base references stay valid —
        but its descriptor becomes ``kind: full`` with a freshly written
        parameter artifact, and its recovery no longer touches ancestors.
        Full sets (Baseline, MMlib-base, snapshots) and chunked deltas are
        left untouched.  Returns whether the set was rewritten.  On a
        journaled context the rewrite is one atomic commit: a crash
        mid-compaction rolls back to the original delta set on reopen.
        """
        store = self.context.document_store
        document = store.peek(SETS_COLLECTION, set_id)
        if document is None:
            raise DocumentNotFoundError(f"unknown set {set_id!r}")
        approach_name = str(document.get("type"))
        if document.get("kind", "full") == "full":
            return False
        if document.get("storage") == "chunked":
            # Chunked deltas already recover in one hop (the digest matrix
            # is the whole recipe) and their bases are deletable — the
            # refcounts protect shared chunks — so there is nothing for
            # compaction to improve.
            return False
        if approach_name not in ("update", "provenance", "pas-delta"):
            raise ReproError(
                f"set {set_id!r} of type {approach_name!r} cannot be compacted"
            )
        approach = APPROACHES[approach_name](self.context)
        model_set = approach.recover(set_id)
        with self.context.save_transaction("compact", approach_name):
            # new artifact → descriptor replaced → delta blob deleted → (for
            # Update) hash info refreshed so future derived saves diff
            # correctly.  Artifact-stored: a chunked set never gets here.
            write_set(
                approach,
                model_set.states,
                model_set.architecture,
                len(model_set),
                SetMetadata.from_json(document.get("metadata", {})),
                {
                    "kind": "full",
                    "chain_depth": 0,
                    "compacted_from": document.get("base_set"),
                },
                set_id=set_id,
                hash_info=approach_name == "update",
                replace=True,
                suffix="compacted-params",
                chunked=False,
            )
            if self.context.registry is not None:
                self.context.registry.record_compact(set_id)
        # The bytes are unchanged but the read recipe is not: a cached
        # materialization must re-assemble from the new snapshot.
        if self.context.serving is not None:
            self.context.serving.invalidate_set(set_id)
        return True

    # -- garbage collection ------------------------------------------------------
    def collect(self, keep: list[str]) -> CollectionReport:
        """Delete all sets except ``keep`` and their recovery chains.

        Returns a report of what was deleted and what survived because a
        kept set still depends on it.  Unknown ids in ``keep`` raise.
        """
        store = self.context.document_store
        all_ids = set(store.collection_ids(SETS_COLLECTION))
        unknown = [set_id for set_id in keep if set_id not in all_ids]
        if unknown:
            raise DocumentNotFoundError(f"keep list references unknown sets {unknown}")

        lineage = LineageGraph.from_context(self.context)
        needed: set[str] = set()
        for set_id in keep:
            needed.update(lineage.recovery_chain(set_id))

        report = CollectionReport()
        report.retained_for_chains = sorted(needed - set(keep))
        released_chunks = False
        # One atomic commit for the whole pass: document deletions are
        # journaled with their prior contents and artifact deletes are
        # deferred to commit, so a crash mid-collection (even mid-sweep)
        # rolls back to the archive exactly as it was — no half-released
        # refcounts, no packs missing live chunks.
        with self.context.save_transaction("gc"):
            for set_id in sorted(all_ids - needed):
                document = store.peek(SETS_COLLECTION, set_id)
                released_chunks |= document.get("storage") == "chunked"
                report.bytes_reclaimed += self._delete_set(set_id)
                report.deleted_sets.append(set_id)
                # Inside the GC transaction: the catalog update (version
                # removal, latest-tag retarget) commits or rolls back with
                # the pass — a fleet shard's binding applies it at commit.
                if self.context.registry is not None:
                    self.context.registry.record_delete(set_id)
            if released_chunks:
                sweep = self.context.chunk_store().sweep(
                    workers=self.context.workers
                )
                report.bytes_reclaimed += sweep.bytes_reclaimed
                report.chunks_reclaimed = sweep.chunks_reclaimed
        if self.context.serving is not None:
            for set_id in report.deleted_sets:
                self.context.serving.invalidate_set(set_id)
        return report

    def retire(self, doomed: "Iterable[str]") -> CollectionReport:
        """Delete the ``doomed`` sets so that none survives for chain reasons.

        One journal transaction: every kept set whose base is doomed is first
        compacted into a full snapshot (a no-op for full and chunked
        sets), then :meth:`collect` runs with every held set not doomed as
        the keep list.  Ids the archive does not hold are ignored, so a
        fleet hands one fleet-wide doomed set to every shard.
        """
        doomed = set(doomed)
        store = self.context.document_store
        with self.context.save_transaction("gc"):
            keep = [
                set_id
                for set_id in store.collection_ids(SETS_COLLECTION)
                if set_id not in doomed
            ]
            compacted = [
                set_id
                for set_id in keep
                if store.peek(SETS_COLLECTION, set_id).get("base_set") in doomed
                and self.compact(set_id)
            ]
            report = self.collect(keep)
        report.compacted_sets = compacted
        return report

    def keep_last(self, count: int) -> CollectionReport:
        """Retain the newest ``count`` sets (by id order); retire the rest."""
        return self.retire(
            older_than_newest(
                count, [self.context.document_store.collection_ids(SETS_COLLECTION)]
            )
        )

    def _delete_set(self, set_id: str) -> int:
        """Delete one set's documents and artifacts; returns bytes freed.

        Chunked sets only *release* their chunk references here; the
        shared bytes are reclaimed by the sweep :meth:`collect` runs after
        all deletions, so a chunk stays alive while any surviving set
        still references it.
        """
        store = self.context.document_store
        file_store = self.context.file_store
        document = store.peek(SETS_COLLECTION, set_id)
        owned = set_owns(self.context, set_id, document)
        if document.get("storage") == "chunked":
            if owned.matrix is None:
                raise ReproError(
                    f"chunked set {set_id!r} has neither chunk_digests nor hash info"
                )
            self.context.chunk_store().release(
                digest for row in owned.matrix for digest in row
            )
        freed = 0
        for artifact in owned.artifacts:
            if file_store.exists(artifact):
                freed += file_store.size(artifact)
                file_store.delete(artifact)
        for collection, doc_id in owned.documents:
            store.delete(collection, doc_id)
        store.delete(SETS_COLLECTION, set_id)
        return freed
