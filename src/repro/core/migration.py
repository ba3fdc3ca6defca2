"""Archive migration between approaches.

A deployment that started on MMlib-base (or Baseline) and wants Update's
storage profile should not have to discard its history.
:func:`migrate_archive` re-encodes an existing archive set-by-set, in
id order (every base before the sets derived from it), so derived
relations are preserved: what was a chain of full MMlib-base snapshots
becomes an Update chain of deltas.

Provenance cannot be a migration *target* for synthetic histories — its
derived saves need genuine :class:`~repro.core.save_info.UpdateInfo`
records, which full-snapshot archives do not carry — so migrating *to*
provenance is rejected unless the source sets carry provenance documents.
Migrating *from* provenance works (sets are recovered by replay, then
re-encoded).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.approach import SETS_COLLECTION, SaveContext, id_order
from repro.core.lineage import LineageGraph
from repro.core.manager import APPROACHES, MultiModelManager
from repro.errors import ReproError


@dataclass
class MigrationReport:
    """Mapping from old to new set ids plus size accounting."""

    id_map: dict[str, str] = field(default_factory=dict)
    source_bytes: int = 0
    target_bytes: int = 0

    @property
    def sets_migrated(self) -> int:
        return len(self.id_map)

    @property
    def storage_ratio(self) -> float:
        """Target size as a fraction of the source size."""
        if self.source_bytes == 0:
            return 1.0
        return self.target_bytes / self.source_bytes


def migrate_archive(
    source: SaveContext, target_manager: MultiModelManager
) -> MigrationReport:
    """Re-encode every set in ``source`` into ``target_manager``'s archive.

    Sets are processed in id-counter order, which puts every base before
    the sets derived from it (an id is allocated after its base's); a
    set whose base was migrated is saved as *derived from the migrated
    base*, so the target approach can exploit the relation (Update
    computes deltas).
    Returns the old-to-new id mapping.
    """
    if target_manager.approach.name == "provenance":
        raise ReproError(
            "cannot migrate to the provenance approach: full-snapshot "
            "archives carry no training provenance to re-encode"
        )
    lineage = LineageGraph.from_context(source)
    report = MigrationReport()
    report.source_bytes = source.total_bytes()
    for set_id in sorted(source.document_store.collection_ids(SETS_COLLECTION), key=id_order):
        document = source.document_store.peek(SETS_COLLECTION, set_id)
        approach_name = str(document["type"])
        if approach_name not in APPROACHES:
            raise ReproError(f"set {set_id!r} has unknown type {approach_name!r}")
        model_set = APPROACHES[approach_name](source).recover(set_id)
        migrated_base = report.id_map.get(lineage.base_of(set_id))
        new_id = target_manager.save_set(model_set, base_set_id=migrated_base)
        report.id_map[set_id] = new_id
    report.target_bytes = target_manager.total_stored_bytes()
    return report

