"""Point reads on a durable ``dedup=True, replicas=3`` archive.

Two contracts of the document inspection plane, end to end:

* no operation on the hot path builds the replicated store's merged
  ``_collections`` view (one vote per document of the whole archive) —
  the property is patched to raise and every hot operation still works;
* ``peek`` hands out the replicas' own documents uncopied, so read-only
  operations must leave every replica's document tree byte-identical.
"""

import pytest

from repro.config import ArchiveConfig, MaintenanceConfig
from repro.core.fsck import ArchiveFsck
from repro.core.lineage import LineageGraph
from repro.core.manager import MultiModelManager
from repro.core.model_set import ModelSet
from repro.maintenance import MaintenanceScheduler
from repro.storage.replication import ReplicatedDocumentStore

from tests.integration.test_replica_matrix import replica_document_trees
from tests.maintenance.conftest import perturbed


@pytest.fixture
def models():
    return ModelSet.build("FFNN-48", num_models=3, seed=11)


def open_archive(tmp_path):
    return MultiModelManager.open(
        str(tmp_path / "archive"), "update", ArchiveConfig(dedup=True, replicas=3)
    )


def test_hot_paths_never_build_the_merged_archive_view(tmp_path, models, monkeypatch):
    def merged_view(_self):
        raise AssertionError("O(archive) _collections vote on a hot path")

    monkeypatch.setattr(ReplicatedDocumentStore, "_collections", property(merged_view))

    manager = open_archive(tmp_path)
    ids = [manager.save_set(models)]
    for step in range(3):
        ids.append(manager.save_set(perturbed(models, step), base_set_id=ids[-1]))

    assert manager.recover_set(ids[-1]).equals(perturbed(models, 2))
    state = manager.recover_model(ids[2], 1)
    for name, array in perturbed(models, 1).state(1).items():
        assert (state[name] == array).all()
    diff = manager.context.registry.diff(ids[0], ids[1])
    assert len(diff.changed) == len(models) and diff.source == "hash-info"

    lineage = LineageGraph.from_context(manager.context)
    assert lineage.roots() == [ids[0]] and lineage.leaves() == [ids[-1]]

    # scrub=False: the scrub's replica-divergence report is the one
    # designated caller of the merged view.
    scheduler = MaintenanceScheduler.for_manager(
        manager, config=MaintenanceConfig(enabled=True, gc_keep_last=2, scrub=False)
    )
    assert scheduler.run_pass().shards[0].sets_deleted == 2
    assert manager.list_sets() == ids[-2:]
    assert manager.recover_set(ids[-1]).equals(perturbed(models, 2))


def test_read_only_operations_leave_every_replica_untouched(tmp_path, models):
    manager = open_archive(tmp_path)
    ids = [manager.save_set(models)]
    for step in range(2):
        ids.append(manager.save_set(perturbed(models, step), base_set_id=ids[-1]))
    context = manager.context
    before = replica_document_trees(context)
    assert len(set(before)) == 1

    for set_id in ids:
        manager.recover_set(set_id)
        manager.recover_model(set_id, 0)
    context.registry.diff(ids[0], ids[-1])
    context.registry.versions(context.registry.families()[0])
    assert ArchiveFsck(context).run(deep=True, recover=True).ok
    LineageGraph.from_context(context).recovery_chain(ids[-1])
    context.total_bytes()
    context.document_store.stats.snapshot()

    assert replica_document_trees(context) == before
