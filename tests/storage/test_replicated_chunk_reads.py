"""What a replicated ranged chunk read proves, on a durable
``dedup=True, replicas=3`` archive.

A chunk read checks each chunk it serves against the chunk's own digest
on the serving replica: rot inside a served chunk fails the read over
and queues a repair, exactly like a corrupt whole artifact; rot in bytes
no served chunk covers is not the read's to find, and the deep audits
(``ArchiveFsck.run(deep=True)``, ``verify_replicas``) still flag it.
"""

from collections import OrderedDict

import pytest

from repro.config import ArchiveConfig
from repro.core import recovery
from repro.core.manager import MultiModelManager
from repro.core.model_set import ModelSet
from repro.core.fsck import ArchiveFsck
from repro.core.retention import RetentionManager
from repro.storage import chunk_index
from repro.storage.faults import corrupt_artifact
from repro.storage.hashing import DIGESTS, hash_bytes
from repro.storage.replication import replicated_stores


@pytest.fixture
def models():
    return ModelSet.build("FFNN-48", num_models=3, seed=11)


@pytest.fixture
def manager(tmp_path):
    return MultiModelManager.open(
        str(tmp_path / "archive"), "update", ArchiveConfig(dedup=True, replicas=3)
    )


def served_digests(manager, set_id, model_index):
    """The hex digests a read of one model fetches."""
    plan = recovery.resolve(manager.approach, set_id, model_index)
    return DIGESTS.hexes(plan.unique.tolist())


def rot_on_preferred_replica(manager, digest):
    """Flip one byte inside ``digest``'s chunk on replica 0, the replica
    reads try first; returns the chunk's pack."""
    chunk = manager.context.chunk_store().locate(digest)
    file_rep, _ = replicated_stores(manager.context)
    corrupt_artifact(file_rep.replicas[0].store, chunk.artifact_id, chunk.offset)
    return chunk.artifact_id


def assert_model_equals(state, models, index):
    for name, values in models.state(index).items():
        assert state[name].tobytes() == values.tobytes(), name


def test_rot_in_a_served_chunk_fails_over_and_queues_a_repair(manager, models):
    set_id = manager.save_set(models)
    file_rep, _ = replicated_stores(manager.context)
    pack = rot_on_preferred_replica(manager, served_digests(manager, set_id, 0)[0])
    failovers = file_rep.stats.read_failovers

    assert_model_equals(manager.recover_model(set_id, 0), models, 0)
    assert file_rep.stats.read_failovers == failovers + 1
    assert file_rep.pending_repairs() == {"replica-0": {pack: "put"}}


def test_rot_no_served_chunk_covers_is_left_to_the_audits(manager, models):
    set_id = manager.save_set(models)
    file_rep, _ = replicated_stores(manager.context)
    served = set(served_digests(manager, set_id, 0))
    unread = [d for d in served_digests(manager, set_id, 1) if d not in served]
    pack = rot_on_preferred_replica(manager, unread[0])
    failovers = file_rep.stats.read_failovers

    assert_model_equals(manager.recover_model(set_id, 0), models, 0)
    assert file_rep.stats.read_failovers == failovers
    assert file_rep.pending_repairs() == {}
    assert file_rep.verify_replicas(pack) == {
        "replica-0": False, "replica-1": True, "replica-2": True,
    }
    # The rotted chunk's own read is served from a clean replica.
    assert_model_equals(manager.recover_model(set_id, 1), models, 1)
    assert file_rep.stats.read_failovers == failovers + 1
    report = ArchiveFsck(manager.context).run(deep=True)
    assert report.degraded_artifacts == [pack]
    assert [entry["replica"] for entry in report.replica_divergence] == ["replica-0"]


def test_sweep_rewriting_a_pack_with_a_rotted_live_chunk_fails_over(manager, models):
    root = manager.save_set(models)
    changed = models.copy()
    changed.states[0] = OrderedDict(
        (name, values + 1.0) for name, values in models.state(0).items()
    )
    head = manager.save_set(changed, base_set_id=root)
    # Models 1 and 2 keep the root pack's chunks alive once the root is
    # collected; model 0's old chunks die, so the sweep rewrites the pack.
    live = served_digests(manager, head, 1)[0]
    pack = rot_on_preferred_replica(manager, live)
    file_rep, _ = replicated_stores(manager.context)
    failovers = file_rep.stats.read_failovers

    assert RetentionManager(manager.context).keep_last(1).deleted_sets == [root]
    assert file_rep.exists(f"{pack}-gc") and not file_rep.exists(pack)
    assert file_rep.stats.read_failovers == failovers + 1
    assert manager.recover_set(head).equals(changed)
    assert all(file_rep.verify_replicas(f"{pack}-gc").values())


@pytest.mark.parametrize("reopen", [False, True])
def test_a_short_copy_of_a_served_pack_fails_over(tmp_path, models, reopen):
    # A torn write or a truncated file: the copy on replica 0 ends inside
    # a served chunk.  Reopened, the store's size is the short file's, so
    # the ranges overrun the copy instead of reading short.
    root = str(tmp_path / "archive")
    config = ArchiveConfig(dedup=True, replicas=3)
    manager = MultiModelManager.open(root, "update", config)
    set_id = manager.save_set(models)
    chunk = manager.context.chunk_store().locate(served_digests(manager, set_id, 2)[-1])
    pack = chunk.artifact_id
    path = tmp_path / "archive" / "replica-0" / "artifacts" / f"{pack}.bin"
    with open(path, "r+b") as handle:
        handle.truncate(chunk.offset + chunk.length // 2)
    if reopen:
        manager = MultiModelManager.open(root, "update", config)
    file_rep, _ = replicated_stores(manager.context)
    failovers = file_rep.stats.read_failovers

    assert_model_equals(manager.recover_model(set_id, 2), models, 2)
    assert file_rep.stats.read_failovers == failovers + 1
    assert file_rep.pending_repairs() == {"replica-0": {pack: "put"}}


@pytest.mark.parametrize("replicas", [None, 3])
def test_fetch_verified_hashes_each_chunk_once(tmp_path, monkeypatch, replicas):
    # A replicated store's read check hashes every chunk it serves, and
    # fetch_verified keeps that verdict; a plain store ignores the check,
    # so there fetch_verified hashes what it was served itself.
    manager = MultiModelManager.open(
        str(tmp_path / "archive"), "update", ArchiveConfig(dedup=True, replicas=replicas)
    )
    models = ModelSet.build("FFNN-48", num_models=5, seed=11)
    manager.save_set(models)
    chunk_store = manager.context.chunk_store()
    digests = list(chunk_store)
    assert len(digests) == 40
    hashed = []

    def counting(data, *args):
        hashed.append(len(data))
        return hash_bytes(data, *args)

    monkeypatch.setattr(chunk_index, "hash_bytes", counting)
    values, corrupted = chunk_store.fetch_verified(digests)
    assert not corrupted and sorted(values) == sorted(digests)
    assert len(hashed) == 40
