"""Tests for the audit's per-set checks and retention (compaction + GC)."""

import pytest

from repro.core.approach import SETS_COLLECTION
from repro.core.lineage import LineageGraph
from repro.core.manager import MultiModelManager
from repro.core.retention import RetentionManager
from repro.core.update import HASH_COLLECTION
from repro.core.fsck import ArchiveFsck
from repro.errors import DocumentNotFoundError
from tests.conftest import save_sequence


@pytest.fixture
def update_archive(synthetic_cases):
    manager = MultiModelManager.with_approach("update")
    set_ids = save_sequence(manager, synthetic_cases)
    return manager, set_ids


class TestVerifier:
    def test_clean_archive_passes(self, update_archive):
        manager, set_ids = update_archive
        report = ArchiveFsck(manager.context).run(deep=True, recover=True)
        assert report.ok
        assert report.sets_checked == len(set_ids)

    @pytest.mark.parametrize("approach", ("baseline", "mmlib-base", "pas-delta"))
    def test_other_approaches_pass(self, approach, synthetic_cases):
        manager = MultiModelManager.with_approach(approach)
        save_sequence(manager, synthetic_cases)
        assert ArchiveFsck(manager.context).run(deep=True, recover=True).ok

    def test_missing_artifact_detected(self, update_archive):
        manager, set_ids = update_archive
        document = manager.set_info(set_ids[0])
        manager.context.file_store.delete(document["params_artifact"])
        report = ArchiveFsck(manager.context).run()
        assert not report.ok
        assert report.missing_artifacts == [
            {"set_id": set_ids[0], "artifact": document["params_artifact"]}
        ]

    def test_truncated_full_artifact_detected(self, update_archive):
        manager, set_ids = update_archive
        document = manager.set_info(set_ids[0])
        artifact = document["params_artifact"]
        blobs = manager.context.file_store._blobs
        blobs[artifact] = blobs[artifact][:-100]
        report = ArchiveFsck(manager.context).run()
        assert any(issue.kind == "length-mismatch" for issue in report.set_issues)

    def test_delta_blob_mismatch_detected(self, update_archive):
        manager, set_ids = update_archive
        document = manager.set_info(set_ids[1])
        artifact = document["params_artifact"]
        blobs = manager.context.file_store._blobs
        blobs[artifact] = blobs[artifact] + b"\x00" * 4
        report = ArchiveFsck(manager.context).run()
        assert any(issue.kind == "diff-mismatch" for issue in report.set_issues)

    def test_broken_chain_detected(self, update_archive):
        manager, set_ids = update_archive
        manager.context.document_store.delete(SETS_COLLECTION, set_ids[0])
        report = ArchiveFsck(manager.context).run()
        assert any(issue.kind == "broken-chain" for issue in report.set_issues)

    def test_tampered_parameters_fail_deep_hash_check(self, update_archive):
        manager, set_ids = update_archive
        document = manager.set_info(set_ids[0])
        artifact = document["params_artifact"]
        blobs = manager.context.file_store._blobs
        tampered = bytearray(blobs[artifact])
        tampered[64] ^= 0xFF
        blobs[artifact] = bytes(tampered)
        report = ArchiveFsck(manager.context).run(deep=True, recover=True)
        assert any(issue.kind == "hash-mismatch" for issue in report.set_issues)

    def test_shallow_check_misses_value_tampering(self, update_archive):
        # Documents why deep verification exists: same tampering, but the
        # shallow pass only checks structure and lengths.
        manager, set_ids = update_archive
        document = manager.set_info(set_ids[0])
        artifact = document["params_artifact"]
        blobs = manager.context.file_store._blobs
        tampered = bytearray(blobs[artifact])
        tampered[64] ^= 0xFF
        blobs[artifact] = bytes(tampered)
        assert ArchiveFsck(manager.context).run().ok


class TestCompaction:
    def test_compacted_set_recovers_identically(self, update_archive, synthetic_cases):
        manager, set_ids = update_archive
        RetentionManager(manager.context).compact(set_ids[1])
        assert manager.recover_set(set_ids[1]).equals(synthetic_cases[1].model_set)

    def test_compaction_cuts_the_chain(self, update_archive):
        manager, set_ids = update_archive
        RetentionManager(manager.context).compact(set_ids[1])
        lineage = LineageGraph.from_context(manager.context)
        assert lineage.chain_depth(set_ids[1]) == 0
        # Descendants now chain back only to the compacted snapshot.
        assert lineage.recovery_chain(set_ids[2]) == [set_ids[1], set_ids[2]]

    def test_descendants_still_recover_after_compaction(
        self, update_archive, synthetic_cases
    ):
        manager, set_ids = update_archive
        RetentionManager(manager.context).compact(set_ids[1])
        assert manager.recover_set(set_ids[-1]).equals(
            synthetic_cases[-1].model_set
        )

    def test_derived_saves_after_compaction_diff_correctly(
        self, update_archive, synthetic_cases
    ):
        manager, set_ids = update_archive
        RetentionManager(manager.context).compact(set_ids[-1])
        derived = synthetic_cases[-1].model_set.copy()
        derived.state(0)["0.weight"][:] += 1.0
        new_id = manager.save_set(derived, base_set_id=set_ids[-1])
        assert manager.recover_set(new_id).equals(derived)

    def test_compacting_full_set_is_noop(self, update_archive):
        manager, set_ids = update_archive
        before = manager.total_stored_bytes()
        RetentionManager(manager.context).compact(set_ids[0])
        assert manager.total_stored_bytes() == before

    def test_compacting_baseline_set_is_noop(self, synthetic_cases):
        manager = MultiModelManager.with_approach("baseline")
        set_ids = save_sequence(manager, synthetic_cases[:2])
        before = manager.total_stored_bytes()
        RetentionManager(manager.context).compact(set_ids[1])
        assert manager.total_stored_bytes() == before

    def test_unknown_set_raises(self, update_archive):
        manager, _ids = update_archive
        with pytest.raises(DocumentNotFoundError):
            RetentionManager(manager.context).compact("set-ghost-000001")

    def test_pas_delta_set_compacts(self, synthetic_cases):
        manager = MultiModelManager.with_approach("pas-delta")
        set_ids = save_sequence(manager, synthetic_cases)
        RetentionManager(manager.context).compact(set_ids[-1])
        assert manager.recover_set(set_ids[-1]).equals(
            synthetic_cases[-1].model_set
        )
        lineage = LineageGraph.from_context(manager.context)
        assert lineage.chain_depth(set_ids[-1]) == 0

    def test_provenance_set_compacts(self, trained_cases):
        manager = MultiModelManager.with_approach("provenance")
        set_ids = save_sequence(manager, trained_cases)
        RetentionManager(manager.context).compact(set_ids[-1])
        assert manager.recover_set(set_ids[-1]).equals(trained_cases[-1].model_set)
        # Recovery no longer replays training: document store only.
        lineage = LineageGraph.from_context(manager.context)
        assert lineage.chain_depth(set_ids[-1]) == 0


class TestGarbageCollection:
    def test_collect_protects_chain_ancestors(self, update_archive, synthetic_cases):
        manager, set_ids = update_archive
        report = RetentionManager(manager.context).collect(keep=[set_ids[-1]])
        # Nothing can be deleted: the kept delta needs every ancestor.
        assert report.deleted_sets == []
        assert report.retained_for_chains == sorted(set_ids[:-1])
        assert manager.recover_set(set_ids[-1]).equals(
            synthetic_cases[-1].model_set
        )

    def test_keep_last_compacts_then_deletes(self, update_archive, synthetic_cases):
        manager, set_ids = update_archive
        report = RetentionManager(manager.context).keep_last(1)
        assert report.deleted_sets == sorted(set_ids[:-1])
        assert report.bytes_reclaimed > 0
        assert manager.list_sets() == [set_ids[-1]]
        assert manager.recover_set(set_ids[-1]).equals(
            synthetic_cases[-1].model_set
        )

    def test_collect_removes_hash_info_and_artifacts(self, update_archive):
        manager, set_ids = update_archive
        store = manager.context.document_store
        RetentionManager(manager.context).keep_last(1)
        for old_id in set_ids[:-1]:
            assert not store.exists(SETS_COLLECTION, old_id)
            assert not store.exists(HASH_COLLECTION, old_id)

    def test_collect_mmlib_archive_removes_model_docs(self, synthetic_cases):
        manager = MultiModelManager.with_approach("mmlib-base")
        set_ids = save_sequence(manager, synthetic_cases[:2])
        report = RetentionManager(manager.context).collect(keep=[set_ids[1]])
        assert report.deleted_sets == [set_ids[0]]
        assert manager.context.document_store.count("mmlib_models") == len(
            synthetic_cases[0].model_set
        )
        assert manager.recover_set(set_ids[1]).equals(synthetic_cases[1].model_set)

    def test_unknown_keep_id_rejected(self, update_archive):
        manager, _ids = update_archive
        with pytest.raises(DocumentNotFoundError):
            RetentionManager(manager.context).collect(keep=["set-ghost-000000"])

    def test_keep_last_validation(self, update_archive):
        manager, _ids = update_archive
        with pytest.raises(ValueError):
            RetentionManager(manager.context).keep_last(0)

    def test_post_gc_archive_verifies_clean(self, update_archive):
        manager, _set_ids = update_archive
        RetentionManager(manager.context).keep_last(2)
        assert ArchiveFsck(manager.context).run(deep=True, recover=True).ok

    def test_gc_on_persistent_archive(self, tmp_path, synthetic_cases):
        manager = MultiModelManager.open(str(tmp_path), "update")
        set_ids = save_sequence(manager, synthetic_cases)
        RetentionManager(manager.context).keep_last(1)
        reopened = MultiModelManager.open(str(tmp_path), "update")
        assert reopened.list_sets() == [set_ids[-1]]
        assert reopened.recover_set(set_ids[-1]).equals(
            synthetic_cases[-1].model_set
        )
