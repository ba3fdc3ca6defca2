"""Tests for the disk-backed stores and the durable manager."""

import errno

import numpy as np
import pytest

from repro.config import ArchiveConfig
from repro.core.manager import MultiModelManager
from repro.core.model_set import ModelSet
from repro.errors import (
    ArtifactNotFoundError,
    ArtifactTruncatedError,
    DocumentNotFoundError,
    DuplicateArtifactError,
    StorageError,
)
from repro.storage.journal import JOURNAL_COLLECTION
from repro.storage.persistent import (
    PersistentDocumentStore,
    PersistentFileStore,
    _encode_frame,
    open_context,
)


class TestPersistentFileStore:
    def test_roundtrip_across_reopen(self, tmp_path):
        store = PersistentFileStore(tmp_path)
        store.put(b"payload", artifact_id="a1")
        reopened = PersistentFileStore(tmp_path)
        assert reopened.get("a1") == b"payload"
        assert reopened.size("a1") == 7
        assert reopened.ids() == ["a1"]

    def test_duplicate_rejected(self, tmp_path):
        store = PersistentFileStore(tmp_path)
        store.put(b"a", artifact_id="dup")
        with pytest.raises(DuplicateArtifactError):
            store.put(b"b", artifact_id="dup")

    def test_duplicate_rejected_across_reopen(self, tmp_path):
        PersistentFileStore(tmp_path).put(b"a", artifact_id="dup")
        with pytest.raises(DuplicateArtifactError):
            PersistentFileStore(tmp_path).put(b"b", artifact_id="dup")

    def test_checksum_detects_corruption(self, tmp_path):
        store = PersistentFileStore(tmp_path)
        store.put(b"important-model-bytes", artifact_id="a1")
        blob_path = tmp_path / "a1.bin"
        data = bytearray(blob_path.read_bytes())
        data[0] ^= 0xFF
        blob_path.write_bytes(bytes(data))
        with pytest.raises(StorageError):
            PersistentFileStore(tmp_path).get("a1")

    def test_get_range_reads_from_disk(self, tmp_path):
        store = PersistentFileStore(tmp_path)
        store.put(bytes(range(100)), artifact_id="a1")
        assert store.get_range("a1", 50, 10) == bytes(range(50, 60))
        with pytest.raises(ArtifactTruncatedError):
            store.get_range("a1", 95, 10)

    def test_delete_removes_files(self, tmp_path):
        store = PersistentFileStore(tmp_path)
        store.put(b"bye", artifact_id="a1")
        store.delete("a1")
        assert not store.exists("a1")
        assert not (tmp_path / "a1.bin").exists()
        assert not (tmp_path / "a1.sha256").exists()
        with pytest.raises(ArtifactNotFoundError):
            store.get("a1")

    def test_invalid_artifact_id_rejected(self, tmp_path):
        store = PersistentFileStore(tmp_path)
        with pytest.raises(StorageError):
            store.put(b"x", artifact_id="../escape")

    def test_accounting_matches_in_memory_store(self, tmp_path):
        store = PersistentFileStore(tmp_path)
        store.put(b"12345", artifact_id="a1", category="parameters")
        assert store.stats.writes == 1
        assert store.stats.bytes_written == 5
        assert store.stats.bytes_by_category == {"parameters": 5}

    def test_no_tmp_files_left_behind(self, tmp_path):
        store = PersistentFileStore(tmp_path)
        store.put(b"x" * 100, artifact_id="a1")
        assert not list(tmp_path.glob("*.tmp"))


class TestPersistentDocumentStore:
    def test_roundtrip_across_reopen(self, tmp_path):
        store = PersistentDocumentStore(tmp_path)
        doc_id = store.insert("models", {"n": 1})
        reopened = PersistentDocumentStore(tmp_path)
        assert reopened.get("models", doc_id) == {"n": 1}

    def test_auto_ids_resume_after_reopen(self, tmp_path):
        store = PersistentDocumentStore(tmp_path)
        first = store.insert("c", {})
        second = PersistentDocumentStore(tmp_path).insert("c", {})
        assert second != first

    def test_delete_removes_file(self, tmp_path):
        store = PersistentDocumentStore(tmp_path)
        store.insert("c", {"a": 1}, doc_id="d1")
        store.delete("c", "d1")
        assert not (tmp_path / "c" / "d1.json").exists()
        with pytest.raises(DocumentNotFoundError):
            store.get("c", "d1")

    def test_replace_persists(self, tmp_path):
        store = PersistentDocumentStore(tmp_path)
        store.insert("c", {"v": 1}, doc_id="d1")
        store.replace("c", "d1", {"v": 2})
        assert PersistentDocumentStore(tmp_path).get("c", "d1") == {"v": 2}

    def test_replace_missing_raises(self, tmp_path):
        store = PersistentDocumentStore(tmp_path)
        with pytest.raises(DocumentNotFoundError):
            store.replace("c", "ghost", {})

    def test_reopen_sweeps_temp_files_of_interrupted_writes(self, tmp_path):
        store = PersistentDocumentStore(tmp_path)
        store.insert("model_sets", {"v": 1}, doc_id="set-1")
        # A kill between _atomic_write's temp write and its rename.
        leftover = tmp_path / "model_sets" / "set-2.json.tmp"
        leftover.write_text('{"v": 2}')
        reopened = PersistentDocumentStore(tmp_path)
        assert not leftover.exists()
        assert reopened.collection_ids("model_sets") == ["set-1"]


class TestJournalLog:
    """The journal collection is one append-only log per store root."""

    def test_writes_append_frames_and_empty_truncates(self, tmp_path):
        store = PersistentDocumentStore(tmp_path)
        log = tmp_path / f"{JOURNAL_COLLECTION}.log"
        assert not log.exists()
        store._write_raw(JOURNAL_COLLECTION, "txn-000000", {"status": "pending"})
        store._write_raw(JOURNAL_COLLECTION, "txn-000000.0", {"op": "x"})
        assert log.read_bytes() == _encode_frame(
            "txn-000000", '{"status":"pending"}'
        ) + _encode_frame("txn-000000.0", '{"op":"x"}')
        store._delete_raw(JOURNAL_COLLECTION, "txn-000000")
        assert log.read_bytes().endswith(_encode_frame("txn-000000", None))
        store._delete_raw(JOURNAL_COLLECTION, "txn-000000.0")
        assert log.read_bytes() == b""
        assert not (tmp_path / JOURNAL_COLLECTION).exists()

    def test_reopen_replays_frames_and_tombstones(self, tmp_path):
        store = PersistentDocumentStore(tmp_path)
        store._write_raw(JOURNAL_COLLECTION, "a", {"v": 1})
        store._write_raw(JOURNAL_COLLECTION, "b", {"v": 2})
        store._write_raw(JOURNAL_COLLECTION, "a", {"v": 3})
        store._delete_raw(JOURNAL_COLLECTION, "b")
        reopened = PersistentDocumentStore(tmp_path)
        assert reopened.peek_collection(JOURNAL_COLLECTION) == {"a": {"v": 3}}
        assert reopened.stored_size(JOURNAL_COLLECTION, "a") == len('{"v":3}')

    def test_bad_crc_frame_ends_the_replay(self, tmp_path):
        store = PersistentDocumentStore(tmp_path)
        store._write_raw(JOURNAL_COLLECTION, "a", {"v": 1})
        store._write_raw(JOURNAL_COLLECTION, "b", {"v": 2})
        store._write_raw(JOURNAL_COLLECTION, "c", {"v": 3})
        log = tmp_path / f"{JOURNAL_COLLECTION}.log"
        data = bytearray(log.read_bytes())
        first = len(_encode_frame("a", '{"v":1}'))
        data[first + 12] ^= 0xFF  # inside b's payload
        log.write_bytes(bytes(data))
        reopened = PersistentDocumentStore(tmp_path)
        assert reopened.peek_collection(JOURNAL_COLLECTION) == {"a": {"v": 1}}
        assert log.stat().st_size == first

    def test_a_failed_append_leaves_no_torn_frame_behind(self, tmp_path):
        store = PersistentDocumentStore(tmp_path)
        store._write_raw(JOURNAL_COLLECTION, "a", {"v": 1})
        real = store._journal_log._handle

        class FullDisk:
            def write(self, data):
                real.write(bytes(data[:5]))
                raise OSError(errno.ENOSPC, "No space left on device")

            def __getattr__(self, name):
                return getattr(real, name)

        store._journal_log._handle = FullDisk()
        with pytest.raises(OSError):
            store._write_raw(JOURNAL_COLLECTION, "b", {"v": 2})
        store._journal_log._handle = real
        store._write_raw(JOURNAL_COLLECTION, "c", {"v": 3})
        assert PersistentDocumentStore(tmp_path).peek_collection(JOURNAL_COLLECTION) == {
            "a": {"v": 1}, "c": {"v": 3},
        }

    def test_rewrite_drops_a_document_whose_tombstone_failed(self, tmp_path):
        store = PersistentDocumentStore(tmp_path)
        store._write_raw(JOURNAL_COLLECTION, "stale", {"v": 0})
        store._write_raw(JOURNAL_COLLECTION, "gone", {"v": 1})
        real = store._journal_log._handle

        class FullDisk:
            def write(self, data):
                raise OSError(errno.ENOSPC, "No space left on device")

            def __getattr__(self, name):
                return getattr(real, name)

        store._journal_log._handle = FullDisk()
        with pytest.raises(OSError):
            store._delete_raw(JOURNAL_COLLECTION, "gone")
        store._journal_log._handle = real
        # "gone" left the collection but is still live in the log; these
        # frames grow the log past the rewrite bound.
        for index in range(10):
            store._write_raw(JOURNAL_COLLECTION, f"t{index}", {"v": index})
            store._delete_raw(JOURNAL_COLLECTION, f"t{index}")
        store._write_raw(JOURNAL_COLLECTION, "new", {"v": 2})
        log = tmp_path / f"{JOURNAL_COLLECTION}.log"
        live = len(_encode_frame("stale", '{"v":0}')) + len(_encode_frame("new", '{"v":2}'))
        assert log.stat().st_size <= 2 * live
        # A rewrite dropped "gone": no frame of it is left to replay.
        assert PersistentDocumentStore(tmp_path).peek_collection(JOURNAL_COLLECTION) == {
            "stale": {"v": 0}, "new": {"v": 2},
        }

    def test_log_is_rewritten_past_twice_its_live_frames(self, tmp_path):
        store = PersistentDocumentStore(tmp_path)
        store._write_raw(JOURNAL_COLLECTION, "stale", {"v": 0})
        for index in range(10):
            store._write_raw(JOURNAL_COLLECTION, f"t{index}", {"v": index})
            store._delete_raw(JOURNAL_COLLECTION, f"t{index}")
        store._write_raw(JOURNAL_COLLECTION, "new", {"v": 1})
        log = tmp_path / f"{JOURNAL_COLLECTION}.log"
        live = len(_encode_frame("stale", '{"v":0}')) + len(_encode_frame("new", '{"v":1}'))
        assert log.stat().st_size <= 2 * live
        reopened = PersistentDocumentStore(tmp_path)
        assert reopened.peek_collection(JOURNAL_COLLECTION) == {
            "stale": {"v": 0}, "new": {"v": 1},
        }
        assert not list(tmp_path.glob("*.tmp"))


class TestDurableManager:
    def test_full_lifecycle_across_reopen(self, tmp_path):
        models = ModelSet.build("FFNN-48", num_models=6, seed=0)
        manager = MultiModelManager.open(str(tmp_path), "update")
        first = manager.save_set(models)
        derived = models.copy()
        derived.state(1)["2.weight"][:] += 0.5
        second = manager.save_set(derived, base_set_id=first)

        reopened = MultiModelManager.open(str(tmp_path), "update")
        assert reopened.recover_set(second).equals(derived)
        assert reopened.recover_set(first).equals(models)

    def test_set_id_sequence_resumes(self, tmp_path):
        models = ModelSet.build("FFNN-48", num_models=2, seed=0)
        manager = MultiModelManager.open(str(tmp_path), "baseline")
        first = manager.save_set(models)
        reopened = MultiModelManager.open(str(tmp_path), "baseline")
        second = reopened.save_set(models)
        assert second != first
        assert reopened.list_sets() == sorted([first, second])

    def test_single_model_recovery_from_disk(self, tmp_path):
        models = ModelSet.build("FFNN-48", num_models=5, seed=0)
        manager = MultiModelManager.open(str(tmp_path), "baseline")
        set_id = manager.save_set(models)
        reopened = MultiModelManager.open(str(tmp_path), "baseline")
        state = reopened.recover_model(set_id, 4)
        assert all(np.array_equal(state[k], models.state(4)[k]) for k in state)

    def test_open_context_directory_layout(self, tmp_path):
        context = open_context(tmp_path)
        assert (tmp_path / "artifacts").is_dir()
        assert (tmp_path / "documents").is_dir()
        assert context.total_bytes() == 0


class TestReplicaTopologyDetection:
    def test_detect_replicas_tolerates_lost_directory(self, tmp_path):
        import shutil

        from repro.storage.persistent import detect_replicas

        for index in range(3):
            (tmp_path / f"replica-{index}").mkdir()
        assert detect_replicas(tmp_path) == 3
        # Losing replica-0 wholesale must not collapse detection to a
        # single-backend layout: the gap reopens as the full topology.
        shutil.rmtree(tmp_path / "replica-0")
        assert detect_replicas(tmp_path) == 3
        assert detect_replicas(tmp_path / "does-not-exist") == 1

    def test_detect_replicas_ignores_unrelated_entries(self, tmp_path):
        from repro.storage.persistent import detect_replicas

        (tmp_path / "replica-x").mkdir()
        (tmp_path / "replica-1.bak").mkdir()
        (tmp_path / "artifacts").mkdir()
        assert detect_replicas(tmp_path) == 1

    def test_replicated_open_refuses_legacy_single_backend_archive(
        self, tmp_path
    ):
        models = ModelSet.build("FFNN-48", num_models=2, seed=0)
        manager = MultiModelManager.open(str(tmp_path), "baseline")
        set_id = manager.save_set(models)
        # Opening with replicas > 1 would lay out fresh empty replica-<i>
        # subtrees that silently shadow the existing data: refuse loudly.
        with pytest.raises(StorageError, match="replica-0"):
            MultiModelManager.open(str(tmp_path), "baseline", ArchiveConfig(replicas=3))
        # The archive is untouched and still opens fine single-backend.
        reopened = MultiModelManager.open(str(tmp_path), "baseline")
        assert reopened.recover_set(set_id).equals(models)
