"""Crash-safety tests for the persistent stores.

Simulates the observable aftermath of a crash (leftover temp files,
half-written state) and asserts the archive stays consistent: atomic
rename means a document/artifact either fully exists or does not.
"""

import json

import pytest

from repro.core.manager import MultiModelManager
from repro.core.model_set import ModelSet
from repro.core.fsck import ArchiveFsck
from repro.storage.persistent import (
    PersistentDocumentStore,
    PersistentFileStore,
)


class TestLeftoverTempFiles:
    def test_file_store_ignores_orphan_tmp(self, tmp_path):
        store = PersistentFileStore(tmp_path)
        store.put(b"real", artifact_id="good")
        # A crash between temp-write and rename leaves a .tmp behind.
        (tmp_path / "half.bin.tmp").write_bytes(b"partial")
        reopened = PersistentFileStore(tmp_path)
        assert reopened.ids() == ["good"]
        assert not reopened.exists("half")

    def test_document_store_ignores_orphan_tmp(self, tmp_path):
        store = PersistentDocumentStore(tmp_path)
        store.insert("sets", {"ok": True}, doc_id="good")
        (tmp_path / "sets" / "half.json.tmp").write_bytes(b'{"broken"')
        reopened = PersistentDocumentStore(tmp_path)
        assert reopened.collection_ids("sets") == ["good"]


class TestInterruptedSaveLeavesArchiveConsistent:
    def test_crash_after_artifact_before_document(self, tmp_path):
        """The Baseline save order is artifact first, document second.

        If the process dies in between, the document does not exist, so
        the half-saved set is simply absent — and the orphaned artifact
        does not affect verification of the sets that do exist.
        """
        models = ModelSet.build("FFNN-48", num_models=4, seed=0)
        manager = MultiModelManager.open(str(tmp_path), "baseline")
        good_id = manager.save_set(models)

        # Simulate the crash: an artifact for a set whose document was
        # never written.
        manager.context.file_store.put(
            b"\x00" * 100, artifact_id="set-baseline-000999-params"
        )

        reopened = MultiModelManager.open(str(tmp_path), "baseline")
        assert reopened.list_sets() == [good_id]
        assert reopened.recover_set(good_id).equals(models)
        report = ArchiveFsck(reopened.context).run(deep=True, recover=True)
        assert report.set_issues == []
        assert report.orphan_artifacts == ["set-baseline-000999-params"]

    def test_next_save_after_simulated_crash_succeeds(self, tmp_path):
        models = ModelSet.build("FFNN-48", num_models=4, seed=0)
        manager = MultiModelManager.open(str(tmp_path), "update")
        first = manager.save_set(models)
        manager.context.file_store.put(
            b"\x00" * 10, artifact_id="orphan-from-crash"
        )
        reopened = MultiModelManager.open(str(tmp_path), "update")
        derived = models.copy()
        derived.state(0)["0.bias"][:] += 1.0
        second = reopened.save_set(derived, base_set_id=first)
        assert reopened.recover_set(second).equals(derived)


class TestChecksumCoversWholeArtifact:
    @pytest.mark.parametrize("corrupt_at", [0, 5000, -1])
    def test_flip_anywhere_is_detected(self, tmp_path, corrupt_at):
        store = PersistentFileStore(tmp_path)
        store.put(bytes(10_000), artifact_id="blob")
        raw = bytearray((tmp_path / "blob.bin").read_bytes())
        raw[corrupt_at] ^= 0x01
        (tmp_path / "blob.bin").write_bytes(bytes(raw))
        from repro.errors import StorageError

        with pytest.raises(StorageError):
            PersistentFileStore(tmp_path).get("blob")


class TestDocumentDurability:
    def test_document_readable_by_independent_parser(self, tmp_path):
        # Documents on disk are plain compact JSON — recoverable by any
        # tool even without this library.
        store = PersistentDocumentStore(tmp_path)
        store.insert("sets", {"architecture": "FFNN-48", "n": 3}, doc_id="s1")
        payload = json.loads((tmp_path / "sets" / "s1.json").read_text())
        assert payload == {"architecture": "FFNN-48", "n": 3}
