"""Tests for the streaming (bounded-memory) ingestion path."""

import numpy as np
import pytest

from repro.architectures import build_ffnn48
from repro.core.manager import MultiModelManager
from repro.core.model_set import ModelSet
from repro.errors import ArchitectureMismatchError, DuplicateArtifactError
from repro.storage.file_store import FileStore
from repro.training.seeds import derive_seed


def state_generator(num_models, seed=0):
    """Yield state dicts one at a time, like a device-by-device ingest."""
    for index in range(num_models):
        rng = np.random.default_rng(derive_seed("model-init", seed, index))
        yield build_ffnn48(rng=rng).state_dict()


@pytest.fixture
def reference_set():
    # ModelSet.build uses the same derived seeds, so the generator above
    # produces identical models.
    return ModelSet.build("FFNN-48", num_models=12, seed=0)


class TestStreamingSave:
    @pytest.mark.parametrize("approach", ("baseline", "update"))
    def test_streaming_equals_materialized_save(self, approach, reference_set):
        streamed = MultiModelManager.with_approach(approach)
        set_id = streamed.save_set_streaming(
            "FFNN-48", state_generator(12), num_models=12
        )
        assert streamed.recover_set(set_id).equals(reference_set)

    @pytest.mark.parametrize("approach", ("baseline", "update"))
    def test_streaming_storage_matches_materialized(
        self, approach, reference_set
    ):
        streamed = MultiModelManager.with_approach(approach)
        streamed.save_set_streaming("FFNN-48", state_generator(12), num_models=12)
        materialized = MultiModelManager.with_approach(approach)
        materialized.save_set(reference_set)
        assert (
            streamed.total_stored_bytes() == materialized.total_stored_bytes()
        )

    def test_update_streaming_hash_info_supports_derived_saves(
        self, reference_set
    ):
        manager = MultiModelManager.with_approach("update")
        base_id = manager.save_set_streaming(
            "FFNN-48", state_generator(12), num_models=12
        )
        derived = reference_set.copy()
        derived.state(4)["2.weight"] = (
            derived.state(4)["2.weight"] + 1.0
        ).astype(np.float32)
        before = manager.context.file_store.stats.bytes_written
        derived_id = manager.save_set(derived, base_set_id=base_id)
        written = manager.context.file_store.stats.bytes_written - before
        assert written == derived.state(4)["2.weight"].nbytes
        assert manager.recover_set(derived_id).equals(derived)

    def test_fallback_for_other_approaches(self, reference_set):
        manager = MultiModelManager.with_approach("mmlib-base")
        set_id = manager.save_set_streaming(
            "FFNN-48", state_generator(12), num_models=12
        )
        assert manager.recover_set(set_id).equals(reference_set)

    def test_count_mismatch_rejected(self):
        manager = MultiModelManager.with_approach("baseline")
        with pytest.raises(ValueError):
            manager.save_set_streaming(
                "FFNN-48", state_generator(5), num_models=9
            )
        # The aborted artifact must not linger.
        assert manager.context.file_store.ids() == []

    def test_schema_mismatch_rejected_mid_stream(self):
        def mixed():
            yield from state_generator(2)
            from repro.architectures import build_ffnn69

            yield build_ffnn69(rng=np.random.default_rng(0)).state_dict()

        manager = MultiModelManager.with_approach("baseline")
        with pytest.raises(ArchitectureMismatchError):
            manager.save_set_streaming("FFNN-48", mixed(), num_models=3)

    def test_streaming_to_durable_archive(self, tmp_path, reference_set):
        manager = MultiModelManager.open(str(tmp_path), "update")
        set_id = manager.save_set_streaming(
            "FFNN-48", state_generator(12), num_models=12
        )
        reopened = MultiModelManager.open(str(tmp_path), "update")
        assert reopened.recover_set(set_id).equals(reference_set)
        # The streamed artifact carries a valid checksum.
        from repro.core.fsck import ArchiveFsck

        assert ArchiveFsck(reopened.context).run(deep=True, recover=True).ok


class TestArtifactWriter:
    def test_writer_accounting_matches_put(self):
        a, b = FileStore(), FileStore()
        a.put(b"hello world", artifact_id="x", category="parameters")
        with b.open_writer("x", category="parameters") as writer:
            writer.write(b"hello ")
            writer.write(b"world")
        assert b.get("x") == b"hello world"
        assert b.stats.writes == a.stats.writes == 1
        assert b.stats.bytes_written == a.stats.bytes_written

    def test_abort_discards(self):
        store = FileStore()
        writer = store.open_writer("x")
        writer.write(b"partial")
        writer.abort()
        assert not store.exists("x")

    def test_exception_in_with_block_aborts(self):
        store = FileStore()
        with pytest.raises(RuntimeError):
            with store.open_writer("x") as writer:
                writer.write(b"partial")
                raise RuntimeError("boom")
        assert not store.exists("x")

    def test_duplicate_id_rejected_at_open(self):
        store = FileStore()
        store.put(b"first", artifact_id="x")
        with pytest.raises(DuplicateArtifactError):
            store.open_writer("x")

    def test_write_after_close_rejected(self):
        from repro.errors import StorageError

        store = FileStore()
        writer = store.open_writer("x")
        writer.close()
        with pytest.raises(StorageError):
            writer.write(b"late")


class TestDiskArtifactWriter:
    def test_streamed_artifact_checksummed(self, tmp_path):
        from repro.storage.persistent import PersistentFileStore

        store = PersistentFileStore(tmp_path)
        with store.open_writer("big", category="parameters") as writer:
            for chunk in range(10):
                writer.write(bytes([chunk]) * 1000)
        assert store.size("big") == 10_000
        assert store.get("big")[:1000] == b"\x00" * 1000
        assert (tmp_path / "big.sha256").exists()

    def test_abort_removes_temp_file(self, tmp_path):
        from repro.storage.persistent import PersistentFileStore

        store = PersistentFileStore(tmp_path)
        with pytest.raises(RuntimeError):
            with store.open_writer("x") as writer:
                writer.write(b"partial")
                raise RuntimeError("boom")
        assert not store.exists("x")
        assert not list(tmp_path.glob("*.tmp"))
