"""Tests for single-model recovery (the paper's post-accident scenario)."""

import numpy as np
import pytest

from repro.config import ArchiveConfig, ServingConfig
from repro.core.compression import get_codec
from repro.core.manager import MultiModelManager
from repro.errors import RecoveryError
from tests.conftest import save_sequence

SERVING = ArchiveConfig(serving=ServingConfig(enabled=True))


def states_equal(state_a, state_b) -> bool:
    return list(state_a) == list(state_b) and all(
        np.array_equal(state_a[k], state_b[k]) for k in state_a
    )


class TestCorrectness:
    @pytest.mark.parametrize(
        "approach", ("mmlib-base", "baseline", "update", "pas-delta")
    )
    def test_matches_full_recovery_everywhere(self, approach, synthetic_cases):
        manager = MultiModelManager.with_approach(approach)
        set_ids = save_sequence(manager, synthetic_cases)
        for case_index in (0, len(set_ids) - 1):
            expected = synthetic_cases[case_index].model_set
            for model_index in (0, 13, len(expected) - 1):
                state = manager.recover_model(set_ids[case_index], model_index)
                assert states_equal(state, expected.state(model_index))

    def test_provenance_replays_single_model(self, trained_cases):
        manager = MultiModelManager.with_approach("provenance")
        set_ids = save_sequence(manager, trained_cases)
        expected = trained_cases[-1].model_set
        for model_index in range(len(expected)):
            state = manager.recover_model(set_ids[-1], model_index)
            assert states_equal(state, expected.state(model_index))

    def test_update_with_codec_falls_back_to_full_blob(self, synthetic_cases):
        manager = MultiModelManager.with_approach("update", codec="zlib")
        set_ids = save_sequence(manager, synthetic_cases)
        expected = synthetic_cases[-1].model_set
        state = manager.recover_model(set_ids[-1], 5)
        assert states_equal(state, expected.state(5))

    def test_untouched_model_along_chain(self, synthetic_cases):
        # A model never updated in any cycle must come straight from U1.
        updated = set()
        for case in synthetic_cases[1:]:
            updated.update(case.update_info.updated_indices)
        untouched = next(
            i for i in range(len(synthetic_cases[0].model_set)) if i not in updated
        )
        manager = MultiModelManager.with_approach("update")
        set_ids = save_sequence(manager, synthetic_cases)
        state = manager.recover_model(set_ids[-1], untouched)
        assert states_equal(state, synthetic_cases[0].model_set.state(untouched))


class TestEfficiency:
    def test_baseline_reads_one_model_worth_of_bytes(self, synthetic_cases):
        manager = MultiModelManager.with_approach("baseline")
        set_ids = save_sequence(manager, synthetic_cases)
        per_model = synthetic_cases[0].model_set.schema.num_bytes
        before = manager.context.file_store.stats.bytes_read
        manager.recover_model(set_ids[0], 3)
        read = manager.context.file_store.stats.bytes_read - before
        assert read == per_model

    def test_update_chain_reads_stay_model_sized(self, synthetic_cases):
        manager = MultiModelManager.with_approach("update")
        set_ids = save_sequence(manager, synthetic_cases)
        per_model = synthetic_cases[0].model_set.schema.num_bytes
        before = manager.context.file_store.stats.bytes_read
        manager.recover_model(set_ids[-1], 0)
        read = manager.context.file_store.stats.bytes_read - before
        # Base model + at most one model-sized delta per chain hop.
        assert read <= per_model * len(set_ids)

    def test_pas_delta_base_read_is_model_sized(self, synthetic_cases):
        manager = MultiModelManager.with_approach("pas-delta")
        set_ids = save_sequence(manager, synthetic_cases)
        expected = synthetic_cases[0].model_set
        per_model = expected.schema.num_bytes
        num_models = len(expected)
        # Chain recovery: one model-sized base range instead of the
        # whole snapshot (deltas still decode whole — the compressing
        # codec rules out range addressing).
        before = manager.context.file_store.stats.bytes_read
        manager.recover_model(set_ids[-1], 0)
        single = manager.context.file_store.stats.bytes_read - before
        before = manager.context.file_store.stats.bytes_read
        manager.approach.recover(set_ids[-1])
        full = manager.context.file_store.stats.bytes_read - before
        assert single == full - (num_models - 1) * per_model

    def test_mmlib_reads_single_artifact(self, synthetic_cases):
        manager = MultiModelManager.with_approach("mmlib-base")
        set_ids = save_sequence(manager, synthetic_cases)
        before = manager.context.file_store.stats.reads
        manager.recover_model(set_ids[0], 7)
        assert manager.context.file_store.stats.reads - before == 1


class TestErrors:
    @pytest.mark.parametrize(
        "approach", ("mmlib-base", "baseline", "update", "pas-delta")
    )
    def test_out_of_range_index_raises(self, approach, synthetic_cases):
        # One error for a bad index on every storage shape: a full set
        # and a derived one, plain, deduplicated, and through serving.
        configs = [ArchiveConfig(), SERVING]
        if approach in ("baseline", "update"):
            configs.append(ArchiveConfig(dedup=True))
        for config in configs:
            manager = MultiModelManager.with_approach(approach, config)
            for set_id in save_sequence(manager, synthetic_cases[:2]):
                for index in (len(synthetic_cases[0].model_set), -1):
                    with pytest.raises(IndexError):
                        manager.recover_model(set_id, index)

    @pytest.mark.parametrize("variant", ("plain", "zlib", "serving"))
    def test_oversized_delta_rejected_like_set_recovery(
        self, variant, synthetic_cases
    ):
        # Single-model recovery validates what set recovery validates.
        codec = "zlib" if variant == "zlib" else "none"
        manager = MultiModelManager.with_approach(
            "update", SERVING if variant == "serving" else None, codec=codec
        )
        set_ids = save_sequence(manager, synthetic_cases)
        document = manager.set_info(set_ids[-1])
        artifact = document["params_artifact"]
        blobs = manager.context.file_store._blobs
        payload = get_codec(codec).decode(blobs[artifact]) + b"\x00" * 16
        blobs[artifact] = get_codec(codec).encode(payload)
        with pytest.raises(RecoveryError):
            manager.recover_set(set_ids[-1])
        # (A compressed delta is only measured by a read that decodes it.)
        for model_index in (document["diff"][0][0], document["diff"][-1][0]):
            with pytest.raises(RecoveryError):
                manager.recover_model(set_ids[-1], model_index)


class TestFileStoreRange:
    def test_get_range_returns_slice(self):
        from repro.storage.file_store import FileStore

        store = FileStore()
        store.put(bytes(range(100)), artifact_id="blob")
        assert store.get_range("blob", 10, 5) == bytes(range(10, 15))

    def test_get_range_charges_only_range_bytes(self):
        from repro.storage.file_store import FileStore

        store = FileStore()
        store.put(b"x" * 1000, artifact_id="blob")
        store.get_range("blob", 0, 10)
        assert store.stats.bytes_read == 10

    def test_get_range_validation(self):
        from repro.errors import ArtifactNotFoundError, ArtifactTruncatedError
        from repro.storage.file_store import FileStore

        store = FileStore()
        store.put(b"abc", artifact_id="blob")
        with pytest.raises(ArtifactNotFoundError):
            store.get_range("ghost", 0, 1)
        with pytest.raises(ValueError):
            store.get_range("blob", -1, 1)
        with pytest.raises(ArtifactTruncatedError):
            store.get_range("blob", 2, 5)

    def test_get_range_from_disk_spill(self, tmp_path):
        from repro.storage.persistent import PersistentFileStore

        store = PersistentFileStore(tmp_path)
        store.put(bytes(range(50)), artifact_id="blob")
        assert store.get_range("blob", 20, 10) == bytes(range(20, 30))
