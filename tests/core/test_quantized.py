"""Tests for the lossy float16 storage tier."""

import warnings

import numpy as np
import pytest

from repro.battery.datagen import CellDataConfig
from repro.config import ArchiveConfig
from repro.core.manager import MultiModelManager
from repro.core.model_set import ModelSet
from repro.core.quantized import QuantizedBaselineApproach, to_float16
from tests.conftest import save_sequence


@pytest.fixture
def approach(context):
    return QuantizedBaselineApproach(context)


@pytest.fixture
def models():
    return ModelSet.build("FFNN-48", num_models=8, seed=0)


class TestStorage:
    def test_exactly_half_of_baseline(self, approach, models):
        approach.save_initial(models)
        written = approach.context.file_store.stats.bytes_written
        assert written == models.parameter_bytes // 2

    def test_set_oriented_write_count(self, approach, models):
        approach.save_initial(models)
        assert approach.context.file_store.stats.writes == 1
        assert approach.context.document_store.stats.writes == 1


class TestAccuracy:
    def test_recovery_is_close_not_exact(self, approach, models):
        set_id = approach.save_initial(models)
        recovered = approach.recover(set_id)
        assert not recovered.equals(models)  # lossy by design
        assert recovered.equals(models, atol=1e-3)  # fp16 epsilon bound

    def test_relative_error_within_half_precision(self, approach, models):
        set_id = approach.save_initial(models)
        recovered = approach.recover(set_id)
        for index in range(len(models)):
            for name in models.state(index):
                original = models.state(index)[name]
                restored = recovered.state(index)[name]
                denom = np.maximum(np.abs(original), 1e-3)
                # fp16 carries ~11 significand bits (eps ~ 4.9e-4); small
                # magnitudes lose relative precision faster, hence the
                # magnitude floor in the denominator.
                assert np.max(np.abs(restored - original) / denom) < 1e-3

    def test_model_quality_barely_affected(self, approach):
        """End-to-end: a trained battery model loses almost no accuracy
        through the fp16 roundtrip — ModelHub's 'minimal loss' claim."""
        from repro.datasets.battery import BatteryCellDataset
        from repro.nn.functional import predict
        from repro.training.pipeline import PipelineConfig, TrainingPipeline

        config = CellDataConfig(seed=2, samples_per_cell=96, cycle_duration_s=96)
        dataset = BatteryCellDataset(0, 0, config)
        models = ModelSet.build("FFNN-48", num_models=1, seed=2)
        model = models.build_model(0)
        TrainingPipeline(
            PipelineConfig(learning_rate=0.02, momentum=0.9, epochs=25,
                           batch_size=32)
        ).train(model, dataset)
        models.states[0] = model.state_dict()

        set_id = approach.save_initial(models)
        recovered_model = approach.recover(set_id).build_model(0)
        inputs, targets = dataset.arrays()
        exact_mse = float(np.mean((predict(model, inputs) - targets) ** 2))
        lossy_mse = float(
            np.mean((predict(recovered_model, inputs) - targets) ** 2)
        )
        assert lossy_mse < exact_mse * 1.05 + 1e-5


class TestApi:
    def test_available_through_manager(self, models):
        manager = MultiModelManager.with_approach("baseline-fp16")
        set_id = manager.save_set(models)
        assert manager.recover_set(set_id).equals(models, atol=1e-3)

    def test_full_scenario(self, synthetic_cases):
        manager = MultiModelManager.with_approach("baseline-fp16")
        set_ids = save_sequence(manager, synthetic_cases)
        for set_id, case in zip(set_ids, synthetic_cases):
            assert manager.recover_set(set_id).equals(case.model_set, atol=1e-3)

    def test_single_model_recovery_uses_range_read(self, approach, models):
        set_id = approach.save_initial(models)
        per_model_fp16 = models.num_parameters_per_model * 2
        before = approach.context.file_store.stats.bytes_read
        state = approach.recover_model(set_id, 5)
        read = approach.context.file_store.stats.bytes_read - before
        assert read == per_model_fp16
        expected = models.state(5)
        assert all(
            np.allclose(state[k], expected[k], atol=1e-3) for k in expected
        )

    def test_out_of_range_index(self, approach, models):
        set_id = approach.save_initial(models)
        with pytest.raises(IndexError):
            approach.recover_model(set_id, 8)

    def test_verifier_understands_fp16_lengths(self, models):
        from repro.core.fsck import ArchiveFsck

        manager = MultiModelManager.with_approach("baseline-fp16")
        manager.save_set(models)
        report = ArchiveFsck(manager.context).run()
        assert report.ok

    def test_corrupt_length_detected(self, approach, models):
        from repro.errors import RecoveryError

        set_id = approach.save_initial(models)
        artifact = approach.context.set_document(set_id)["params_artifact"]
        blobs = approach.context.file_store._blobs
        blobs[artifact] = blobs[artifact][:-2]
        with pytest.raises(RecoveryError):
            approach.recover(set_id)


class TestOutOfRangeValues:
    """fp16 tops out at ±65504: finite values beyond it saturate (no
    infinity the model never held, no ``RuntimeWarning``); ``inf`` and
    ``NaN`` pass through."""

    VALUES = np.array([1e6, -1e6, np.inf, np.nan, 1.5], dtype=np.float32)
    STORED = np.array([65504.0, -65504.0, np.inf, np.nan, 1.5], dtype=np.float32)

    def test_to_float16_saturates(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            narrowed = to_float16(self.VALUES)
        assert narrowed.dtype == np.float16
        np.testing.assert_array_equal(narrowed.astype(np.float32), self.STORED)
        # In range, the cast is exactly astype's.
        ordinary = np.linspace(-70000, 70000, 10001, dtype=np.float32)
        ordinary = ordinary[np.abs(ordinary) <= 65504]
        np.testing.assert_array_equal(
            to_float16(ordinary), ordinary.astype(np.float16)
        )

    @pytest.mark.parametrize("dedup", [False, True])
    def test_saves_saturate_without_warning(self, models, dedup):
        manager = MultiModelManager.with_approach(
            "baseline-fp16", ArchiveConfig(dedup=dedup)
        )
        name = models.schema.layer_names()[0]
        models.state(3)[name].flat[: len(self.VALUES)] = self.VALUES
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            set_id = manager.save_set(models)
        recovered = manager.recover_set(set_id).state(3)[name]
        np.testing.assert_array_equal(
            recovered.flat[: len(self.VALUES)], self.STORED
        )
