"""Tests for the Provenance approach (§3.4): replay exactness and errors."""

import numpy as np
import pytest

from repro.core.model_set import ModelSet
from repro.core.provenance import ProvenanceApproach
from repro.core.save_info import ModelUpdate, UpdateInfo
from repro.datasets.battery import battery_dataset_ref
from repro.battery.datagen import CellDataConfig
from repro.errors import InvalidUpdatePlanError, ProvenanceReplayError
from repro.storage.document_store import thaw
from repro.training.pipeline import PipelineConfig, TrainingPipeline


@pytest.fixture
def approach(context):
    return ProvenanceApproach(context)


@pytest.fixture(scope="module")
def data_config():
    return CellDataConfig(seed=4, samples_per_cell=64, cycle_duration_s=64)


@pytest.fixture(scope="module")
def pipelines():
    base = PipelineConfig(
        learning_rate=0.01, momentum=0.9, epochs=1, batch_size=32, shuffle_seed=8
    )
    return {"full": base, "partial": base.with_layers(("4",))}


def apply_updates(models, info, registry):
    """Reference implementation of an update cycle (what devices do)."""
    derived = models.copy()
    for update in info.updates:
        model = derived.build_model(update.model_index)
        dataset = registry.resolve(update.dataset_ref)
        TrainingPipeline(info.pipelines[update.pipeline_key]).train(model, dataset)
        derived.states[update.model_index] = model.state_dict()
    return derived


class TestInitialSave:
    def test_uses_baseline_logic(self, approach):
        models = ModelSet.build("FFNN-48", num_models=5, seed=0)
        set_id = approach.save_initial(models)
        document = approach.context.set_document(set_id)
        assert document["kind"] == "full"
        assert approach.recover(set_id).equals(models)


class TestDerivedSave:
    def test_requires_update_info(self, approach):
        models = ModelSet.build("FFNN-48", num_models=3, seed=0)
        base_id = approach.save_initial(models)
        with pytest.raises(InvalidUpdatePlanError):
            approach.save_derived(models.copy(), base_id, update_info=None)

    def test_saves_no_parameters(self, approach, data_config, pipelines):
        models = ModelSet.build("FFNN-48", num_models=4, seed=0)
        base_id = approach.save_initial(models)
        info = UpdateInfo(
            pipelines=pipelines,
            updates=(ModelUpdate(0, battery_dataset_ref(0, 1, data_config), "full"),),
        )
        derived = apply_updates(models, info, approach.context.dataset_registry)
        file_writes_before = approach.context.file_store.stats.writes
        approach.save_derived(derived, base_id, update_info=info)
        assert approach.context.file_store.stats.writes == file_writes_before

    def test_derived_storage_is_tiny(self, approach, data_config, pipelines):
        models = ModelSet.build("FFNN-48", num_models=4, seed=0)
        base_id = approach.save_initial(models)
        updates = tuple(
            ModelUpdate(i, battery_dataset_ref(i, 1, data_config), "full")
            for i in range(4)
        )
        info = UpdateInfo(pipelines=pipelines, updates=updates)
        derived = apply_updates(models, info, approach.context.dataset_registry)
        before = approach.context.document_store.stats.bytes_written
        approach.save_derived(derived, base_id, update_info=info)
        stored = approach.context.document_store.stats.bytes_written - before
        assert stored < 0.05 * derived.parameter_bytes

    def test_rejects_out_of_range_update_index(
        self, approach, data_config, pipelines
    ):
        models = ModelSet.build("FFNN-48", num_models=3, seed=0)
        base_id = approach.save_initial(models)
        info = UpdateInfo(
            pipelines=pipelines,
            updates=(ModelUpdate(7, battery_dataset_ref(7, 1, data_config), "full"),),
        )
        with pytest.raises(InvalidUpdatePlanError):
            approach.save_derived(models.copy(), base_id, update_info=info)


class TestReplay:
    def test_full_update_replays_bit_exact(self, approach, data_config, pipelines):
        models = ModelSet.build("FFNN-48", num_models=4, seed=0)
        base_id = approach.save_initial(models)
        info = UpdateInfo(
            pipelines=pipelines,
            updates=(
                ModelUpdate(1, battery_dataset_ref(1, 1, data_config), "full"),
                ModelUpdate(3, battery_dataset_ref(3, 1, data_config), "full"),
            ),
        )
        derived = apply_updates(models, info, approach.context.dataset_registry)
        set_id = approach.save_derived(derived, base_id, update_info=info)
        assert approach.recover(set_id).equals(derived)

    def test_partial_update_replays_bit_exact(self, approach, data_config, pipelines):
        models = ModelSet.build("FFNN-48", num_models=3, seed=0)
        base_id = approach.save_initial(models)
        info = UpdateInfo(
            pipelines=pipelines,
            updates=(
                ModelUpdate(2, battery_dataset_ref(2, 1, data_config), "partial"),
            ),
        )
        derived = apply_updates(models, info, approach.context.dataset_registry)
        set_id = approach.save_derived(derived, base_id, update_info=info)
        recovered = approach.recover(set_id)
        assert recovered.equals(derived)
        # Non-trained layers must still equal the base model's.
        assert np.array_equal(
            recovered.state(2)["0.weight"], models.state(2)["0.weight"]
        )

    def test_two_cycle_chain_replays(self, approach, data_config, pipelines):
        models = ModelSet.build("FFNN-48", num_models=3, seed=0)
        ids = [approach.save_initial(models)]
        current = models
        for cycle in (1, 2):
            info = UpdateInfo(
                pipelines=pipelines,
                updates=(
                    ModelUpdate(
                        cycle % 3, battery_dataset_ref(cycle % 3, cycle, data_config),
                        "full",
                    ),
                ),
            )
            current = apply_updates(current, info, approach.context.dataset_registry)
            ids.append(approach.save_derived(current, ids[-1], update_info=info))
        assert approach.recover(ids[-1]).equals(current)

    def test_unchanged_models_untouched_by_replay(
        self, approach, data_config, pipelines
    ):
        models = ModelSet.build("FFNN-48", num_models=4, seed=0)
        base_id = approach.save_initial(models)
        info = UpdateInfo(
            pipelines=pipelines,
            updates=(ModelUpdate(0, battery_dataset_ref(0, 1, data_config), "full"),),
        )
        derived = apply_updates(models, info, approach.context.dataset_registry)
        set_id = approach.save_derived(derived, base_id, update_info=info)
        recovered = approach.recover(set_id)
        for index in (1, 2, 3):
            for key in models.state(index):
                assert np.array_equal(
                    recovered.state(index)[key], models.state(index)[key]
                )


class TestStrictEnvironment:
    def test_mismatch_rejected_when_strict(
        self, context, data_config, pipelines
    ):
        approach = ProvenanceApproach(context, strict_environment=True)
        models = ModelSet.build("FFNN-48", num_models=2, seed=0)
        base_id = approach.save_initial(models)
        info = UpdateInfo(
            pipelines=pipelines,
            updates=(ModelUpdate(0, battery_dataset_ref(0, 1, data_config), "full"),),
        )
        derived = apply_updates(models, info, context.dataset_registry)
        set_id = approach.save_derived(derived, base_id, update_info=info)
        # Tamper with the recorded environment to simulate replaying on a
        # machine with a different numpy.
        from repro.core.approach import SETS_COLLECTION

        document = thaw(context.document_store.get(SETS_COLLECTION, set_id))
        document["environment"]["numpy_version"] = "0.0.1"
        context.document_store.replace(SETS_COLLECTION, set_id, document)
        with pytest.raises(ProvenanceReplayError):
            approach.recover(set_id)

    def test_matching_environment_accepted_when_strict(
        self, context, data_config, pipelines
    ):
        approach = ProvenanceApproach(context, strict_environment=True)
        models = ModelSet.build("FFNN-48", num_models=2, seed=0)
        base_id = approach.save_initial(models)
        info = UpdateInfo(
            pipelines=pipelines,
            updates=(ModelUpdate(0, battery_dataset_ref(0, 1, data_config), "full"),),
        )
        derived = apply_updates(models, info, context.dataset_registry)
        set_id = approach.save_derived(derived, base_id, update_info=info)
        assert approach.recover(set_id).equals(derived)
