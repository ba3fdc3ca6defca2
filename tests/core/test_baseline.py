"""Tests for the Baseline approach (§3.2)."""

import pytest

from repro.core.approach import SETS_COLLECTION
from repro.core.baseline import BaselineApproach
from repro.core.model_set import ModelSet
from repro.core.save_info import SetMetadata
from repro.errors import RecoveryError
from repro.storage.document_store import thaw


@pytest.fixture
def approach(context):
    return BaselineApproach(context)


@pytest.fixture
def models():
    return ModelSet.build("FFNN-48", num_models=10, seed=0)


class TestSaveInitial:
    def test_roundtrip_is_bit_exact(self, approach, models):
        set_id = approach.save_initial(models)
        assert approach.recover(set_id).equals(models)

    def test_exactly_one_document_and_one_artifact(self, approach, models):
        approach.save_initial(models)
        assert approach.context.document_store.stats.writes == 1
        assert approach.context.file_store.stats.writes == 1

    def test_parameter_artifact_is_raw_floats(self, approach, models):
        set_id = approach.save_initial(models)
        document = approach.context.set_document(set_id)
        payload = approach.context.file_store.get(document["params_artifact"])
        assert len(payload) == models.parameter_bytes  # 4 B per parameter

    def test_metadata_overhead_is_kilobytes_per_set(self, approach, models):
        # "a storage overhead for model architecture and metadata of
        # approximately 4 KB" (§4.2) — per set, not per model.
        approach.save_initial(models)
        doc_bytes = approach.context.document_store.stats.bytes_written
        assert doc_bytes < 10_000

    def test_metadata_is_persisted(self, approach, models):
        metadata = SetMetadata(use_case="U1", description="initial fleet")
        set_id = approach.save_initial(models, metadata=metadata)
        document = approach.context.set_document(set_id)
        assert document["metadata"]["use_case"] == "U1"

    def test_architecture_recorded(self, approach, models):
        set_id = approach.save_initial(models)
        document = approach.context.set_document(set_id)
        assert document["architecture"] == "FFNN-48"
        assert document["num_models"] == 10


class TestSaveDerived:
    def test_derived_save_is_full_snapshot(self, approach, models):
        # Baseline "always saves complete representations" — derived
        # storage equals initial storage (Figure 3).
        first = approach.save_initial(models)
        initial_bytes = approach.context.file_store.stats.bytes_written
        derived = models.copy()
        derived.state(0)["0.weight"][:] += 1.0
        approach.save_derived(derived, first)
        assert (
            approach.context.file_store.stats.bytes_written == 2 * initial_bytes
        )

    def test_derived_recovers_independently(self, approach, models):
        first = approach.save_initial(models)
        derived = models.copy()
        derived.state(3)["2.bias"][:] = 7.0
        second = approach.save_derived(derived, first)
        assert approach.recover(second).equals(derived)
        assert approach.recover(first).equals(models)

    def test_lineage_recorded(self, approach, models):
        first = approach.save_initial(models)
        second = approach.save_derived(models.copy(), first)
        assert approach.context.set_document(second)["base_set"] == first


class TestRecoverErrors:
    def test_wrong_approach_type_rejected(self, context, models):
        from repro.core.update import UpdateApproach

        update_id = UpdateApproach(context).save_initial(models)
        with pytest.raises(RecoveryError):
            BaselineApproach(context).recover(update_id)

    def test_corrupt_artifact_length_rejected(self, approach, models):
        set_id = approach.save_initial(models)
        document = thaw(approach.context.document_store.get(SETS_COLLECTION, set_id))
        # Shrink the declared model count to force a length mismatch.
        document["num_models"] = 99
        approach.context.document_store._collections[SETS_COLLECTION][
            set_id
        ] = document
        with pytest.raises(RecoveryError):
            approach.recover(set_id)

    def test_single_model_set(self, approach):
        models = ModelSet.build("CIFAR", num_models=1, seed=4)
        set_id = approach.save_initial(models)
        assert approach.recover(set_id).equals(models)
