"""Tests for the MultiModelManager facade."""

import pytest

from repro.config import ArchiveConfig
from repro.core.approach import SaveContext
from repro.core.manager import APPROACHES, MultiModelManager
from repro.core.model_set import ModelSet
from repro.storage.hardware import M1_PROFILE


@pytest.fixture
def models():
    return ModelSet.build("FFNN-48", num_models=5, seed=0)


class TestConstruction:
    def test_all_approaches_available(self):
        assert set(APPROACHES) == {
            "baseline",
            "update",
            "provenance",
            "mmlib-base",
            "pas-delta",
            "baseline-fp16",
        }

    @pytest.mark.parametrize("name", sorted(APPROACHES))
    def test_with_approach_builds_manager(self, name):
        manager = MultiModelManager.with_approach(name)
        assert manager.approach.name == name

    def test_unknown_approach_rejected(self):
        with pytest.raises(ValueError):
            MultiModelManager.with_approach("teleport")

    def test_profile_applied_to_fresh_context(self):
        manager = MultiModelManager.with_approach("baseline", ArchiveConfig(profile=M1_PROFILE))
        assert manager.context.file_store.profile is M1_PROFILE
        assert manager.context.document_store.profile is M1_PROFILE

    def test_shared_context_reused(self):
        context = SaveContext.create()
        manager = MultiModelManager.with_approach("baseline", context=context)
        assert manager.context is context

    def test_approach_kwargs_forwarded(self):
        manager = MultiModelManager.with_approach("update", snapshot_interval=3)
        assert manager.approach.snapshot_interval == 3


class TestSaveRecover:
    def test_initial_and_derived_dispatch(self, models):
        manager = MultiModelManager.with_approach("update")
        first = manager.save_set(models)
        derived = models.copy()
        derived.state(0)["0.weight"][:] += 1.0
        second = manager.save_set(derived, base_set_id=first)
        assert manager.recover_set(first).equals(models)
        assert manager.recover_set(second).equals(derived)

    def test_list_sets_in_save_order(self, models):
        manager = MultiModelManager.with_approach("baseline")
        ids = [manager.save_set(models) for _ in range(3)]
        assert manager.list_sets() == sorted(ids)

    def test_set_info_returns_descriptor(self, models):
        manager = MultiModelManager.with_approach("baseline")
        set_id = manager.save_set(models)
        info = manager.set_info(set_id)
        assert info["type"] == "baseline"
        assert info["num_models"] == 5

    def test_total_stored_bytes_grows(self, models):
        manager = MultiModelManager.with_approach("baseline")
        assert manager.total_stored_bytes() == 0
        manager.save_set(models)
        first = manager.total_stored_bytes()
        assert first > models.parameter_bytes
        manager.save_set(models)
        assert manager.total_stored_bytes() == pytest.approx(2 * first, rel=0.01)

    def test_set_ids_unique_across_approaches_on_shared_context(self, models):
        context = SaveContext.create()
        baseline = MultiModelManager.with_approach("baseline", context=context)
        update = MultiModelManager.with_approach("update", context=context)
        id_a = baseline.save_set(models)
        id_b = update.save_set(models)
        assert id_a != id_b
        assert baseline.recover_set(id_a).equals(models)
        assert update.recover_set(id_b).equals(models)

    def test_managers_sharing_a_context_route_each_others_sets(self, models):
        context = SaveContext.create()
        first = MultiModelManager.with_approach("update", context=context)
        second = MultiModelManager.with_approach("update", context=context)
        base = first.save_set(models)
        assert second.recover_set(base).equals(models)
        derived = models.copy()
        derived.state(0)["0.bias"][:] += 1.0
        child = second.save_set(derived, base_set_id=base)
        assert first.recover_model(child, 0)["0.bias"].tolist() == derived.state(0)["0.bias"].tolist()
        assert first.list_sets() == second.list_sets() == [base, child]
