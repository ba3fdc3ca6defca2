"""Tests for the lineage graph and archive analytics."""

import numpy as np
import pytest

from repro.core.lineage import LineageGraph, diff_sets, model_history
from repro.core.manager import MultiModelManager
from repro.core.model_set import ModelSet
from repro.errors import DocumentNotFoundError, ReproError
from tests.conftest import save_sequence


@pytest.fixture
def chained_manager(synthetic_cases):
    manager = MultiModelManager.with_approach("update")
    set_ids = save_sequence(manager, synthetic_cases)
    return manager, set_ids


class TestLineageGraph:
    def test_roots_and_leaves(self, chained_manager):
        manager, set_ids = chained_manager
        lineage = LineageGraph.from_context(manager.context)
        assert lineage.roots() == [set_ids[0]]
        assert lineage.leaves() == [set_ids[-1]]
        assert len(lineage) == len(set_ids)

    def test_base_of_and_ancestors(self, chained_manager):
        manager, set_ids = chained_manager
        lineage = LineageGraph.from_context(manager.context)
        assert lineage.base_of(set_ids[0]) is None
        assert lineage.base_of(set_ids[2]) == set_ids[1]
        assert lineage.ancestors(set_ids[2]) == [set_ids[1], set_ids[0]]

    def test_descendants(self, chained_manager):
        manager, set_ids = chained_manager
        lineage = LineageGraph.from_context(manager.context)
        assert lineage.descendants(set_ids[0]) == sorted(set_ids[1:])
        assert lineage.descendants(set_ids[-1]) == []

    def test_recovery_chain_for_deltas(self, chained_manager):
        manager, set_ids = chained_manager
        lineage = LineageGraph.from_context(manager.context)
        assert lineage.recovery_chain(set_ids[-1]) == set_ids
        assert lineage.chain_depth(set_ids[-1]) == len(set_ids) - 1
        assert lineage.chain_depth(set_ids[0]) == 0

    def test_full_snapshots_cut_the_chain(self, synthetic_cases):
        manager = MultiModelManager.with_approach("update", snapshot_interval=1)
        set_ids = save_sequence(manager, synthetic_cases)
        lineage = LineageGraph.from_context(manager.context)
        # Every save became a snapshot, so every chain has depth 0.
        assert all(lineage.chain_depth(set_id) == 0 for set_id in set_ids)

    def test_baseline_sets_are_independent(self, synthetic_cases):
        manager = MultiModelManager.with_approach("baseline")
        set_ids = save_sequence(manager, synthetic_cases)
        lineage = LineageGraph.from_context(manager.context)
        # Lineage is still recorded, but recovery never walks it.
        assert lineage.base_of(set_ids[1]) == set_ids[0]
        assert lineage.recovery_chain(set_ids[1]) == [set_ids[1]]

    def test_branching_lineage(self):
        models = ModelSet.build("FFNN-48", num_models=4, seed=0)
        manager = MultiModelManager.with_approach("update")
        root = manager.save_set(models)
        branch_a = models.copy()
        branch_a.state(0)["0.weight"][:] += 1.0
        branch_b = models.copy()
        branch_b.state(1)["0.weight"][:] += 1.0
        id_a = manager.save_set(branch_a, base_set_id=root)
        id_b = manager.save_set(branch_b, base_set_id=root)
        lineage = LineageGraph.from_context(manager.context)
        assert sorted(lineage.descendants(root)) == sorted([id_a, id_b])
        assert lineage.leaves() == sorted([id_a, id_b])

    def test_unknown_set_raises(self, chained_manager):
        manager, _set_ids = chained_manager
        lineage = LineageGraph.from_context(manager.context)
        with pytest.raises(DocumentNotFoundError):
            lineage.ancestors("set-ghost-000000")

    def test_node_info_and_export(self, chained_manager):
        manager, set_ids = chained_manager
        lineage = LineageGraph.from_context(manager.context)
        info = lineage.node_info(set_ids[1])
        assert info["approach"] == "update"
        assert info["kind"] == "delta"


class TestDiffSets:
    def test_detects_exactly_the_updated_models(self, synthetic_cases):
        diff = diff_sets(synthetic_cases[0].model_set, synthetic_cases[1].model_set)
        expected = sorted(synthetic_cases[1].update_info.updated_indices)
        assert sorted(diff.changed_indices) == expected

    def test_identical_sets_have_empty_diff(self, synthetic_cases):
        models = synthetic_cases[0].model_set
        diff = diff_sets(models, models.copy())
        assert diff.num_changed == 0
        assert diff.num_models == len(models)

    def test_reports_changed_layers_and_magnitudes(self):
        models = ModelSet.build("FFNN-48", num_models=2, seed=0)
        derived = models.copy()
        derived.state(1)["4.weight"] = (
            derived.state(1)["4.weight"] + 0.25
        ).astype(np.float32)
        diff = diff_sets(models, derived)
        assert diff.num_changed == 1
        model_diff = diff.changed_models[0]
        assert model_diff.model_index == 1
        assert model_diff.changed_layers == ("4.weight",)
        assert model_diff.max_abs_change == pytest.approx(0.25, rel=1e-5)
        assert model_diff.l2_change > 0

    def test_incompatible_sets_rejected(self):
        a = ModelSet.build("FFNN-48", num_models=2, seed=0)
        b = ModelSet.build("FFNN-69", num_models=2, seed=0)
        with pytest.raises(ReproError):
            diff_sets(a, b)


class TestModelHistory:
    def test_drift_zero_then_monotone_for_single_update(self, chained_manager):
        manager, set_ids = chained_manager
        history = model_history(manager, set_ids, model_index=0)
        assert history.drift_from_start[0] == 0.0
        assert len(history.step_l2) == len(set_ids) - 1

    def test_updated_model_shows_drift(self, synthetic_cases, chained_manager):
        manager, set_ids = chained_manager
        updated = synthetic_cases[1].update_info.updates[0].model_index
        history = model_history(manager, set_ids[:2], updated)
        assert history.step_l2[0] > 0
        assert history.total_drift > 0

    def test_untouched_model_shows_no_drift(self, synthetic_cases, chained_manager):
        manager, set_ids = chained_manager
        touched = set()
        for case in synthetic_cases[1:]:
            touched.update(case.update_info.updated_indices)
        untouched = next(
            i for i in range(len(synthetic_cases[0].model_set)) if i not in touched
        )
        history = model_history(manager, set_ids, untouched)
        assert history.total_drift == 0.0
        assert all(step == 0.0 for step in history.step_l2)

    def test_empty_set_ids_rejected(self, chained_manager):
        manager, _ids = chained_manager
        with pytest.raises(ValueError):
            model_history(manager, [], 0)
