"""Property-based tests over archive operations: retention, migration,
and lineage invariants under randomized histories."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.lineage import LineageGraph
from repro.core.manager import MultiModelManager
from repro.core.migration import migrate_archive
from repro.core.model_set import ModelSet
from repro.core.retention import RetentionManager
from repro.core.fsck import ArchiveFsck
from repro.training.seeds import derive_seed

#: A history step: (branch_from_offset_back, model_to_change, layer_index).
history_steps = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=7),
    ),
    min_size=1,
    max_size=6,
)


def build_history(manager, steps, seed):
    """Save a randomized (possibly branching) history; returns id->set."""
    base = ModelSet.build("FFNN-48", num_models=5, seed=0)
    saved = {manager.save_set(base): base}
    order = [next(iter(saved))]
    rng = np.random.default_rng(derive_seed("archive-prop", seed))
    layer_names = base.schema.layer_names()
    for back, model_index, layer_index in steps:
        parent_id = order[max(0, len(order) - back)]
        derived = saved[parent_id].copy()
        name = layer_names[layer_index]
        state = derived.state(model_index)
        state[name] = (
            state[name] + rng.normal(0, 0.05, size=state[name].shape)
        ).astype(np.float32)
        new_id = manager.save_set(derived, base_set_id=parent_id)
        saved[new_id] = derived
        order.append(new_id)
    return saved, order


class TestArchiveProperties:
    @given(steps=history_steps, seed=st.integers(min_value=0, max_value=50))
    @settings(
        max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_random_branching_histories_always_recover(self, steps, seed):
        manager = MultiModelManager.with_approach("update")
        saved, _order = build_history(manager, steps, seed)
        for set_id, expected in saved.items():
            assert manager.recover_set(set_id).equals(expected)
        assert ArchiveFsck(manager.context).run(deep=True, recover=True).ok

    @given(
        steps=history_steps,
        seed=st.integers(min_value=0, max_value=50),
        keep_count=st.integers(min_value=1, max_value=3),
    )
    @settings(
        max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_gc_never_breaks_kept_sets(self, steps, seed, keep_count):
        """After any keep_last policy, every surviving set still recovers
        bit-exactly and the archive verifies clean."""
        manager = MultiModelManager.with_approach("update")
        saved, order = build_history(manager, steps, seed)
        keep_count = min(keep_count, len(order))
        RetentionManager(manager.context).keep_last(keep_count)
        survivors = manager.list_sets()
        assert set(order[-keep_count:]) <= set(survivors)
        for set_id in survivors:
            assert manager.recover_set(set_id).equals(saved[set_id])
        assert ArchiveFsck(manager.context).run(deep=True, recover=True).ok

    @given(steps=history_steps, seed=st.integers(min_value=0, max_value=50))
    @settings(
        max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_migration_preserves_every_set(self, steps, seed):
        source = MultiModelManager.with_approach("baseline")
        saved, _order = build_history(source, steps, seed)
        target = MultiModelManager.with_approach("update")
        report = migrate_archive(source.context, target)
        assert set(report.id_map) == set(saved)
        for old_id, expected in saved.items():
            assert target.recover_set(report.id_map[old_id]).equals(expected)

    @given(steps=history_steps, seed=st.integers(min_value=0, max_value=50))
    @settings(
        max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_lineage_chain_always_ends_in_full_snapshot(self, steps, seed):
        manager = MultiModelManager.with_approach("update")
        _saved, order = build_history(manager, steps, seed)
        lineage = LineageGraph.from_context(manager.context)
        for set_id in order:
            chain = lineage.recovery_chain(set_id)
            assert lineage.node_info(chain[0])["kind"] == "full"
            assert chain[-1] == set_id

    @given(
        steps=history_steps,
        seed=st.integers(min_value=0, max_value=50),
        model_index=st.integers(min_value=0, max_value=4),
    )
    @settings(
        max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_single_model_recovery_matches_full_recovery(
        self, steps, seed, model_index
    ):
        manager = MultiModelManager.with_approach("update")
        saved, order = build_history(manager, steps, seed)
        last = order[-1]
        single = manager.recover_model(last, model_index)
        full = manager.recover_set(last).state(model_index)
        assert all(np.array_equal(single[k], full[k]) for k in full)
