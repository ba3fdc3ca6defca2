"""Property-based tests over archive operations: retention, migration,
and lineage invariants under randomized histories."""

from collections import OrderedDict

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import ArchiveConfig
from repro.core.approach import SETS_COLLECTION, id_order
from repro.core.lineage import LineageGraph
from repro.core.manager import MultiModelManager
from repro.core.migration import migrate_archive
from repro.core.model_set import ModelSet
from repro.core.retention import RetentionManager
from repro.core.fsck import ArchiveFsck
from repro.fleet import FleetManager, IngestQueue
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


#: A fleet step: (operation, how many sets back its target is, model index).
fleet_steps = st.lists(
    st.tuples(
        st.sampled_from(["start", "save", "ingest", "compact"]),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=3),
    ),
    min_size=1,
    max_size=8,
)


def assert_links_point_back(contexts) -> None:
    """Every ``base_set`` and ``compacted_from`` names an older id."""
    for context in contexts:
        for set_id, document in context.document_store.peek_collection(SETS_COLLECTION).items():
            for link in (document.get("base_set"), document.get("compacted_from")):
                assert link is None or id_order(link) < id_order(set_id), (set_id, link)


class TestIdOrder:
    @given(steps=fleet_steps)
    @settings(
        max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_every_link_points_at_an_older_id(self, steps):
        """The order migration saves in: through direct saves, ingest's
        allocate-at-dispatch on a worker pool (batches chain on ids whose
        saves have not run yet), compaction and migration itself."""
        models = ModelSet.build("FFNN-48", num_models=4, seed=0)
        fleet = FleetManager.with_approach("update", ArchiveConfig(shards=2))
        queue = IngestQueue(fleet, flush_max_updates=1, workers=2)
        fleet.save_set(models)
        for step, (operation, back, index) in enumerate(steps):
            held = fleet.list_sets()
            target = held[max(0, len(held) - 1 - back)]
            state = OrderedDict(
                (name, (array + np.float32(step + 1)).astype(array.dtype))
                for name, array in models.state(index).items()
            )
            if operation == "start":
                fleet.save_set(models)
            elif operation == "save":
                derived = fleet.recover_set(target)
                derived.states[index] = state
                fleet.save_set(derived, base_set_id=target)
            elif operation == "ingest":
                for offset in range(3):
                    queue.submit(target, (index + offset) % len(models), state)
                queue.drain()
            else:
                shard = fleet.shards[fleet.shard_of(target)]
                with shard.lock:
                    RetentionManager(shard.context).compact(target)
        queue.close()
        contexts = [shard.context for shard in fleet.shards]
        assert_links_point_back(contexts)
        migrated = MultiModelManager.with_approach("update")
        for context in contexts:
            report = migrate_archive(context, migrated)
            source, target = (LineageGraph.from_context(c) for c in (context, migrated.context))
            for old_id, new_id in report.id_map.items():
                base = source.base_of(old_id)
                assert target.base_of(new_id) == report.id_map.get(base)
        assert_links_point_back([migrated.context])
