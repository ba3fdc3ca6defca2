"""Property tests for the registry: diff-vs-oracle and rebuild idempotence.

Three invariants the catalog must hold regardless of approach or shape:

* ``Registry.diff`` is **byte-consistent with the ground-truth oracle**:
  recover both sets and compare every layer's bytes — the diff computed
  from stored hash metadata (or recover-and-hash fallback) must report
  exactly the layers whose recovered bytes differ.  This is what makes
  metadata-only diffs trustworthy.
* Update's **stored diff list is the registry's diff** of each derived
  set against its base, over random chains (dedup on and off, ``touched``
  hints, layer or model granularity).
* ``Registry.rebuild`` is **idempotent**: rebuilding twice leaves the
  catalog byte-identical to rebuilding once, on plain archives and on
  sharded fleets.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import ArchiveConfig
from repro.core.manager import MultiModelManager
from repro.core.model_set import ModelSet
from repro.core.save_info import SetMetadata
from repro.core.update import UpdateApproach
from repro.fleet import FleetManager
from repro.registry import REGISTRY_COLLECTIONS

NUM_MODELS = 3
NUM_LAYERS = len(ModelSet.build("FFNN-48", num_models=1, seed=0).schema.layer_names())

#: Approaches whose save_derived needs only (models, base_set_id).
DERIVABLE = ["baseline", "update", "mmlib-base", "pas-delta", "baseline-fp16"]

perturbations = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=NUM_MODELS - 1),
        st.integers(min_value=0, max_value=NUM_LAYERS - 1),
    ),
    min_size=0,
    max_size=4,
    unique=True,
)


def apply_perturbations(models, plan):
    derived = models.copy()
    names = models.schema.layer_names()
    for model_index, layer_index in plan:
        state = derived.state(model_index)
        name = names[layer_index]
        state[name] = (state[name] + 0.25).astype(state[name].dtype)
    return derived


def oracle_diff(set_a, set_b):
    """Ground truth: recover both sets and compare layer bytes."""
    names = set_a.schema.layer_names()
    expected = {}
    for index in range(len(set_a)):
        changed = tuple(
            name
            for name in names
            if not np.array_equal(set_a.state(index)[name], set_b.state(index)[name])
        )
        if changed:
            expected[index] = changed
    return expected


def registry_documents(registry):
    """Raw catalog contents, for byte-level idempotence comparison."""
    store = registry._store
    return {
        collection: {
            doc_id: store._read_raw(collection, doc_id)
            for doc_id in store.collection_ids(collection)
        }
        for collection in REGISTRY_COLLECTIONS
    }


class TestDiffOracle:
    @given(
        approach=st.sampled_from(DERIVABLE),
        plan=perturbations,
    )
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_diff_matches_recover_and_compare(self, approach, plan):
        manager = MultiModelManager.with_approach(approach)
        models = ModelSet.build("FFNN-48", num_models=NUM_MODELS, seed=0)
        base_id = manager.save_set(
            models, metadata=SetMetadata(extra={"family": "prop"})
        )
        derived = apply_perturbations(models, plan)
        derived_id = manager.save_set(derived, base_set_id=base_id)

        diff = manager.context.registry.diff(base_id, derived_id)
        reported = {
            entry.model_index: entry.changed_layers for entry in diff.changed
        }
        expected = oracle_diff(
            manager.recover_set(base_id), manager.recover_set(derived_id)
        )
        assert reported == expected

    @given(plan=perturbations)
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_update_diff_never_reads_parameter_bytes(self, plan):
        manager = MultiModelManager.with_approach("update")
        models = ModelSet.build("FFNN-48", num_models=NUM_MODELS, seed=0)
        base_id = manager.save_set(
            models, metadata=SetMetadata(extra={"family": "prop"})
        )
        derived_id = manager.save_set(
            apply_perturbations(models, plan), base_set_id=base_id
        )
        before = manager.context.file_store.stats.snapshot()
        diff = manager.context.registry.diff(base_id, derived_id)
        delta = manager.context.file_store.stats.delta_since(before)
        assert delta.reads == 0 and delta.bytes_read == 0
        assert diff.source == "hash-info"

    @given(plan=perturbations)
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_dedup_archive_diff_consistent(self, plan):
        manager = MultiModelManager.with_approach(
            "update", ArchiveConfig(dedup=True)
        )
        models = ModelSet.build("FFNN-48", num_models=NUM_MODELS, seed=0)
        base_id = manager.save_set(
            models, metadata=SetMetadata(extra={"family": "prop"})
        )
        derived = apply_perturbations(models, plan)
        derived_id = manager.save_set(derived, base_set_id=base_id)
        diff = manager.context.registry.diff(base_id, derived_id)
        reported = {
            entry.model_index: entry.changed_layers for entry in diff.changed
        }
        assert reported == oracle_diff(
            manager.recover_set(base_id), manager.recover_set(derived_id)
        )


class TestStoredDiffIsTheRegistryDiff:
    """Update's step 3 and ``Registry.diff`` run one comparison: over a
    random chain the ``diff`` list each derived set stores is the diff
    the registry reports against its base, widened to every layer of a
    changed model at model granularity; every set replays exactly."""

    @given(
        dedup=st.booleans(),
        granularity=st.sampled_from(["layer", "model"]),
        chain=st.lists(
            st.tuples(perturbations, st.none() | st.frozensets(st.integers(0, NUM_MODELS - 1))),
            min_size=1,
            max_size=3,
        ),
    )
    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_stored_diff_is_the_registry_diff(self, dedup, granularity, chain):
        manager = MultiModelManager.with_approach(
            "update", ArchiveConfig(dedup=dedup), granularity=granularity
        )
        models = ModelSet.build("FFNN-48", num_models=NUM_MODELS, seed=0)
        names = tuple(models.schema.layer_names())
        saved = {manager.save_set(models, metadata=SetMetadata(extra={"family": "prop"})): models}
        for plan, extra in chain:
            base_id = list(saved)[-1]
            models = apply_perturbations(models, plan)
            # ``touched`` vouches for every model it leaves out, so it
            # holds each changed model, plus any others.
            touched = None if extra is None else extra | {model for model, _ in plan}
            set_id, shard = manager.allocate_save(base_id)
            manager.execute_save(set_id, shard, models, base_id, touched=touched)
            diff = manager.context.registry.diff(base_id, set_id)
            expected = {
                entry.model_index: names if granularity == "model" else entry.changed_layers
                for entry in diff.changed
            }
            stored = manager.set_info(set_id)["diff"]
            assert {index: tuple(names[layer] for layer in layers)
                    for index, layers in stored} == expected
            saved[set_id] = models
        replay = UpdateApproach(manager.context, recovery="replay")
        for set_id, expected_set in saved.items():
            assert replay.recover(set_id).equals(expected_set)


class TestRebuildIdempotence:
    @given(
        num_saves=st.integers(min_value=1, max_value=4),
        explicit_family=st.booleans(),
    )
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_plain_rebuild_twice_equals_once(self, num_saves, explicit_family):
        manager = MultiModelManager.with_approach("update")
        models = ModelSet.build("FFNN-48", num_models=NUM_MODELS, seed=0)
        metadata = (
            SetMetadata(extra={"family": "prop"}) if explicit_family else None
        )
        base_id = manager.save_set(models, metadata=metadata)
        previous = base_id
        for step in range(num_saves - 1):
            models = apply_perturbations(models, [(step % NUM_MODELS, 0)])
            previous = manager.save_set(models, base_set_id=previous)
        registry = manager.context.registry
        registry.rebuild([(None, manager.context)])
        once = registry_documents(registry)
        registry.rebuild([(None, manager.context)])
        assert registry_documents(registry) == once

    @given(num_saves=st.integers(min_value=1, max_value=3))
    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_fleet_rebuild_twice_equals_once(self, num_saves, tmp_path_factory):
        root = tmp_path_factory.mktemp("fleet-rebuild") / "fleet"
        fleet = FleetManager.open(root, "update", ArchiveConfig(shards=2))
        models = ModelSet.build("FFNN-48", num_models=NUM_MODELS, seed=0)
        previous = fleet.save_set(
            models, metadata=SetMetadata(extra={"family": "prop"})
        )
        for step in range(num_saves - 1):
            models = apply_perturbations(models, [(step % NUM_MODELS, 1)])
            previous = fleet.save_set(models, base_set_id=previous)
        count = fleet.rebuild_registry()
        assert count == num_saves
        once = registry_documents(fleet.registry)
        assert fleet.rebuild_registry() == count
        assert registry_documents(fleet.registry) == once
        # The rebuilt catalog still answers family recovery correctly.
        assert fleet.registry.resolve("prop") == previous
