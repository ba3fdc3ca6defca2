"""Fleet serving: per-shard tier 1, one shared tier 2, aggregate counters."""

import numpy as np

from repro.config import ArchiveConfig, ObservabilityConfig, ServingConfig
from repro.core.model_set import ModelSet
from repro.fleet import FleetManager


def fleet_manager(shards=2, **serving_kwargs):
    config = ArchiveConfig(
        dedup=True,
        shards=shards,
        serving=ServingConfig(enabled=True, **serving_kwargs),
    )
    return FleetManager.with_approach("update", config)


def test_every_shard_gets_a_serving_cache():
    fleet = fleet_manager(shards=3)
    assert len(fleet.serving_caches) == 3
    for manager, cache in zip(fleet.shards, fleet.serving_caches):
        assert manager.context.serving is cache


def test_tier2_is_shared_across_shards():
    fleet = fleet_manager(shards=2)
    assert fleet.chunk_cache is not None
    for cache in fleet.serving_caches:
        assert cache.chunks is fleet.chunk_cache


def test_identical_sets_on_different_shards_share_chunks():
    fleet = fleet_manager(shards=2)
    models = ModelSet.build("FFNN-48", num_models=2, seed=0)
    first = fleet.save_set(models)
    second = fleet.save_set(models.copy())
    shard_a, shard_b = fleet.shard_of(first), fleet.shard_of(second)
    if shard_a == shard_b:  # placement collapsed both onto one shard
        return
    assert fleet.recover_set(first).equals(models)
    before = fleet.serving_counters()
    assert fleet.recover_set(second).equals(models)
    after = fleet.serving_counters()
    # The second shard's cold read found every chunk in the shared tier 2.
    assert after["chunk_hits"] - before["chunk_hits"] > 0
    assert after["chunk_misses"] == before["chunk_misses"]


def test_fleet_counters_do_not_double_count_the_shared_tier2():
    fleet = fleet_manager(shards=2)
    for seed in range(2):
        set_id = fleet.save_set(ModelSet.build("FFNN-48", num_models=2, seed=seed))
        fleet.recover_set(set_id)
    counters = fleet.serving_counters()
    assert counters["chunk_cache_entries"] == len(fleet.chunk_cache)


def test_fleet_recovery_byte_identical_with_cache():
    fleet = fleet_manager(shards=2)
    sets = {}
    for seed in range(3):
        models = ModelSet.build("FFNN-48", num_models=2, seed=seed)
        sets[fleet.save_set(models)] = models
    for set_id, models in sets.items():
        assert fleet.recover_set(set_id).equals(models)  # cold
        assert fleet.recover_set(set_id).equals(models)  # warm
    counters = fleet.serving_counters()
    assert counters["set_hits"] == 3
    assert counters["set_hit_rate"] == 0.5


def test_shard_configs_disable_their_own_serving():
    # A fleet shard builds no serving stack of its own: its one cache sits
    # over the fleet's shared tier 2 and exports under the shard's prefix.
    from repro.observability.metrics import global_registry

    registry = global_registry()
    registry.reset()
    config = ArchiveConfig(
        shards=2,
        serving=ServingConfig(enabled=True),
        observability=ObservabilityConfig(metrics=True),
    )
    try:
        fleet = FleetManager.with_approach("update", config)
        names = set(registry.collect())
        assert {"fleet_shard_0_serving_requests", "fleet_shard_1_serving_requests"} <= names
        assert not any(name.startswith("serving_") for name in names)
        assert {id(cache.chunks) for cache in fleet.serving_caches} == {id(fleet.chunk_cache)}
    finally:
        registry.reset()
