"""The tiered cache under a 95 % recover / 5 % save mix with Zipf reads.

One seeded request stream runs against fleets of 1 and 4 shards with 1
and 4 concurrent readers, once with the serving cache and once without.
A request's latency is the simulated store seconds its trace root
charged, so a tier-1 hit costs exactly zero; p50 is taken over the
recover requests. Newest sets are the most popular (rank 0 = newest).
"""

import threading

import numpy as np
import pytest

from repro.config import ArchiveConfig, ObservabilityConfig, ServingConfig
from repro.core.manager import MultiModelManager
from repro.core.model_set import ModelSet
from repro.fleet import FleetManager
from repro.storage.faults import FaultInjector, inject_replica_faults
from repro.storage.hardware import SERVER_PROFILE

ZIPF_S = 1.1
VERSIONS = 4
MODELS = 4
REQUESTS = 60
SAVE_FRACTION = 0.05
SHARDS = (1, 4)
READERS = (1, 4)


def zipf_rank(u, count):
    """Inverse-CDF draw of a rank from pmf(rank) ∝ 1 / (rank + 1) ** ZIPF_S."""
    weights = 1.0 / np.power(np.arange(1, count + 1, dtype=np.float64), ZIPF_S)
    cdf = np.cumsum(weights / weights.sum())
    return int(np.searchsorted(cdf, u, side="right").clip(0, count - 1))


def perturb(base, rng):
    """A derived version: about a fifth of one model's layers nudged."""
    derived = base.copy()
    state = derived.state(int(rng.integers(0, len(derived))))
    names = list(state)
    for position in rng.choice(len(names), size=max(1, len(names) // 5), replace=False):
        name = names[int(position)]
        state[name] = (state[name] + np.float32(rng.standard_normal())).astype(np.float32)
    return derived


def serving_config(cache_on):
    return ArchiveConfig(
        dedup=True,
        profile=SERVER_PROFILE,
        serving=ServingConfig(enabled=cache_on),
        observability=ObservabilityConfig(tracing=True),
    )


def run_mix(shards, readers, cache_on, requests):
    fleet = FleetManager.with_approach(
        "update", serving_config(cache_on).with_(shards=shards)
    )
    # One chain per shard, VERSIONS sets in all, each read once to warm.
    rng = np.random.default_rng(0)
    heads = [
        (None, ModelSet.build("FFNN-48", num_models=MODELS, seed=chain))
        for chain in range(shards)
    ]
    versions = []
    for ordinal in range(VERSIONS):
        chain = ordinal % shards
        base_id, models = heads[chain]
        if base_id is not None:
            models = perturb(models, rng)
        set_id = fleet.save_set(models, base_set_id=base_id)
        versions.append(set_id)
        heads[chain] = (set_id, models)
        fleet.recover_set(set_id)

    lock = threading.Lock()
    pending = list(enumerate(requests))
    latencies = []
    save_rng = np.random.default_rng(1)

    def serve(ordinal, kind, u):
        if kind == "save":
            with lock:
                chain = ordinal % len(heads)
                base_id, models = heads[chain]
                derived = perturb(models, save_rng)
            with fleet.tracer.trace("request", key=ordinal, op="save"):
                set_id = fleet.save_set(derived, base_set_id=base_id)
            with lock:
                versions.append(set_id)
                heads[chain] = (set_id, derived)
            return
        with lock:
            target = versions[len(versions) - 1 - zipf_rank(u, len(versions))]
        with fleet.tracer.trace("request", key=ordinal, op="recover") as root:
            fleet.recover_set(target)
        with lock:
            latencies.append(root.total_simulated_s())

    def reader():
        while True:
            with lock:
                if not pending:
                    return
                ordinal, (kind, u) = pending.pop(0)
            serve(ordinal, kind, u)

    threads = [threading.Thread(target=reader) for _ in range(readers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    identical = all(
        fleet.recover_set(set_id).equals(
            fleet.shards[fleet.shard_of(set_id)].approach.recover(set_id)
        )
        for set_id in versions
    )
    return {
        "p50_s": float(np.percentile(latencies, 50)),
        "set_hit_rate": fleet.serving_counters()["set_hit_rate"] if cache_on else None,
        "identical": identical,
    }


@pytest.fixture(scope="module")
def mix():
    rng = np.random.default_rng(0)
    requests = [
        ("save" if rng.random() < SAVE_FRACTION else "recover", float(rng.random()))
        for _ in range(REQUESTS)
    ]
    return {
        (shards, readers, cache_on): run_mix(shards, readers, cache_on, requests)
        for shards in SHARDS
        for readers in READERS
        for cache_on in (True, False)
    }


def test_cache_cuts_warm_p50_fivefold_everywhere(mix):
    for shards in SHARDS:
        for readers in READERS:
            on, off = mix[shards, readers, True], mix[shards, readers, False]
            # A warm p50 of zero (a tier-1 hit) still needs a nonzero uncached p50.
            assert off["p50_s"] / max(on["p50_s"], 1e-12) >= 5.0, (shards, readers)


def test_cache_serves_tier1_hits(mix):
    for (shards, readers, cache_on), run in mix.items():
        if cache_on:
            assert run["set_hit_rate"] > 0.0, (shards, readers)


def test_every_config_matches_the_uncached_oracle(mix):
    for key, run in mix.items():
        assert run["identical"], key


@pytest.mark.parametrize("downed", [0, 1])
def test_replica_outage_serves_hits_and_fails_over_cold_reads(downed):
    manager = MultiModelManager.with_approach(
        "update", serving_config(True).with_(replicas=2)
    )
    base = ModelSet.build("FFNN-48", num_models=MODELS, seed=0)
    base_id = manager.save_set(base)
    derived_id = manager.save_set(
        perturb(base, np.random.default_rng(0)), base_set_id=base_id
    )
    oracle = manager.approach.recover(derived_id)
    manager.recover_set(derived_id)  # warms tier 1
    inject_replica_faults(
        manager.context, downed, FaultInjector(down_at=0, down_mode="before")
    )
    serving = manager.context.serving
    hits = serving.stats.set_hits
    assert manager.recover_set(derived_id).equals(oracle)
    assert serving.stats.set_hits == hits + 1
    serving.evict(chunks=True)
    assert manager.recover_set(derived_id).equals(oracle)  # fails over
