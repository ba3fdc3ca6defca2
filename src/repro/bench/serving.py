"""Serving-path benchmark: tiered recovery cache under a read-heavy mix.

Drives the workload the serving layer exists for — a 95% recover / 5%
save mix with Zipf-skewed set popularity (newest sets hottest) — against
fleets of 1 and 4 shards with 1→32 concurrent readers, once with the
tiered cache on and once with it off, over the same seeded request
stream.

Latency is **simulated read latency per request**: every request runs
inside its own trace root and its latency is the root's rolled-up
simulated store seconds (:meth:`~repro.observability.trace.Span.total_simulated_s`).
A tier-1 hit touches no store, so it charges exactly zero; the cache-off
run replays the identical stream through the uncached path.  p50/p99
are computed over the recover requests only.

Three auxiliary sections back the tentpole claims:

* ``differential`` — an 8-version Update chain recovered newest-first:
  after v7 is cached, the cold v8 read fetches **only** the chunks whose
  digests v7's recovery did not already decode (chunk-granular reuse).
* ``degraded`` — a 2-replica archive with one replica down: a stale
  tier-1 entry is evicted, and the degraded re-read fails over to the
  surviving replica and still matches the pre-outage oracle bytes.
* byte-identity — in **every** configuration each live set's cached
  recovery is compared against the oracle (``approach.recover``, which
  bypasses the serving layer on the same context).

Determinism: the request stream (kinds, Zipf draws, perturbations) is a
pure function of the seed.  With one reader the interleaving is fixed;
with many readers only the cache-state interleaving varies, which the
assertions tolerate (they compare medians across whole runs, not single
requests).
"""

from __future__ import annotations

import threading
from typing import Any, Sequence

import numpy as np

from repro.config import ArchiveConfig, ObservabilityConfig, ServingConfig
from repro.core.manager import MultiModelManager
from repro.core.model_set import ModelSet
from repro.fleet import FleetManager
from repro.storage.hardware import SERVER_PROFILE

#: Zipf skew: pmf(rank) ∝ 1/(rank+1)^S, rank 0 = newest set.
ZIPF_S = 1.1
ARCHITECTURE = "FFNN-48"


def _zipf_pick(u: float, count: int) -> int:
    """Inverse-CDF draw from the rank-Zipf pmf over ``count`` items."""
    weights = 1.0 / np.power(np.arange(1, count + 1, dtype=np.float64), ZIPF_S)
    cdf = np.cumsum(weights / weights.sum())
    return int(np.searchsorted(cdf, u, side="right").clip(0, count - 1))


def _perturb(base: ModelSet, rng: np.random.Generator) -> ModelSet:
    """A derived version: ~20% of layers of one model nudged."""
    derived = base.copy()
    model = int(rng.integers(0, len(derived)))
    state = derived.state(model)
    names = list(state)
    changed = max(1, len(names) // 5)
    for name in rng.choice(len(names), size=changed, replace=False):
        layer = names[int(name)]
        state[layer] = (state[layer] + np.float32(rng.standard_normal())).astype(
            np.float32
        )
    return derived


def _build_requests(
    num_requests: int, save_fraction: float, seed: int
) -> list[tuple[str, float]]:
    """The seeded request stream: ``(kind, zipf_u)`` pairs."""
    rng = np.random.default_rng(seed)
    return [
        (
            "save" if rng.random() < save_fraction else "recover",
            float(rng.random()),
        )
        for _ in range(num_requests)
    ]


def _serving_config(cache_on: bool) -> ArchiveConfig:
    return ArchiveConfig(
        dedup=True,
        profile=SERVER_PROFILE,
        serving=ServingConfig(enabled=cache_on),
        observability=ObservabilityConfig(tracing=True),
    )


def _seed_versions(
    fleet: FleetManager, num_versions: int, models_per_set: int, seed: int
) -> list[str]:
    """One derivation chain per shard, ``num_versions`` sets total."""
    rng = np.random.default_rng(seed)
    shards = len(fleet.shards)
    versions: list[str] = []
    latest_per_chain: list[tuple[str, ModelSet]] = []
    for chain in range(shards):
        base = ModelSet.build(
            ARCHITECTURE, num_models=models_per_set, seed=seed + chain
        )
        set_id = fleet.save_set(base)
        versions.append(set_id)
        latest_per_chain.append((set_id, base))
    for index in range(num_versions - shards):
        chain = index % shards
        base_id, base_set = latest_per_chain[chain]
        derived = _perturb(base_set, rng)
        set_id = fleet.save_set(derived, base_set_id=base_id)
        versions.append(set_id)
        latest_per_chain[chain] = (set_id, derived)
    return versions


def _run_config(
    shards: int,
    readers: int,
    cache_on: bool,
    requests: list[tuple[str, float]],
    num_versions: int,
    models_per_set: int,
    seed: int,
) -> dict[str, Any]:
    config = _serving_config(cache_on)
    if shards > 1:
        config = config.with_(shards=shards)
    fleet = FleetManager.with_approach("update", config)
    versions = _seed_versions(fleet, num_versions, models_per_set, seed)
    sets_lock = threading.Lock()
    latest: dict[int, tuple[str, ModelSet]] = {}
    for set_id in versions:
        shard = fleet.shard_of(set_id)
        latest[shard] = (set_id, fleet.recover_set(set_id))  # warm pre-pass

    read_latencies: list[float] = []
    latency_lock = threading.Lock()
    next_request = [0]
    save_rng_lock = threading.Lock()
    save_rng = np.random.default_rng(seed + 1)

    def serve(ordinal: int, kind: str, u: float) -> None:
        with sets_lock:
            live = list(versions)
        if kind == "save":
            with sets_lock:
                chains = sorted(latest)
                shard = chains[ordinal % len(chains)]
                base_id, base_set = latest[shard]
            with save_rng_lock:
                derived = _perturb(base_set, save_rng)
            with fleet.tracer.trace("request", key=ordinal, op="save"):
                set_id = fleet.save_set(derived, base_set_id=base_id)
            with sets_lock:
                versions.append(set_id)
                latest[shard] = (set_id, derived)
            return
        # Newest-first Zipf: rank 0 is the most recently saved set.
        target = live[len(live) - 1 - _zipf_pick(u, len(live))]
        with fleet.tracer.trace("request", key=ordinal, op="recover") as root:
            fleet.recover_set(target)
        with latency_lock:
            read_latencies.append(root.total_simulated_s())

    def worker() -> None:
        while True:
            with latency_lock:
                ordinal = next_request[0]
                if ordinal >= len(requests):
                    return
                next_request[0] += 1
            kind, u = requests[ordinal]
            serve(ordinal, kind, u)

    threads = [threading.Thread(target=worker) for _ in range(readers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    # Byte-identity: every live set's served bytes vs the uncached oracle.
    identical = True
    for set_id in versions:
        manager = fleet.shards[fleet.shard_of(set_id)]
        if not fleet.recover_set(set_id).equals(manager.approach.recover(set_id)):
            identical = False

    latencies = np.asarray(read_latencies, dtype=np.float64)
    entry: dict[str, Any] = {
        "shards": shards,
        "readers": readers,
        "cache": "on" if cache_on else "off",
        "requests": len(requests),
        "recover_requests": int(latencies.size),
        "p50_read_s": float(np.percentile(latencies, 50)),
        "p99_read_s": float(np.percentile(latencies, 99)),
        "mean_read_s": float(latencies.mean()),
        "identical_to_oracle": identical,
    }
    if cache_on:
        counters = fleet.serving_counters()
        entry["set_hit_rate"] = counters["set_hit_rate"]
        entry["chunk_hit_rate"] = counters["chunk_hit_rate"]
        entry["bytes_saved"] = counters["bytes_saved"]
        entry["logical_bytes_served"] = counters["logical_bytes_served"]
    return entry


def _run_differential(models_per_set: int, seed: int) -> dict[str, Any]:
    """Cold v8-after-v7: only the chunks v7 didn't already decode move."""
    manager = MultiModelManager.with_approach("update", _serving_config(True))
    rng = np.random.default_rng(seed)
    base = ModelSet.build(ARCHITECTURE, num_models=models_per_set, seed=seed)
    versions = [manager.save_set(base)]
    sets = [base]
    for _ in range(7):
        derived = _perturb(sets[-1], rng)
        versions.append(manager.save_set(derived, base_set_id=versions[-1]))
        sets.append(derived)
    serving = manager.context.serving
    manager.recover_set(versions[-2])  # v7 populates tier 2
    serving.evict()  # drop tier 1, keep decoded chunks
    cached_digests = set(serving.chunks.keys())
    v8_digests = _unique_digests(manager, versions[-1])
    expected_cold = len(v8_digests - cached_digests)
    before = serving.stats.counters()
    recovered = manager.recover_set(versions[-1])
    after = serving.stats.counters()
    fetched = after["chunk_misses"] - before["chunk_misses"]
    reused = after["chunk_hits"] - before["chunk_hits"]
    return {
        "v8_unique_chunks": len(v8_digests),
        "chunks_fetched_cold": fetched,
        "chunks_reused": reused,
        "expected_cold_fetches": expected_cold,
        "chunk_granular": fetched == expected_cold and fetched < len(v8_digests),
        "identical_to_oracle": recovered.equals(
            manager.approach.recover(versions[-1])
        ),
    }


def _unique_digests(manager: MultiModelManager, set_id: str) -> set:
    from repro.core.recovery import digest_matrix

    document = manager.context.set_document(set_id)
    matrix = digest_matrix(manager.context, document, set_id)
    return {digest for row in matrix for digest in row}


def _run_degraded(models_per_set: int, seed: int, fault_seed: int) -> dict[str, Any]:
    """Replica outage: cache serves hits, misses fail over, bytes match."""
    from repro.storage.faults import FaultInjector, inject_replica_faults

    config = _serving_config(True).with_(replicas=2)
    manager = MultiModelManager.with_approach("update", config)
    rng = np.random.default_rng(seed)
    base = ModelSet.build(ARCHITECTURE, num_models=models_per_set, seed=seed)
    set_id = manager.save_set(base)
    derived = _perturb(base, rng)
    derived_id = manager.save_set(derived, base_set_id=set_id)

    oracle = manager.approach.recover(derived_id)  # pre-outage bytes
    manager.recover_set(derived_id)  # warm tier 1
    downed = fault_seed % 2
    inject_replica_faults(
        manager.context, downed, FaultInjector(down_at=0, down_mode="before")
    )
    hit = manager.recover_set(derived_id)  # tier-1 hit, no store touched
    hit_ok = hit.equals(oracle)
    serving = manager.context.serving
    serving.evict(chunks=True)  # stale-entry scenario: force a cold re-read
    degraded = manager.recover_set(derived_id)  # hedged/failover read path
    return {
        "fault_seed": fault_seed,
        "replica_down": downed,
        "hit_served_during_outage": hit_ok,
        "degraded_identical": degraded.equals(oracle),
    }


def run_serving_benchmark(
    shard_counts: Sequence[int] = (1, 4),
    reader_counts: Sequence[int] = (1, 8, 32),
    num_versions: int = 6,
    models_per_set: int = 8,
    num_requests: int = 200,
    save_fraction: float = 0.05,
    seed: int = 0,
    fault_seed: int = 0,
) -> dict[str, Any]:
    requests = _build_requests(num_requests, save_fraction, seed)
    configs = []
    for shards in shard_counts:
        for readers in reader_counts:
            for cache_on in (True, False):
                configs.append(
                    _run_config(
                        shards,
                        readers,
                        cache_on,
                        requests,
                        num_versions,
                        models_per_set,
                        seed,
                    )
                )
    speedups: dict[str, float] = {}
    for shards in shard_counts:
        for readers in reader_counts:
            on = _find(configs, shards, readers, "on")
            off = _find(configs, shards, readers, "off")
            speedups[f"p50_s{shards}_r{readers}"] = off["p50_read_s"] / max(
                on["p50_read_s"], 1e-12
            )
    return {
        "workload": {
            "architecture": ARCHITECTURE,
            "models_per_set": models_per_set,
            "num_versions": num_versions,
            "num_requests": num_requests,
            "save_fraction": save_fraction,
            "zipf_s": ZIPF_S,
            "seed": seed,
        },
        "configs": configs,
        "speedups": speedups,
        "differential": _run_differential(models_per_set, seed),
        "degraded": _run_degraded(models_per_set, seed, fault_seed),
    }


def _find(configs: list[dict], shards: int, readers: int, cache: str) -> dict:
    for entry in configs:
        if (
            entry["shards"] == shards
            and entry["readers"] == readers
            and entry["cache"] == cache
        ):
            return entry
    raise KeyError((shards, readers, cache))


def format_report(report: dict[str, Any]) -> str:
    lines = ["serving benchmark (95% recover / 5% save, Zipf reads)"]
    lines.append(
        f"{'shards':>6} {'readers':>7} {'cache':>5} {'p50 ms':>10} "
        f"{'p99 ms':>10} {'set hit':>8} {'chunk hit':>9}"
    )
    for entry in report["configs"]:
        set_hit = (
            f"{entry['set_hit_rate']:.1%}" if "set_hit_rate" in entry else "-"
        )
        chunk_hit = (
            f"{entry['chunk_hit_rate']:.1%}" if "chunk_hit_rate" in entry else "-"
        )
        lines.append(
            f"{entry['shards']:>6} {entry['readers']:>7} {entry['cache']:>5} "
            f"{entry['p50_read_s'] * 1e3:>10.4f} "
            f"{entry['p99_read_s'] * 1e3:>10.4f} {set_hit:>8} {chunk_hit:>9}"
        )
    for name, value in sorted(report["speedups"].items()):
        lines.append(f"speedup {name}: {value:.1f}x")
    diff = report["differential"]
    lines.append(
        f"differential: v8 has {diff['v8_unique_chunks']} unique chunks, "
        f"cold read fetched {diff['chunks_fetched_cold']} "
        f"(reused {diff['chunks_reused']})"
    )
    deg = report["degraded"]
    lines.append(
        f"degraded (replica {deg['replica_down']} down): "
        f"hit served: {deg['hit_served_during_outage']}, "
        f"failover identical: {deg['degraded_identical']}"
    )
    return "\n".join(lines)
