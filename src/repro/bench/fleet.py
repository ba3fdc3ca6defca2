"""Fleet scaling sweep: concurrent writers over sharded archives.

Drives the scenario the fleet engine exists for — many training jobs
emitting bursty per-model updates concurrently — against fleets of
1/2/4/8 shards, through the coalescing :class:`~repro.fleet.IngestQueue`
with a real writer-thread pool.

Time-to-save is charged as **makespan**: shards are independent archives
working in parallel, so a phase's fleet TTS is the *maximum* over shards
of the simulated store seconds that phase charged to each shard (the
same greedy-lane accounting :func:`~repro.storage.hardware.makespan`
uses for the engine's worker lanes) — not the sum a serial archive
would pay.

Determinism: writer threads own disjoint chains and flushes trigger on
per-chain submission counts, so every chain's batch boundaries — and
therefore every saved set's *contents* and every shard's simulated
total — are independent of thread scheduling.  Only the interleaving of
set ids across chains varies, which changes no byte of any recovered
set.  An in-memory serial oracle replays each chain's submission stream
(last-writer-wins within each batch window) and every saved set is
recovered and compared against it.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Any, Sequence

import numpy as np

from repro.bench.scaling import set_digest
from repro.config import ArchiveConfig
from repro.core.model_set import ModelSet
from repro.fleet import FleetManager, IngestQueue
from repro.storage.hardware import ARCHIVE_PROFILE, HardwareProfile


def _chain_stream(
    base: ModelSet, chain: int, bursts: int, burst_size: int
) -> list[tuple[int, "OrderedDict[str, np.ndarray]"]]:
    """Chain ``chain``'s full submission stream: (model_index, state) pairs.

    Bursty by construction: each burst cycles the model indices faster
    than it moves on, so within one flush window the same index is
    submitted repeatedly — the overwrites the queue's last-writer-wins
    coalescing elides.  States are a deterministic function of
    ``(chain, submission ordinal)`` only.
    """
    num_models = len(base)
    stream = []
    ordinal = 0
    for _burst in range(bursts):
        for j in range(burst_size):
            index = j % num_models
            state = OrderedDict(
                (
                    name,
                    (array + 0.001 * (ordinal + 1) + chain).astype(array.dtype),
                )
                for name, array in base.state(index).items()
            )
            stream.append((index, state))
            ordinal += 1
    return stream


def _oracle_batches(
    base: ModelSet,
    stream: "list[tuple[int, OrderedDict]]",
    flush_max_updates: int,
) -> list[ModelSet]:
    """Expected contents of each flushed save, replayed serially.

    The queue materializes the chain once and applies each batch in
    place, so the k-th flush persists the base plus every update from
    batches 0..k (later batches overwriting earlier indices).
    """
    current = base.copy()
    snapshots: list[ModelSet] = []
    for start in range(0, len(stream), flush_max_updates):
        for index, state in stream[start : start + flush_max_updates]:
            current.states[index] = state
        snapshots.append(current.copy())
    return snapshots


def run_fleet_scaling(
    shard_counts: Sequence[int] = (1, 2, 4, 8),
    writer_counts: Sequence[int] = (1, 8, 64),
    num_chains: int = 48,
    num_models: int = 4,
    bursts: int = 3,
    burst_size: int = 8,
    flush_max_updates: int = 8,
    architecture: str = "FFNN-48",
    profile: HardwareProfile = ARCHIVE_PROFILE,
    approach: str = "update",
) -> dict[str, Any]:
    """Sweep writers x shards; returns the full report dictionary.

    Every configuration replays the *same* workload: ``num_chains``
    seeded root sets, then each chain's fixed bursty update stream
    pushed through an :class:`IngestQueue` by ``writers`` concurrent
    threads (chains partitioned round-robin, so each chain has exactly
    one writer).
    """
    base = ModelSet.build(architecture, num_models=num_models, seed=0)
    stream_cache = [
        _chain_stream(base, chain, bursts, burst_size)
        for chain in range(num_chains)
    ]
    oracle = [
        _oracle_batches(base, stream, flush_max_updates)
        for stream in stream_cache
    ]
    configs: list[dict[str, Any]] = []
    for shards in shard_counts:
        for writers in writer_counts:
            configs.append(
                _run_config(
                    shards=shards,
                    writers=writers,
                    base=base,
                    streams=stream_cache,
                    oracle=oracle,
                    flush_max_updates=flush_max_updates,
                    profile=profile,
                    approach=approach,
                )
            )
    # Cross-config identity: the k-th flush of chain c must recover to
    # the same bytes at every shard/writer count.
    digest_sets = {
        tuple(sorted(config["chain_digests"].items())) for config in configs
    }
    speedups: dict[str, float] = {}
    by_key = {(c["shards"], c["writers"]): c for c in configs}
    for writers in writer_counts:
        baseline = by_key.get((1, writers))
        if baseline is None:
            continue
        for shards in shard_counts:
            entry = by_key.get((shards, writers))
            if entry is None or shards == 1:
                continue
            speedups[f"update_tts_s{shards}_vs_s1_w{writers}"] = (
                baseline["update_tts_s"] / entry["update_tts_s"]
            )
    return {
        "config": {
            "shard_counts": list(shard_counts),
            "writer_counts": list(writer_counts),
            "num_chains": num_chains,
            "num_models": num_models,
            "bursts": bursts,
            "burst_size": burst_size,
            "flush_max_updates": flush_max_updates,
            "architecture": architecture,
            "approach": approach,
            "profile": profile.name,
        },
        "configs": configs,
        "speedups": speedups,
        "identical_across_configs": len(digest_sets) == 1,
    }


def _run_config(
    shards: int,
    writers: int,
    base: ModelSet,
    streams: "list[list[tuple[int, OrderedDict]]]",
    oracle: "list[list[ModelSet]]",
    flush_max_updates: int,
    profile: HardwareProfile,
    approach: str,
) -> dict[str, Any]:
    num_chains = len(streams)
    fleet = FleetManager.with_approach(
        approach, ArchiveConfig(shards=shards, profile=profile)
    )
    # -- seed phase: one root set per chain ------------------------------
    before = fleet.shard_simulated_s()
    roots = [fleet.save_set(base) for _ in range(num_chains)]
    after_seed = fleet.shard_simulated_s()
    seed_tts = max(b - a for a, b in zip(before, after_seed))

    # -- update phase: concurrent writers through the ingest queue -------
    queue = IngestQueue(fleet, flush_max_updates=flush_max_updates)
    errors: list[BaseException] = []

    def writer(worker: int) -> None:
        try:
            my_chains = [c for c in range(num_chains) if c % writers == worker]
            # Interleave bursts across this writer's chains so arrivals
            # are bursty per chain but mixed across chains, like
            # concurrent training jobs checkpointing out of phase.
            cursor = [0] * len(my_chains)
            remaining = sum(len(streams[c]) for c in my_chains)
            while remaining:
                for slot, chain in enumerate(my_chains):
                    stream = streams[chain]
                    start = cursor[slot]
                    if start >= len(stream):
                        continue
                    stop = min(start + flush_max_updates, len(stream))
                    for index, state in stream[start:stop]:
                        queue.submit(roots[chain], index, state)
                    cursor[slot] = stop
                    remaining -= stop - start
        except BaseException as error:  # noqa: BLE001 - re-raised below
            errors.append(error)

    wall_start = time.perf_counter()
    threads = [
        threading.Thread(target=writer, args=(w,), name=f"writer-{w}")
        for w in range(writers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    queue.drain()
    wall_s = time.perf_counter() - wall_start
    if errors:
        raise errors[0]
    after_update = fleet.shard_simulated_s()
    per_shard = [b - a for a, b in zip(after_seed, after_update)]
    update_tts = max(per_shard)

    # -- identity: recover every flushed save, compare to the oracle ----
    flush_seq: dict[str, int] = {}
    chain_of_root = {root: chain for chain, root in enumerate(roots)}
    chain_digests: dict[str, str] = {}
    identical = True
    for entry in queue.flush_log:
        chain = chain_of_root[entry["root"]]
        k = flush_seq.get(entry["root"], 0)
        flush_seq[entry["root"]] = k + 1
        recovered = fleet.recover_set(entry["set_id"])
        expected = oracle[chain][k]
        if not recovered.equals(expected):
            identical = False
        chain_digests[f"{chain}:{k}"] = set_digest(recovered)
    flushes_expected = sum(len(batches) for batches in oracle)
    queue.close()
    return {
        "shards": shards,
        "writers": writers,
        "seed_tts_s": seed_tts,
        "update_tts_s": update_tts,
        "per_shard_update_s": per_shard,
        "wall_s": wall_s,
        "updates_submitted": queue.updates_submitted,
        "updates_coalesced": queue.updates_coalesced,
        "flushes": queue.flushes,
        "flushes_expected": flushes_expected,
        "models_written": queue.models_written,
        "coalescing_ratio": queue.coalescing_ratio,
        "write_elision_ratio": queue.write_elision_ratio,
        "max_lock_wait_s": max(lock.wait_s for lock in fleet.shard_locks),
        "identical_to_oracle": identical
        and queue.flushes == flushes_expected,
        "chain_digests": chain_digests,
    }


def format_report(report: dict[str, Any]) -> str:
    """Human-readable sweep summary (one row per shards x writers)."""
    config = report["config"]
    lines = [
        "Fleet scaling — {num_chains} chains x {num_models} models "
        "({architecture}), {bursts}x{burst_size} bursty updates/chain, "
        "flush every {flush_max_updates}, {profile} profile".format(**config),
        "",
        f"{'shards':>6} {'writers':>8} {'update TTS':>12} {'speedup':>8} "
        f"{'wall':>8} {'coalesce':>9} {'oracle':>7}",
    ]
    by_key = {(c["shards"], c["writers"]): c for c in report["configs"]}
    for entry in report["configs"]:
        baseline = by_key.get((1, entry["writers"]), entry)
        speedup = baseline["update_tts_s"] / entry["update_tts_s"]
        lines.append(
            f"{entry['shards']:>6} {entry['writers']:>8} "
            f"{entry['update_tts_s']:>11.3f}s {speedup:>7.2f}x "
            f"{entry['wall_s']:>7.2f}s {entry['coalescing_ratio']:>8.2f}x "
            f"{'ok' if entry['identical_to_oracle'] else 'MISMATCH':>7}"
        )
    return "\n".join(lines)
