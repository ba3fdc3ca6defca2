"""Chaos harness: a seeded shard outage under concurrent fleet ingest.

The graceful-degradation stack (``repro.fleet.health`` +
``repro.fleet.deadletter``) makes a strong promise: a shard outage may
*delay* accepted updates, but it may never lose or corrupt one, and it
may not degrade the shards that stayed healthy.  This harness drives the
promise end to end: ``num_writers`` concurrent writer threads each own
one recovery chain and push one full update cycle per barrier round
through an :class:`~repro.fleet.IngestQueue` (``block`` backpressure,
bounded per-shard watermarks), Zipf-ranked reader threads hammer the
recently flushed sets through the serving cache, and at a seeded cycle
one shard's stores are taken down cold (every operation raises) until a
seeded revive cycle.

What the run records — and ``benchmarks/bench_chaos.py`` asserts:

* **Zero accepted-update loss.**  Every update that ``submit()``
  accepted is accounted for: flushed ∪ dead-lettered = accepted before
  replay, and after :meth:`IngestQueue.replay_dead_letters` the
  dead-letter store is empty with every parked batch flushed.
* **Byte identity.**  Every verified flush (concurrent readers during
  the run, a seeded sample plus every replayed batch and every final
  chain head afterwards) is byte-identical to the serial oracle: each
  batch is a full overwrite of its chain at a known cycle, so expected
  contents are a pure function of ``(chain, cycle)``.
* **Bounded queue memory.**  Per-shard pending + in-flight load never
  exceeds the admission high watermark, outage or not.
* **Breaker lifecycle.**  The victim shard trips DOWN during the
  outage and half-open save probes close the breaker after the revive
  — in-process, without reopening the fleet.
* **Healthy shards stay fast.**  p99 simulated save latency on the
  non-victim shards stays within a small factor of a no-fault baseline
  run of the same workload.

Determinism: chain states are a function of ``(chain, cycle, model)``
only, each chain dispatches exactly one full batch per cycle (the flush
threshold equals the models-per-chain count), and the outage schedule
derives from ``fault_seed`` alone.  Thread interleavings vary, but every
asserted invariant is schedule-independent.
"""

from __future__ import annotations

import hashlib
import random
import shutil
import tempfile
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Any

import numpy as np

from repro.bench.report import percentile
from repro.config import (
    ArchiveConfig,
    FleetHealthConfig,
    ObservabilityConfig,
    ServingConfig,
)
from repro.core.model_set import ModelSet
from repro.errors import (
    IngestBackpressureError,
    IngestError,
    ReplicaUnavailableError,
    ShardUnavailableError,
)
from repro.fleet import FleetManager, IngestQueue
from repro.fleet.manager import shard_for
from repro.nn.serialization import parameters_to_bytes
from repro.storage.faults import FaultInjector, inject_faults
from repro.storage.hardware import ARCHIVE_PROFILE, HardwareProfile

__all__ = ["run_chaos_benchmark", "format_report"]


def cycle_state(
    base: ModelSet, chain: int, cycle: int, index: int
) -> "OrderedDict[str, np.ndarray]":
    """Model ``index``'s parameters after chain ``chain``'s cycle ``cycle``."""
    return OrderedDict(
        (name, (array + 0.001 * (cycle + 1) + chain).astype(array.dtype))
        for name, array in base.state(index).items()
    )


def oracle_set(base: ModelSet, chain: int, cycle: int) -> ModelSet:
    """Serial-oracle contents of chain ``chain`` after applying the batch
    of cycle ``cycle`` (every batch overwrites every model)."""
    expected = base.copy()
    for index in range(len(base)):
        expected.states[index] = cycle_state(base, chain, cycle, index)
    return expected


def set_digest(model_set: ModelSet) -> str:
    """Content hash of a recovered set, for byte-identity checks."""
    hasher = hashlib.sha256()
    for state in model_set.states:
        hasher.update(parameters_to_bytes(state))
    return hasher.hexdigest()


def _save_latencies_by_shard(fleet: FleetManager) -> "dict[int, list[float]]":
    """Simulated seconds of every fleet save span, keyed by shard."""
    by_shard: dict[int, list[float]] = {}
    if fleet.tracer is None:
        return by_shard
    for root in fleet.tracer.roots:
        if root.name != "fleet" or (root.attrs or {}).get("op") != "save":
            continue
        shard = None
        for child in root.children:
            value = (child.attrs or {}).get("shard")
            if value is not None:
                shard = int(value)
                break
        if shard is None:
            continue
        by_shard.setdefault(shard, []).append(root.total_simulated_s())
    return by_shard


def _fault_schedule(
    fault_seed: int, cycles: int, candidates: "list[int]"
) -> dict[str, Any]:
    """Seeded outage window and victim shard (ordering always holds)."""
    rng = random.Random(fault_seed)
    jitter = max(1, cycles // 8)
    start = max(2, cycles // 4 + rng.randrange(jitter))
    end = min(cycles - 3, start + max(3, cycles // 4))
    if end <= start:  # pragma: no cover - guarded by the cycles floor
        raise ValueError("cycles too low for an outage window")
    return {
        "outage_start_cycle": start,
        "outage_end_cycle": end,
        "victim_shard": candidates[rng.randrange(len(candidates))],
    }


def _chaos_config(
    shards: int,
    profile: HardwareProfile,
    health: FleetHealthConfig,
) -> ArchiveConfig:
    return ArchiveConfig(
        profile=profile,
        shards=shards,
        observability=ObservabilityConfig(tracing=True),
        serving=ServingConfig(enabled=True),
        health=health,
    )


def _start_readers(
    fleet: FleetManager,
    window: "list[dict]",
    window_lock: threading.Lock,
    stats: dict,
    stats_lock: threading.Lock,
    stop: threading.Event,
    readers: int,
    fault_seed: int,
) -> "list[threading.Thread]":
    """Zipf-ranked reader threads over the recent-flushes window.

    A read refused because the shard is DOWN (and not servable stale) is
    counted, never failed — routing around the outage is the behavior
    under test.  A read that races the breaker (the store is already
    dead but the second flush failure has not tripped the shard DOWN
    yet) sees the raw store outage instead of the typed refusal; that
    window is inherent to a failure detector driven by save outcomes,
    so those reads are counted separately, not failed.  Reads that do
    return must match the oracle digest.
    """

    def loop(worker: int) -> None:
        rng = random.Random(fault_seed * 104729 + worker)
        while not stop.is_set():
            with window_lock:
                if window:
                    rank = int(rng.paretovariate(1.16)) - 1
                    if rank >= len(window):
                        rank = rng.randrange(len(window))
                    entry = window[len(window) - 1 - rank]
                else:
                    entry = None
            if entry is None:
                time.sleep(0.001)
                continue
            try:
                recovered = fleet.recover_set(entry["set_id"])
            except ShardUnavailableError:
                with stats_lock:
                    stats["refused"] += 1
                continue
            except ReplicaUnavailableError:
                with stats_lock:
                    stats["raced_breaker"] += 1
                continue
            except BaseException as error:  # noqa: BLE001 - surfaced in report
                with stats_lock:
                    stats["errors"].append(repr(error))
                return
            matches = set_digest(recovered) == entry["digest"]
            with stats_lock:
                stats["reads"] += 1
                if not matches:
                    stats["mismatches"] += 1

    threads = []
    for worker in range(readers):
        thread = threading.Thread(
            target=loop, args=(worker,), name=f"chaos-reader-{worker}", daemon=True
        )
        thread.start()
        threads.append(thread)
    return threads


def _drain_quietly(queue: IngestQueue, failures: "list[dict]") -> None:
    """Drain, folding any aggregated ingest failure into ``failures``."""
    try:
        queue.drain()
    except IngestError as error:
        failures.append(
            {
                "message": str(error),
                "set_ids": list(error.set_ids),
                "shards": list(error.shards),
                "dead_letter_ids": list(error.dead_letter_ids),
            }
        )


def _run_workload(
    directory: Path,
    cycles: int,
    base: ModelSet,
    num_writers: int,
    config: ArchiveConfig,
    approach: str,
    fault_seed: int,
    readers: int,
    schedule: "dict[str, Any] | None",
    oracle_digests: "dict[tuple[int, int], str]",
) -> dict[str, Any]:
    """One pass of the workload: chaos run (with schedule) or baseline."""
    num_models = len(base)
    health = config.health
    fleet = FleetManager.open(str(directory), approach, config)
    queue = IngestQueue(fleet, flush_max_updates=num_models)

    def oracle_digest(chain: int, cycle: int) -> str:
        key = (chain, cycle)
        if key not in oracle_digests:
            oracle_digests[key] = set_digest(oracle_set(base, chain, cycle))
        return oracle_digests[key]

    # -- seed: one root set per chain (every chain starts at ``base``) ----
    keys = [fleet.save_set(base) for _ in range(num_writers)]
    chain_shard = [fleet.shard_of(key) for key in keys]
    root_chain = {key: chain for chain, key in enumerate(keys)}

    stats = {
        "backpressure_waits": 0,
        "writer_errors": [],
        "reads": 0,
        "mismatches": 0,
        "refused": 0,
        "raced_breaker": 0,
        "errors": [],
    }
    stats_lock = threading.Lock()
    window: list[dict] = []
    window_lock = threading.Lock()
    window_size = max(16, num_writers * 2)
    max_load = [0] * fleet.num_shards
    stop_monitor = threading.Event()
    stop_readers = threading.Event()
    barrier = threading.Barrier(num_writers + 1)

    def monitor_loop() -> None:
        consumed = 0
        while True:
            for index, load in enumerate(queue.shard_load()):
                if load > max_load[index]:
                    max_load[index] = load
            upto = len(queue.flush_log)
            for entry in queue.flush_log[consumed:upto]:
                chain = root_chain.get(entry["root"])
                if chain is None:
                    continue
                digest = oracle_digest(chain, entry["seq"])
                with window_lock:
                    window.append({"set_id": entry["set_id"], "digest": digest})
                    del window[:-window_size]
            consumed = upto
            if stop_monitor.is_set():
                return
            time.sleep(0.001)

    def writer_loop(chain: int) -> None:
        key = keys[chain]
        try:
            for cycle in range(cycles):
                barrier.wait()
                for index in range(num_models):
                    state = cycle_state(base, chain, cycle, index)
                    while True:
                        try:
                            queue.submit(key, index, state)
                            break
                        except IngestBackpressureError:
                            # Admission refused the update (load at the
                            # watermark and the block deadline expired):
                            # back off and re-offer — the workload's
                            # contract is that every update is
                            # eventually *accepted*, never dropped.
                            with stats_lock:
                                stats["backpressure_waits"] += 1
                            time.sleep(0.002)
                barrier.wait()
        except threading.BrokenBarrierError:
            return
        except BaseException as error:  # noqa: BLE001 - surfaced in report
            with stats_lock:
                stats["writer_errors"].append(repr(error))
            barrier.abort()

    monitor = threading.Thread(target=monitor_loop, name="chaos-monitor", daemon=True)
    monitor.start()
    reader_threads = _start_readers(
        fleet, window, window_lock, stats, stats_lock,
        stop_readers, readers, fault_seed,
    )
    writers = []
    for chain in range(num_writers):
        thread = threading.Thread(
            target=writer_loop, args=(chain,), name=f"chaos-writer-{chain}",
            daemon=True,
        )
        thread.start()
        writers.append(thread)

    injector: "FaultInjector | None" = None
    drain_failures: list[dict] = []
    try:
        # -- coordinator: barrier rounds + seeded fault events -------------
        for cycle in range(cycles):
            if schedule is not None:
                if cycle == schedule["outage_start_cycle"]:
                    victim_context = fleet.shards[
                        schedule["victim_shard"]
                    ].context
                    injector = inject_faults(
                        victim_context,
                        FaultInjector(
                            seed=fault_seed, down_at=0, down_mode="before"
                        ),
                    )
                if cycle == schedule["outage_end_cycle"] and injector is not None:
                    injector.revive()
            barrier.wait()  # release the writers into this cycle
            barrier.wait()  # every writer finished submitting the cycle
        for thread in writers:
            thread.join()
    except threading.BrokenBarrierError:
        for thread in writers:
            thread.join()
        raise RuntimeError(
            f"chaos writers failed: {stats['writer_errors']}"
        ) from None
    finally:
        stop_readers.set()
        for thread in reader_threads:
            thread.join()

    _drain_quietly(queue, drain_failures)

    # -- post-revive: half-open save probes close the breaker in-process --
    batches = [cycles] * num_writers
    probe_rounds = 0
    victim = schedule["victim_shard"] if schedule is not None else None
    if victim is not None and fleet.health.is_down(victim):
        probe_chain = next(
            chain for chain in range(num_writers) if chain_shard[chain] == victim
        )
        while fleet.health.is_down(victim) and probe_rounds < 25:
            cycle = batches[probe_chain]
            for index in range(num_models):
                queue.submit(
                    keys[probe_chain],
                    index,
                    cycle_state(base, probe_chain, cycle, index),
                )
            batches[probe_chain] += 1
            probe_rounds += 1
            _drain_quietly(queue, drain_failures)
    stop_monitor.set()
    monitor.join()

    # -- accounting before replay: flushed ∪ dead-lettered = accepted -----
    accepted = queue.updates_submitted
    coalesced = queue.updates_coalesced
    pre_replay_log = list(queue.flush_log)
    flushed_models = sum(entry["models"] for entry in pre_replay_log)
    parked_before = (
        fleet.deadletter.entries() if queue.dead_lettered else []
    )
    parked_models = sum(len(entry["models"]) for entry in parked_before)
    deadletter_bytes = fleet.deadletter.total_bytes() if parked_before else 0

    # -- replay: every parked batch back through the normal ingest path ---
    replay = queue.replay_dead_letters()
    replay_log = queue.flush_log[len(pre_replay_log):]
    dead_letters_remaining = (
        fleet.deadletter.count if (parked_before or replay["failed"]) else 0
    )

    # -- byte identity against the serial oracle --------------------------
    # Cycle of each flushed batch: pre-replay dispatches carry their
    # per-chain sequence number (== cycle, one dispatch per cycle);
    # replay flushes map 1:1, in order per chain, to the parked entries
    # replayed for that chain (full-overwrite batches of a known cycle).
    entry_cycle: dict[str, int] = {
        entry["set_id"]: entry["seq"] for entry in pre_replay_log
    }
    parked_by_id = {entry["id"]: entry for entry in parked_before}
    replay_expect: dict[str, list[int]] = {}
    for entry_id in replay["replayed"]:
        parked = parked_by_id[entry_id]
        replay_expect.setdefault(parked["root"], []).append(int(parked["seq"]))
    replayed_verified = replayed_mismatches = 0
    for entry in replay_log:
        queued = replay_expect.get(entry["root"])
        if not queued:
            continue
        cycle = queued.pop(0)
        entry_cycle[entry["set_id"]] = cycle
        chain = root_chain[entry["root"]]
        replayed_verified += 1
        if set_digest(fleet.recover_set(entry["set_id"])) != oracle_digest(
            chain, cycle
        ):
            replayed_mismatches += 1

    # Final head of every chain: the last flush in application order.
    last_entry: dict[str, dict] = {}
    for entry in pre_replay_log + replay_log:
        last_entry[entry["root"]] = entry
    final_checked = final_mismatches = 0
    for chain in range(num_writers):
        entry = last_entry.get(keys[chain])
        if entry is None:
            continue
        final_checked += 1
        expected = oracle_digest(chain, entry_cycle[entry["set_id"]])
        if set_digest(fleet.recover_set(entry["set_id"])) != expected:
            final_mismatches += 1

    # A seeded sample of historical flushes, re-read from storage.
    rng = random.Random(fault_seed + 1)
    sample_size = min(64, len(pre_replay_log))
    sampled_verified = sampled_mismatches = 0
    for position in sorted(rng.sample(range(len(pre_replay_log)), sample_size)):
        entry = pre_replay_log[position]
        chain = root_chain[entry["root"]]
        sampled_verified += 1
        if set_digest(fleet.recover_set(entry["set_id"])) != oracle_digest(
            chain, entry["seq"]
        ):
            sampled_mismatches += 1

    _drain_quietly(queue, drain_failures)
    queue.close()
    latencies = _save_latencies_by_shard(fleet)
    serving = fleet.serving_counters() or {}
    return {
        "victim_shard": victim,
        "chains_on_victim": (
            sum(1 for shard in chain_shard if shard == victim)
            if victim is not None
            else 0
        ),
        "accounting": {
            "accepted": accepted,
            "coalesced": coalesced,
            "flushed_models_before_replay": flushed_models,
            "parked_batches": len(parked_before),
            "parked_models": parked_models,
            "replayed_batches": len(replay["replayed"]),
            "replay_skipped": replay["skipped"],
            "replay_failed": replay["failed"],
            "replayed_models": queue.updates_replayed,
            "flushed_models_total": sum(
                entry["models"] for entry in queue.flush_log
            ),
            "dead_letters_remaining": dead_letters_remaining,
            "flushes_total": queue.flushes,
        },
        "identity": {
            "final_chains_checked": final_checked,
            "final_chain_mismatches": final_mismatches,
            "replayed_flushes_verified": replayed_verified,
            "replayed_mismatches": replayed_mismatches,
            "sampled_flushes_verified": sampled_verified,
            "sampled_mismatches": sampled_mismatches,
            "reader_reads": stats["reads"],
            "reader_mismatches": stats["mismatches"],
            "reader_refused": stats["refused"],
            "reader_raced_breaker": stats["raced_breaker"],
            "reader_errors": stats["errors"],
        },
        "backpressure": {
            "max_shard_load": max_load,
            "high_watermark": int(health.high_watermark),
            "updates_shed": queue.updates_shed,
            "blocked_submits": queue.blocked_submits,
            "backpressure_waits": stats["backpressure_waits"],
            "deadletter_bytes_parked": deadletter_bytes,
        },
        "health": {
            "probe_rounds": probe_rounds,
            "flush_retries": queue.flush_retries,
            "retry_backoff_s": queue.retry_backoff_s,
            "final_states": [shard["state"] for shard in fleet.health.snapshot()],
            "snapshot": fleet.health.snapshot(),
        },
        "drain_failures": drain_failures,
        "writer_errors": stats["writer_errors"],
        "stale_hits": serving.get("stale_hits", 0),
        "save_latencies_by_shard": latencies,
    }


def run_chaos_benchmark(
    cycles: int = 48,
    num_writers: int = 32,
    num_models: int = 3,
    shards: int = 4,
    architecture: str = "FFNN-48",
    approach: str = "update",
    fault_seed: int = 0,
    readers: int = 4,
    high_watermark: int = 48,
    low_watermark: int = 12,
    profile: HardwareProfile = ARCHIVE_PROFILE,
    directory: "str | Path | None" = None,
) -> dict[str, Any]:
    """Run the chaos workload plus its no-fault baseline; returns the report.

    ``fault_seed`` drives the entire outage schedule — two runs with the
    same seed down the same shard over the same cycle window.  The
    victim is drawn from the shards that actually own at least one
    chain, so the outage always hits live traffic.
    """
    if cycles < 12:
        raise ValueError("the chaos run needs at least 12 cycles")
    if num_writers < 2 or shards < 2:
        raise ValueError("the chaos run needs num_writers >= 2 and shards >= 2")
    base = ModelSet.build(architecture, num_models=num_models, seed=0)
    health = FleetHealthConfig(
        enabled=True,
        degraded_after=1,
        down_after=2,
        probe_interval_ops=4,
        backpressure="block",
        high_watermark=high_watermark,
        low_watermark=low_watermark,
        block_deadline_s=0.2,
        flush_retries=2,
        retry_base_s=0.01,
        retry_multiplier=2.0,
        dead_letter=True,
    )
    config = _chaos_config(shards, profile, health)
    # Chain roots are the first ``num_writers`` fleet ids, hashed to
    # their shards exactly as the run will place them — so the victim
    # can be drawn (seeded) from the shards that own traffic.
    placements = {
        shard_for(f"set-{approach}-{index:06d}", shards)
        for index in range(num_writers)
    }
    schedule = _fault_schedule(fault_seed, cycles, sorted(placements))

    tmp = None
    if directory is None:
        tmp = tempfile.mkdtemp(prefix="repro-chaos-")
        root = Path(tmp)
    else:
        root = Path(directory)
        root.mkdir(parents=True, exist_ok=True)
    oracle_digests: dict[tuple[int, int], str] = {}
    wall_start = time.perf_counter()
    try:
        chaos = _run_workload(
            root / "chaos", cycles, base, num_writers, config, approach,
            fault_seed, readers, schedule, oracle_digests,
        )
        baseline = _run_workload(
            root / "baseline", cycles, base, num_writers, config, approach,
            fault_seed, 0, None, oracle_digests,
        )
    finally:
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)
    wall_s = time.perf_counter() - wall_start

    victim = schedule["victim_shard"]
    healthy = [
        value
        for shard, values in chaos.pop("save_latencies_by_shard").items()
        if shard != victim
        for value in values
    ]
    baseline_all = [
        value
        for values in baseline["save_latencies_by_shard"].values()
        for value in values
    ]
    latency = {
        "healthy_saves": len(healthy),
        "healthy_p50_s": percentile(healthy, 50),
        "healthy_p99_s": percentile(healthy, 99),
        "baseline_saves": len(baseline_all),
        "baseline_p99_s": percentile(baseline_all, 99),
    }
    latency["p99_ratio"] = (
        latency["healthy_p99_s"] / latency["baseline_p99_s"]
        if latency["baseline_p99_s"]
        else float("inf")
    )
    return {
        "config": {
            "cycles": cycles,
            "num_writers": num_writers,
            "num_models": num_models,
            "shards": shards,
            "architecture": architecture,
            "approach": approach,
            "fault_seed": fault_seed,
            "readers": readers,
            "high_watermark": high_watermark,
            "low_watermark": low_watermark,
            "profile": profile.name,
        },
        "schedule": schedule,
        "chaos": chaos,
        "baseline_accounting": baseline["accounting"],
        "latency": latency,
        "wall_s": wall_s,
    }


def format_report(report: dict[str, Any]) -> str:
    """Human-readable chaos summary."""
    config = report["config"]
    schedule = report["schedule"]
    chaos = report["chaos"]
    books = chaos["accounting"]
    identity = chaos["identity"]
    pressure = chaos["backpressure"]
    latency = report["latency"]
    lines = [
        "Fleet chaos — {cycles} cycles x {num_writers} writers "
        "({architecture}, {shards} shards, seed {fault_seed}, "
        "{profile} profile)".format(**config),
        "",
        f"outage     : shard {schedule['victim_shard']} down cycles "
        f"{schedule['outage_start_cycle']}-{schedule['outage_end_cycle']} "
        f"({chaos['chains_on_victim']} chains on the victim)",
        f"accounting : {books['accepted']} accepted = "
        f"{books['flushed_models_before_replay']} flushed + "
        f"{books['parked_models']} dead-lettered "
        f"(+{books['coalesced']} coalesced); "
        f"{books['replayed_batches']} batches replayed, "
        f"{books['dead_letters_remaining']} left parked",
        f"identity   : {identity['final_chains_checked']} final heads, "
        f"{identity['replayed_flushes_verified']} replays, "
        f"{identity['sampled_flushes_verified']} sampled flushes, "
        f"{identity['reader_reads']} reads — "
        f"{identity['final_chain_mismatches'] + identity['replayed_mismatches'] + identity['sampled_mismatches'] + identity['reader_mismatches']}"
        " mismatches",
        f"readers    : {identity['reader_refused']} refused during the "
        f"outage, {chaos['stale_hits']} served stale from cache",
        f"memory     : max shard load {max(pressure['max_shard_load'])} "
        f"(watermark {pressure['high_watermark']}); "
        f"{pressure['blocked_submits']} blocked submits, "
        f"{pressure['updates_shed']} shed",
        f"health     : {chaos['health']['flush_retries']} flush retries, "
        f"{chaos['health']['probe_rounds']} probe rounds to close the "
        f"breaker, final states {chaos['health']['final_states']}",
        f"latency    : healthy-shard save p99 {latency['healthy_p99_s']:.4f}s "
        f"vs baseline {latency['baseline_p99_s']:.4f}s "
        f"({latency['p99_ratio']:.2f}x)",
    ]
    return "\n".join(lines)
