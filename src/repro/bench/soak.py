"""Long-horizon soak: maintenance running under live fleet traffic.

The scenario every other benchmark approximates in slices: hundreds of
U3 update cycles pushed through :class:`~repro.fleet.FleetManager` +
:class:`~repro.fleet.IngestQueue` while Zipf-distributed readers hit the
serving cache continuously and a :class:`~repro.maintenance.
MaintenanceScheduler` garbage-collects, compacts, scrubs, and drains
repairs in the gaps — with a replica outage and a mid-transaction
maintenance kill injected on a seeded schedule.

What the soak asserts (enforced by ``benchmarks/bench_soak.py``):

* **Byte identity.**  Every flushed save, every reader recovery, and the
  final head of every chain is byte-identical to a serial in-memory
  oracle — maintenance never changes a committed byte.
* **Bounded latency.**  p99 simulated save latency with maintenance on
  stays within 2x a maintenance-off baseline of the same workload.
* **Storage plateau.**  Stored bytes settle at the retention policy's
  plateau instead of growing without bound like the baseline does.
* **Crash safety.**  A seeded schedule kills one maintenance pass inside
  its journal transaction; reopening the fleet rolls the pass back and
  every shard passes a deep fsck (exit 0).

Determinism: states are a function of ``(chain, cycle)`` only, each
chain flushes exactly once per cycle (submissions per cycle equal the
flush threshold), and the fault schedule derives from ``fault_seed``
alone.  Reader threads race GC on purpose; a recovery that loses the
race (`DocumentNotFoundError`) is counted, never failed.
"""

from __future__ import annotations

import random
import shutil
import statistics
import tempfile
import threading
import time
from pathlib import Path
from typing import Any

from repro.bench.chaos import cycle_state, oracle_set, set_digest
from repro.bench.report import percentile
from repro.config import (
    ArchiveConfig,
    MaintenanceConfig,
    ObservabilityConfig,
    ServingConfig,
)
from repro.core.fsck import ArchiveFsck
from repro.core.model_set import ModelSet
from repro.errors import DocumentNotFoundError, SimulatedCrashError
from repro.fleet import FleetManager, IngestQueue
from repro.maintenance import MaintenanceScheduler
from repro.simtime import SimClock
from repro.storage.faults import FaultInjector, inject_replica_faults
from repro.storage.hardware import ARCHIVE_PROFILE, HardwareProfile

__all__ = ["run_soak_benchmark", "format_report"]


def _save_latencies(fleet: FleetManager) -> list[float]:
    """Simulated seconds of every fleet-level save span recorded so far."""
    if fleet.tracer is None:
        return []
    return [
        root.total_simulated_s()
        for root in fleet.tracer.roots
        if root.name == "fleet" and (root.attrs or {}).get("op") == "save"
    ]


def _deep_fsck_exits(fleet: FleetManager) -> list[int]:
    return [
        ArchiveFsck(manager.context).run(deep=True).exit_code
        for manager in fleet.shards
    ]


def _fault_schedule(
    fault_seed: int, cycles: int, shards: int, replicas: int
) -> dict[str, Any]:
    """Seeded outage/revive/kill schedule (ordering always holds)."""
    rng = random.Random(fault_seed)
    jitter = max(1, cycles // 10)
    outage_cycle = max(1, cycles // 8 + rng.randrange(jitter))
    revive_cycle = outage_cycle + max(2, cycles // 10)
    kill_cycle = min(
        cycles - 2,
        max(revive_cycle + 2, (2 * cycles) // 3 + rng.randrange(jitter)),
    )
    return {
        "outage_cycle": outage_cycle,
        "outage_shard": rng.randrange(shards),
        "outage_replica": rng.randrange(replicas),
        # before/after keep the downed replica digest-honest, so the
        # rolling *shallow* scrubs can heal everything they find.
        "down_mode": "before" if fault_seed % 2 == 0 else "after",
        "revive_cycle": revive_cycle,
        "kill_cycle": kill_cycle,
        "kill_shard": rng.randrange(shards),
    }


def _start_readers(
    shared: dict,
    window: "list[dict]",
    window_lock: threading.Lock,
    stats: dict,
    stats_lock: threading.Lock,
    stop: threading.Event,
    readers: int,
    fault_seed: int,
) -> "list[threading.Thread]":
    """Zipf-ranked reader threads over the recent-saves window."""

    def loop(worker: int) -> None:
        rng = random.Random(fault_seed * 7919 + worker)
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
            fleet: FleetManager = shared["fleet"]
            try:
                recovered = fleet.recover_set(entry["set_id"])
            except DocumentNotFoundError:
                # Lost the race against retention GC — expected.
                with stats_lock:
                    stats["gc_races"] += 1
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
            target=loop, args=(worker,), name=f"soak-reader-{worker}", daemon=True
        )
        thread.start()
        threads.append(thread)
    return threads


def _drain_scheduler(scheduler: MaintenanceScheduler, totals: dict) -> None:
    """Fold one scheduler incarnation's pass reports into the totals."""
    for report in scheduler.passes:
        totals["passes"] += 1
        for entry in report.shards:
            totals["deferred_txn_waits"] += 1 if entry.deferred else 0
            totals["sets_deleted"] += entry.sets_deleted
            totals["sets_compacted"] += entry.sets_compacted
            totals["bytes_reclaimed"] += entry.bytes_reclaimed
            totals["chunks_swept"] += entry.chunks_swept
            totals["repairs_drained"] += entry.repairs_drained
            if entry.scrubbed:
                totals["scrubs"] += 1
            totals["lost_artifacts"].extend(entry.lost_artifacts)


def _converged_bytes(
    scheduler: MaintenanceScheduler, fleet: FleetManager, limit: int = 6
) -> int:
    """Run passes until stored bytes reach a fixpoint (quiesced fleet).

    Under load, storage sawtooths between passes; the retention
    policy's *plateau* is the fixpoint a drained fleet converges to —
    repeated passes compact the oldest kept sets until every retained
    ancestor is collectable, after which size stops changing.
    """
    current = fleet.total_stored_bytes()
    for _ in range(limit):
        previous = current
        scheduler.run_pass()
        current = fleet.total_stored_bytes()
        if current == previous:
            break
    return current


def _fleet_config(
    shards: int,
    replicas: int,
    profile: HardwareProfile,
    maintenance: MaintenanceConfig,
) -> ArchiveConfig:
    return ArchiveConfig(
        profile=profile,
        shards=shards,
        replicas=replicas,
        observability=ObservabilityConfig(tracing=True),
        serving=ServingConfig(enabled=True),
        maintenance=maintenance,
    )


def _run_cycles(
    directory: Path,
    cycles: int,
    base: ModelSet,
    num_chains: int,
    config: ArchiveConfig,
    approach: str,
    cycle_s: float,
    fault_seed: int,
    readers: int,
    oracle_digests: "dict[tuple[int, int], str]",
) -> dict[str, Any]:
    """The maintenance-ON soak run (faults, kill, readers, verification)."""
    num_models = len(base)
    schedule = _fault_schedule(
        fault_seed, cycles, int(config.shards), int(config.replicas)
    )
    clock = SimClock()
    fleet = FleetManager.open(str(directory), approach, config)
    shared = {"fleet": fleet}
    killed: dict[str, Any] = {"armed": False, "fired": False, "shard": None}

    def fault_hook(point: str, shard: str, pass_index: int) -> None:
        if killed["armed"] and point == "in-txn" and shard == killed["shard"]:
            killed["fired"] = True
            raise SimulatedCrashError(
                f"injected kill of maintenance pass {pass_index} on {shard}"
            )

    scheduler = MaintenanceScheduler.for_manager(
        fleet, clock=clock, fault_hook=fault_hook
    )
    queue = IngestQueue(fleet, flush_max_updates=num_models, clock=clock)

    window: list[dict] = []
    window_lock = threading.Lock()
    window_size = max(8, num_chains * 4)
    reader_stats = {"reads": 0, "mismatches": 0, "gc_races": 0, "errors": []}
    stats_lock = threading.Lock()
    stop_readers = threading.Event()
    reader_threads = _start_readers(
        shared, window, window_lock, reader_stats, stats_lock,
        stop_readers, readers, fault_seed,
    )

    totals = {
        "passes": 0,
        "deferred_txn_waits": 0,
        "sets_deleted": 0,
        "sets_compacted": 0,
        "bytes_reclaimed": 0,
        "chunks_swept": 0,
        "repairs_drained": 0,
        "scrubs": 0,
        "lost_artifacts": [],
    }
    save_latencies: list[float] = []
    storage_samples: list[int] = []
    post_gc_bytes: list[int] = []
    verified = 0
    mismatches = 0
    kill_record: dict[str, Any] = {}
    injector: "FaultInjector | None" = None
    plateau_ref: "int | None" = None

    def oracle_digest(chain: int, cycle: int) -> str:
        key = (chain, cycle)
        if key not in oracle_digests:
            oracle_digests[key] = set_digest(oracle_set(base, chain, cycle))
        return oracle_digests[key]

    # -- seed: one root set per chain (cycle -1 contents = base) ----------
    keys = [fleet.save_set(base) for _ in range(num_chains)]
    root_to_chain = {key: chain for chain, key in enumerate(keys)}
    consumed = 0

    try:
        for cycle in range(cycles):
            # -- seeded fault events (before this cycle's traffic) --------
            if cycle == schedule["outage_cycle"]:
                context = fleet.shards[schedule["outage_shard"]].context
                injector = inject_replica_faults(
                    context,
                    schedule["outage_replica"],
                    FaultInjector(
                        seed=fault_seed,
                        down_at=0,
                        down_mode=schedule["down_mode"],
                    ),
                )
            if cycle == schedule["revive_cycle"] and injector is not None:
                injector.revive()
            if cycle == schedule["kill_cycle"]:
                queue.drain()
                stop_readers.set()
                for thread in reader_threads:
                    thread.join()
                killed.update(
                    armed=True, shard=f"shard-{schedule['kill_shard']}"
                )
                crashed = False
                try:
                    scheduler.run_pass()
                except SimulatedCrashError:
                    crashed = True
                killed["armed"] = False
                queue.abort()
                _drain_scheduler(scheduler, totals)
                save_latencies.extend(_save_latencies(fleet))
                # -- reopen: the pending maintenance txn must roll back --
                fleet = FleetManager.open(str(directory), approach, config)
                shared["fleet"] = fleet
                rollbacks = [
                    entry
                    for report in fleet.recovery_reports
                    if report is not None
                    for entry in report.rolled_back
                ]
                kill_record = {
                    "cycle": cycle,
                    "shard": schedule["kill_shard"],
                    "fired": killed["fired"],
                    "crashed": crashed,
                    "rolled_back_kinds": sorted(
                        entry.get("kind") or "?" for entry in rollbacks
                    ),
                    "fsck_exit_codes_after_reopen": _deep_fsck_exits(fleet),
                }
                queue = IngestQueue(
                    fleet, flush_max_updates=num_models, clock=clock
                )
                consumed = 0
                scheduler = MaintenanceScheduler.for_manager(
                    fleet, clock=clock, fault_hook=fault_hook
                )
                # Converge after crash recovery (rollback restored sets
                # the killed pass had deleted): passes-to-fixpoint bring
                # storage back to the retention-policy plateau, which
                # the end state is measured against.
                kill_record["convergence_exit"] = scheduler.run_pass().exit_code
                plateau_ref = _converged_bytes(scheduler, fleet)
                stop_readers = threading.Event()
                reader_threads = _start_readers(
                    shared, window, window_lock, reader_stats, stats_lock,
                    stop_readers, readers, fault_seed,
                )

            # -- live traffic: one flush per chain, maintenance mid-flight
            for chain in range(num_chains):
                root_to_chain[fleet.root_of(keys[chain])] = chain
                for index in range(num_models):
                    queue.submit(
                        keys[chain], index, cycle_state(base, chain, cycle, index)
                    )
            clock.advance(cycle_s)
            tick_report = scheduler.tick()
            queue.drain()

            # -- verify this cycle's flushes against the serial oracle ----
            for entry in queue.flush_log[consumed:]:
                chain = root_to_chain[entry["root"]]
                expected = oracle_digest(chain, cycle)
                recovered = set_digest(fleet.recover_set(entry["set_id"]))
                verified += 1
                if recovered != expected:
                    mismatches += 1
                keys[chain] = entry["set_id"]
                with window_lock:
                    window.append(
                        {"set_id": entry["set_id"], "digest": expected}
                    )
                    del window[:-window_size]
            consumed = len(queue.flush_log)
            storage_samples.append(fleet.total_stored_bytes())
            if tick_report is not None:
                post_gc_bytes.append(fleet.total_stored_bytes())

        # -- wind down: flush stragglers, converge, final checks ----------
        queue.drain()
        final_pass = scheduler.run_pass()
        _converged_bytes(scheduler, fleet)
        final_chains_identical = all(
            set_digest(fleet.recover_set(keys[chain]))
            == oracle_digest(chain, cycles - 1)
            for chain in range(num_chains)
        )
    finally:
        stop_readers.set()
        for thread in reader_threads:
            thread.join()
        queue.close()
    _drain_scheduler(scheduler, totals)
    save_latencies.extend(_save_latencies(fleet))
    end_bytes = fleet.total_stored_bytes()
    post_gc_bytes.append(end_bytes)
    if plateau_ref is not None:
        # Reference state: full pass right after the crash-recovery
        # reopen — retention fully applied, queue drained, like now.
        plateau = plateau_ref
    else:
        tail = post_gc_bytes[len(post_gc_bytes) // 2 :]
        plateau = int(statistics.median(tail))
    return {
        "schedule": schedule,
        "kill": kill_record,
        "identity": {
            "flushes_verified": verified,
            "flush_mismatches": mismatches,
            "final_chains_identical": final_chains_identical,
            "reader_reads": reader_stats["reads"],
            "reader_mismatches": reader_stats["mismatches"],
            "reader_gc_races": reader_stats["gc_races"],
            "reader_errors": reader_stats["errors"],
        },
        "maintenance": dict(totals, final_pass_exit=final_pass.exit_code),
        "save_latencies": save_latencies,
        "storage_samples": storage_samples,
        "post_gc_bytes": post_gc_bytes,
        "plateau_bytes": plateau,
        "end_bytes": end_bytes,
        "fsck_exit_codes_final": _deep_fsck_exits(fleet),
    }


def _run_baseline(
    directory: Path,
    cycles: int,
    base: ModelSet,
    num_chains: int,
    config: ArchiveConfig,
    approach: str,
) -> dict[str, Any]:
    """Maintenance-off baseline: same write workload, nothing reclaimed."""
    num_models = len(base)
    fleet = FleetManager.open(str(directory), approach, config)
    keys = [fleet.save_set(base) for _ in range(num_chains)]
    with IngestQueue(fleet, flush_max_updates=num_models) as queue:
        for cycle in range(cycles):
            for chain in range(num_chains):
                for index in range(num_models):
                    queue.submit(
                        keys[chain], index, cycle_state(base, chain, cycle, index)
                    )
            queue.drain()
    return {
        "save_latencies": _save_latencies(fleet),
        "end_bytes": fleet.total_stored_bytes(),
    }


def run_soak_benchmark(
    cycles: int = 200,
    num_chains: int = 3,
    num_models: int = 3,
    shards: int = 2,
    replicas: int = 3,
    architecture: str = "FFNN-48",
    approach: str = "update",
    fault_seed: int = 0,
    readers: int = 2,
    keep_last: "int | None" = None,
    compact_depth: int = 5,
    interval_s: float = 10.0,
    duty_cycle: float = 0.5,
    cycle_s: float = 5.0,
    profile: HardwareProfile = ARCHIVE_PROFILE,
    directory: "str | Path | None" = None,
) -> dict[str, Any]:
    """Run the soak plus its maintenance-off baseline; returns the report.

    ``directory`` (when given) must be empty or absent; ``None`` uses a
    temporary directory that is removed afterwards.  ``fault_seed``
    drives the entire outage/kill schedule — two runs with the same seed
    inject the same faults at the same cycles.
    """
    if cycles < 10:
        raise ValueError("the soak needs at least 10 cycles")
    if shards < 1 or replicas < 2:
        raise ValueError("the soak needs shards >= 1 and replicas >= 2")
    base = ModelSet.build(architecture, num_models=num_models, seed=0)
    if keep_last is None:
        keep_last = 2 * num_chains + 2
    maintenance = MaintenanceConfig(
        enabled=True,
        interval_s=float(interval_s),
        duty_cycle=float(duty_cycle),
        gc_keep_last=int(keep_last),
        compact_chain_depth=int(compact_depth),
        scrub=True,
        scrub_deep=False,
        drain_repairs=True,
    )
    config = _fleet_config(shards, replicas, profile, maintenance)
    baseline_config = _fleet_config(shards, replicas, profile, MaintenanceConfig())

    tmp = None
    if directory is None:
        tmp = tempfile.mkdtemp(prefix="repro-soak-")
        root = Path(tmp)
    else:
        root = Path(directory)
        root.mkdir(parents=True, exist_ok=True)
    oracle_digests: dict[tuple[int, int], str] = {}
    wall_start = time.perf_counter()
    try:
        soak = _run_cycles(
            root / "soak", cycles, base, num_chains, config, approach,
            cycle_s, fault_seed, readers, oracle_digests,
        )
        baseline = _run_baseline(
            root / "baseline", cycles, base, num_chains, baseline_config, approach
        )
    finally:
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)
    wall_s = time.perf_counter() - wall_start

    on = soak.pop("save_latencies")
    off = baseline["save_latencies"]
    latency = {
        "saves": len(on),
        "save_p50_s": percentile(on, 50),
        "save_p99_s": percentile(on, 99),
        "baseline_saves": len(off),
        "baseline_p50_s": percentile(off, 50),
        "baseline_p99_s": percentile(off, 99),
    }
    latency["p99_ratio"] = (
        latency["save_p99_s"] / latency["baseline_p99_s"]
        if latency["baseline_p99_s"]
        else float("inf")
    )
    plateau = soak.pop("plateau_bytes")
    end_bytes = soak.pop("end_bytes")
    storage = {
        "samples": soak.pop("storage_samples"),
        "post_gc_bytes": soak.pop("post_gc_bytes"),
        "plateau_bytes": plateau,
        "end_bytes": end_bytes,
        "end_vs_plateau": (end_bytes / plateau) if plateau else float("inf"),
        "baseline_end_bytes": baseline["end_bytes"],
        "reclaimed_vs_baseline": (
            1.0 - end_bytes / baseline["end_bytes"]
            if baseline["end_bytes"]
            else 0.0
        ),
    }
    return {
        "config": {
            "cycles": cycles,
            "num_chains": num_chains,
            "num_models": num_models,
            "shards": shards,
            "replicas": replicas,
            "architecture": architecture,
            "approach": approach,
            "fault_seed": fault_seed,
            "readers": readers,
            "keep_last": keep_last,
            "compact_depth": compact_depth,
            "interval_s": interval_s,
            "duty_cycle": duty_cycle,
            "cycle_s": cycle_s,
            "profile": profile.name,
        },
        "schedule": soak["schedule"],
        "kill": soak["kill"],
        "identity": soak["identity"],
        "maintenance": soak["maintenance"],
        "latency": latency,
        "storage": storage,
        "fsck_exit_codes_final": soak["fsck_exit_codes_final"],
        "wall_s": wall_s,
    }


def format_report(report: dict[str, Any]) -> str:
    """Human-readable soak summary."""
    config = report["config"]
    identity = report["identity"]
    latency = report["latency"]
    storage = report["storage"]
    upkeep = report["maintenance"]
    kill = report["kill"]
    lines = [
        "Fleet soak — {cycles} cycles x {num_chains} chains "
        "({architecture}, {shards} shards x {replicas} replicas, "
        "seed {fault_seed}, {profile} profile)".format(**config),
        "",
        f"identity   : {identity['flushes_verified']} flushes verified, "
        f"{identity['flush_mismatches']} mismatches; "
        f"{identity['reader_reads']} reads, "
        f"{identity['reader_mismatches']} read mismatches, "
        f"{identity['reader_gc_races']} GC races",
        f"latency    : save p99 {latency['save_p99_s']:.3f}s vs baseline "
        f"{latency['baseline_p99_s']:.3f}s "
        f"({latency['p99_ratio']:.2f}x)",
        f"storage    : end {storage['end_bytes']:,} B, plateau "
        f"{storage['plateau_bytes']:,} B "
        f"({storage['end_vs_plateau']:.2f}x); baseline grew to "
        f"{storage['baseline_end_bytes']:,} B",
        f"maintenance: {upkeep['passes']} passes, "
        f"{upkeep['sets_deleted']} sets GCed, "
        f"{upkeep['sets_compacted']} compacted, "
        f"{upkeep['bytes_reclaimed']:,} B reclaimed, "
        f"{upkeep['repairs_drained']} repairs drained, "
        f"{upkeep['deferred_txn_waits']} deferred txn waits",
        f"kill       : cycle {kill.get('cycle')}, shard "
        f"{kill.get('shard')}, rolled back "
        f"{kill.get('rolled_back_kinds')}, fsck after reopen "
        f"{kill.get('fsck_exit_codes_after_reopen')}",
        f"final fsck : {report['fsck_exit_codes_final']} "
        f"(deep, per shard)",
    ]
    return "\n".join(lines)
