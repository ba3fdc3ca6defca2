"""MaintenanceScheduler: journal-coordinated background upkeep.

The coordination contract under test: mutating tasks run as one atomic
journal transaction per shard (a killed pass rolls back cleanly at
reopen), maintenance defers to in-flight writer transactions, serving
caches are invalidated post-commit only, and passes are paced on the
simulated clock by the configured duty cycle.
"""

import threading
import time

import pytest

from repro.config import (
    ArchiveConfig,
    MaintenanceConfig,
    ServingConfig,
)
from repro.core.approach import SETS_COLLECTION
from repro.core.fsck import ArchiveFsck
from repro.core.manager import MultiModelManager
from repro.errors import DocumentNotFoundError, SimulatedCrashError
from repro.fleet import FleetManager, IngestQueue
from repro.maintenance import MaintenanceScheduler, MaintenanceTarget
from repro.observability.metrics import MetricsRegistry
from repro.simtime import SimClock
from repro.storage.faults import FaultInjector, inject_replica_faults
from repro.storage.hardware import ARCHIVE_PROFILE

from tests.maintenance.conftest import perturbed, save_chain


def upkeep(**overrides) -> MaintenanceConfig:
    return MaintenanceConfig(enabled=True, **overrides)


class TestRetentionGc:
    def test_gc_keep_last_is_fleet_wide(self, tiny_set):
        fleet = FleetManager.with_approach("update", ArchiveConfig(shards=2))
        ids = sorted(fleet.save_set(tiny_set) for _ in range(6))
        scheduler = MaintenanceScheduler.for_manager(
            fleet, config=upkeep(gc_keep_last=2)
        )
        report = scheduler.run_pass()
        assert report.exit_code == 1
        assert sum(entry.sets_deleted for entry in report.shards) == 4
        assert sum(entry.bytes_reclaimed for entry in report.shards) > 0
        assert fleet.list_sets() == ids[-2:]
        # Placement stays in sync: deleted ids are gone, kept ids serve.
        with pytest.raises(DocumentNotFoundError):
            fleet.recover_set(ids[0])
        assert fleet.recover_set(ids[-1]).equals(tiny_set)
        # Idempotent: a second pass finds nothing to do.
        assert scheduler.run_pass().exit_code == 0

    def test_gc_cuts_kept_chains_free_of_doomed_ancestors(self, tiny_set):
        manager = MultiModelManager.with_approach("update")
        ids = save_chain(manager, tiny_set, 5)
        expected = manager.recover_set(ids[-1])
        scheduler = MaintenanceScheduler.for_manager(
            manager, config=upkeep(gc_keep_last=2)
        )
        assert scheduler.run_pass().exit_code == 1
        # Nothing survives for chain reasons: the oldest kept delta was
        # compacted into a full snapshot, so its ancestors collected.
        assert manager.list_sets() == sorted(ids)[-2:]
        assert manager.recover_set(ids[-1]).equals(expected)

    def test_gc_sweeps_released_chunks(self, tiny_set):
        manager = MultiModelManager.with_approach(
            "update", ArchiveConfig(dedup=True)
        )
        manager.save_set(tiny_set)
        survivor = manager.save_set(perturbed(tiny_set, 3))
        scheduler = MaintenanceScheduler.for_manager(
            manager, config=upkeep(gc_keep_last=1)
        )
        report = scheduler.run_pass()
        entry = report.shards[0]
        assert entry.sets_deleted == 1
        assert entry.chunks_swept > 0
        assert manager.recover_set(survivor).equals(perturbed(tiny_set, 3))


class TestCompaction:
    def test_compacts_chains_past_the_depth_limit(self, tiny_set):
        manager = MultiModelManager.with_approach("update")
        ids = save_chain(manager, tiny_set, 4)
        expected = [manager.recover_set(set_id) for set_id in ids]
        scheduler = MaintenanceScheduler.for_manager(
            manager, config=upkeep(compact_chain_depth=2)
        )
        report = scheduler.run_pass()
        assert report.exit_code == 1
        assert report.shards[0].sets_compacted >= 1
        documents = manager.context.document_store._collections[SETS_COLLECTION]
        for set_id in ids:
            if int(documents[set_id].get("chain_depth", 0)) >= 2:
                assert documents[set_id].get("kind") == "full"
        # Compaction never changes a committed byte.
        for set_id, want in zip(ids, expected):
            assert manager.recover_set(set_id).equals(want)

    def test_shallow_chains_left_alone(self, tiny_set):
        manager = MultiModelManager.with_approach("update")
        save_chain(manager, tiny_set, 2)
        scheduler = MaintenanceScheduler.for_manager(
            manager, config=upkeep(compact_chain_depth=5)
        )
        report = scheduler.run_pass()
        assert report.shards[0].sets_compacted == 0
        assert report.exit_code == 0


class TestJournalCoordination:
    def test_killed_pass_rolls_back_at_reopen(self, tmp_path, tiny_set):
        config = ArchiveConfig(shards=1, maintenance=upkeep(gc_keep_last=2))
        fleet = FleetManager.open(tmp_path / "fleet", "update", config)
        ids = sorted(fleet.save_set(tiny_set) for _ in range(5))

        def hook(point, shard, pass_index):
            if point == "in-txn":
                raise SimulatedCrashError("injected maintenance kill")

        scheduler = MaintenanceScheduler.for_manager(fleet, fault_hook=hook)
        with pytest.raises(SimulatedCrashError):
            scheduler.run_pass()
        # The killed pass still consumed its slot (pacing moved on).
        assert len(scheduler.passes) == 1

        reopened = FleetManager.open(tmp_path / "fleet", "update", config)
        recovery = reopened.recovery_reports[0]
        assert recovery is not None and recovery.rolled_back
        assert recovery.rolled_back[0]["kind"] == "maintenance"
        # Committed data came back wholesale — the GC never half-lands.
        assert reopened.list_sets() == ids
        for set_id in ids:
            assert reopened.recover_set(set_id).equals(tiny_set)
        assert (
            ArchiveFsck(reopened.shards[0].context).run(deep=True).exit_code == 0
        )
        # The same maintenance succeeds after recovery.
        again = MaintenanceScheduler.for_manager(reopened)
        assert again.run_pass().exit_code == 1
        assert reopened.list_sets() == ids[-2:]

    def test_defers_to_inflight_writer_txn(self, tiny_set):
        manager = MultiModelManager.with_approach("update")
        save_chain(manager, tiny_set, 2)
        registry = MetricsRegistry()
        context = manager.context
        # Compaction-only config: the pass needs no fleet-wide listings,
        # so the first lock it meets is the shard pass's own acquire.
        scheduler = MaintenanceScheduler(
            [MaintenanceTarget(name="archive", context=context, lock=context.mutex)],
            config=upkeep(compact_chain_depth=1),
            metrics=registry,
        )
        deferred = registry.counter("maintenance_deferred_txn_waits_total")
        holding = threading.Event()
        release = threading.Event()

        def writer():
            with context.mutex:
                holding.set()
                release.wait(10)

        helper = threading.Thread(target=writer)
        helper.start()
        assert holding.wait(10)
        runner = threading.Thread(target=scheduler.run_pass)
        runner.start()
        try:
            # The pass parks behind the writer instead of contending.
            for _ in range(1000):
                if deferred.value:
                    break
                time.sleep(0.005)
            assert deferred.value == 1
            assert not scheduler.passes  # still waiting on the writer
        finally:
            release.set()
            helper.join()
            runner.join(10)
        assert scheduler.passes[0].shards[0].deferred
        assert scheduler.passes[0].exit_code == 1

    def test_serving_invalidation_fires_only_post_commit(self, tiny_set):
        fleet = FleetManager.with_approach(
            "update",
            ArchiveConfig(shards=1, serving=ServingConfig(enabled=True)),
        )
        doomed = fleet.save_set(tiny_set)
        kept = fleet.save_set(perturbed(tiny_set, 0))
        # Warm the serving cache with both sets.
        assert fleet.recover_set(doomed).equals(tiny_set)
        assert fleet.recover_set(kept).equals(perturbed(tiny_set, 0))
        scheduler = MaintenanceScheduler.for_manager(
            fleet, config=upkeep(gc_keep_last=1)
        )
        assert scheduler.run_pass().exit_code == 1
        # The warm entry for the collected set was dropped, not served.
        with pytest.raises(DocumentNotFoundError):
            fleet.recover_set(doomed)
        assert fleet.recover_set(kept).equals(perturbed(tiny_set, 0))


class TestReplicaUpkeep:
    def test_drains_repairs_and_scrubs_converged(self, tiny_set):
        manager = MultiModelManager.with_approach(
            "update", ArchiveConfig(replicas=3)
        )
        manager.save_set(tiny_set)
        injector = inject_replica_faults(
            manager.context, 1, FaultInjector(seed=2, down_at=0, down_mode="before")
        )
        manager.save_set(perturbed(tiny_set, 1))  # commits at W=2
        injector.revive()
        scheduler = MaintenanceScheduler.for_manager(manager, config=upkeep())
        report = scheduler.run_pass()
        entry = report.shards[0]
        assert entry.repairs_drained > 0
        assert entry.scrubbed and entry.lost_artifacts == []
        assert report.exit_code == 1
        # Anti-entropy converged: the next pass finds nothing.
        assert scheduler.run_pass().exit_code == 0
        assert ArchiveFsck(manager.context).run(deep=True).exit_code == 0

    def test_rolling_scrub_rotates_shards(self, tiny_set):
        clock = SimClock()
        fleet = FleetManager.with_approach(
            "update", ArchiveConfig(shards=2, replicas=3)
        )
        fleet.save_set(tiny_set)
        fleet.save_set(tiny_set)
        scheduler = MaintenanceScheduler.for_manager(
            fleet, clock=clock, config=upkeep(interval_s=1.0)
        )
        clock.advance(1.0)
        first = scheduler.tick()
        clock.advance(1000.0)
        second = scheduler.tick()
        assert [entry.scrubbed for entry in first.shards] == [True, False]
        assert [entry.scrubbed for entry in second.shards] == [False, True]
        # One-shot passes scrub everything.
        full = scheduler.run_pass()
        assert [entry.scrubbed for entry in full.shards] == [True, True]


class TestSaveLatency:
    def test_maintenance_at_most_doubles_save_cost_and_reclaims(self, tiny_set):
        """Saves among scheduled passes charge at most 2x their simulated
        seconds with maintenance off; the archive ends under half the size."""

        def run(config):
            fleet = FleetManager.with_approach(
                "update", ArchiveConfig(shards=2, profile=ARCHIVE_PROFILE)
            )
            clock = SimClock()
            scheduler = MaintenanceScheduler.for_manager(fleet, config=config, clock=clock)
            queue = IngestQueue(fleet, flush_max_updates=len(tiny_set), workers=0, clock=clock)
            heads = [fleet.save_set(tiny_set) for _ in range(2)]
            costs = []
            for cycle in range(16):
                for chain, head in enumerate(heads):
                    before = sum(fleet.shard_simulated_s())
                    for index in range(len(tiny_set)):
                        queue.submit(head, index, perturbed(tiny_set, cycle + chain).state(index))
                    costs.append(sum(fleet.shard_simulated_s()) - before)
                    heads[chain] = queue.flush_log[-1]["set_id"]
                clock.advance(5.0)
                scheduler.tick()
            return costs, fleet.total_stored_bytes()

        (on, kept), (off, grown) = (
            run(upkeep(interval_s=10.0, duty_cycle=0.5, gc_keep_last=4, compact_chain_depth=3)),
            run(MaintenanceConfig()),
        )
        assert max(on) <= 2 * max(off)
        assert kept < grown / 2


class TestPacing:
    def test_duty_cycle_paces_on_the_simulated_clock(self, tiny_set):
        clock = SimClock()
        manager = MultiModelManager.with_approach(
            "update", ArchiveConfig(profile=ARCHIVE_PROFILE)
        )
        save_chain(manager, tiny_set, 3)
        scheduler = MaintenanceScheduler.for_manager(
            manager,
            clock=clock,
            # Compaction makes the pass charge simulated store time
            # (pure deletes are free in the hardware model).
            config=upkeep(
                interval_s=10.0,
                duty_cycle=0.5,
                gc_keep_last=1,
                compact_chain_depth=1,
            ),
        )
        assert scheduler.tick() is None  # not due yet
        clock.advance(10.0)
        report = scheduler.tick()
        assert report is not None and report.sim_s > 0
        backoff = report.sim_s * (1.0 - 0.5) / 0.5
        assert scheduler.next_due == pytest.approx(
            clock.now + max(10.0, backoff)
        )
        assert scheduler.tick() is None  # pass charged time; back off

    def test_disabled_config_never_ticks(self, tiny_set):
        clock = SimClock()
        manager = MultiModelManager.with_approach("update")
        manager.save_set(tiny_set)
        scheduler = MaintenanceScheduler.for_manager(
            manager, clock=clock, config=MaintenanceConfig(gc_keep_last=1)
        )
        clock.advance(1e6)
        assert scheduler.tick() is None
        assert manager.list_sets()  # nothing collected


class TestBackgroundThread:
    def test_runs_due_passes_until_stopped(self, tiny_set):
        clock = SimClock()
        manager = MultiModelManager.with_approach("update")
        ids = sorted(manager.save_set(tiny_set) for _ in range(3))
        scheduler = MaintenanceScheduler.for_manager(
            manager,
            clock=clock,
            config=upkeep(interval_s=1.0, gc_keep_last=1, scrub=False),
        )
        scheduler.start(poll_s=0.001)
        try:
            clock.advance(1.0)
            for _ in range(1000):
                if scheduler.passes:
                    break
                time.sleep(0.005)
        finally:
            scheduler.stop()
        assert scheduler.passes and scheduler.error is None
        assert manager.list_sets() == ids[-1:]
        # stop() is idempotent and start() works again afterwards.
        scheduler.stop()
        scheduler.start(poll_s=0.001)
        scheduler.stop()

    def test_captures_pass_errors_and_stops(self, tiny_set):
        clock = SimClock()
        manager = MultiModelManager.with_approach("update")
        manager.save_set(tiny_set)

        def hook(point, shard, pass_index):
            raise ValueError("injected maintenance fault")

        scheduler = MaintenanceScheduler.for_manager(
            manager, clock=clock, config=upkeep(interval_s=1.0)
        )
        scheduler.fault_hook = hook
        scheduler.start(poll_s=0.001)
        try:
            clock.advance(1.0)
            for _ in range(1000):
                if scheduler.error is not None:
                    break
                time.sleep(0.005)
        finally:
            scheduler.stop()
        assert isinstance(scheduler.error, ValueError)


class TestMetrics:
    def test_counters_exported(self, tiny_set):
        registry = MetricsRegistry()
        manager = MultiModelManager.with_approach("update")
        for _ in range(3):
            manager.save_set(tiny_set)
        context = manager.context
        scheduler = MaintenanceScheduler(
            [MaintenanceTarget(name="archive", context=context, lock=context.mutex)],
            config=upkeep(gc_keep_last=1),
            metrics=registry,
        )
        scheduler.run_pass()
        assert registry.counter("maintenance_passes_total").value == 1
        assert registry.counter("maintenance_sets_deleted_total").value == 2
        assert registry.counter("maintenance_bytes_reclaimed_total").value > 0
        assert registry.counter("maintenance_deferred_txn_waits_total").value == 0
