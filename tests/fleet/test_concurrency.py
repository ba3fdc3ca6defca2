"""Concurrency regression tests: one shard hammered, fleets under load.

The per-archive mutex closed a real hole: ``save_set`` used to allocate
ids and mutate descriptor/refcount state without any lock, so two
threads saving through one manager could interleave id allocation and
journal transactions.  These tests hammer exactly that path.
"""

import os
import sys
import threading
from collections import OrderedDict

from repro.config import ArchiveConfig, FleetHealthConfig, ServingConfig
from repro.core.manager import MultiModelManager
from repro.core.save_info import SetMetadata
from repro.core.fsck import ArchiveFsck
from repro.errors import IngestError, ShardUnavailableError, StorageError
from repro.fleet import FleetManager, IngestQueue
from repro.registry import open_fleet_registry
from repro.storage.faults import FaultInjector, inject_faults

# CI's fleet-stress job sweeps the writer count through this knob.
THREADS = int(os.environ.get("REPRO_FLEET_WRITERS", "8"))
SAVES_PER_THREAD = 6


def run_threads(worker):
    errors = []

    def wrapped(index):
        try:
            worker(index)
        except BaseException as error:  # noqa: BLE001 - re-raised below
            errors.append(error)

    threads = [
        threading.Thread(target=wrapped, args=(i,)) for i in range(THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


class TestSingleArchiveHammer:
    def test_eight_threads_one_manager(self, tiny_set):
        """Satellite regression: unlocked save-id allocation races."""
        manager = MultiModelManager.with_approach("update")
        saved: dict[int, list[str]] = {i: [] for i in range(THREADS)}

        def worker(index):
            variant = tiny_set.copy()
            for name in variant.states[0]:
                variant.states[0][name] = (
                    variant.states[0][name] + index
                ).astype(variant.states[0][name].dtype)
            for _ in range(SAVES_PER_THREAD):
                saved[index].append(manager.save_set(variant))

        run_threads(worker)
        all_ids = [s for ids in saved.values() for s in ids]
        # No duplicate ids, none lost, and every descriptor exists.
        assert len(set(all_ids)) == THREADS * SAVES_PER_THREAD
        assert sorted(all_ids) == manager.list_sets()
        report = ArchiveFsck(manager.context).run()
        assert report.ok
        # Every thread's sets recover to that thread's exact variant.
        for index, ids in saved.items():
            recovered = manager.recover_set(ids[-1])
            expected = tiny_set.state(0)[next(iter(tiny_set.state(0)))] + index
            name = next(iter(recovered.state(0)))
            assert (recovered.state(0)[name] == expected).all()

    def test_derived_saves_into_one_family_commit_in_id_order(self, tiny_set, monkeypatch):
        """Ids are allocated under the archive's mutex, so they commit in
        id order and the catalog equals a rebuild, versions included."""
        manager = MultiModelManager.with_approach("update")
        pack = SetMetadata(extra={"family": "pack"})
        base = manager.save_set(tiny_set, metadata=pack)
        catalog = manager.context.registry
        committed: list[str] = []
        record = catalog.record_save

        def recording(set_id):
            committed.append(set_id)
            record(set_id)

        monkeypatch.setattr(catalog, "record_save", recording)

        def worker(index):
            for _ in range(SAVES_PER_THREAD):
                manager.save_set(tiny_set, base_set_id=base, metadata=pack)

        run_threads(worker)
        assert len(committed) == THREADS * SAVES_PER_THREAD
        assert committed == sorted(committed)
        scratch = open_fleet_registry(None, resolver=lambda shard: manager.context)
        scratch.rebuild([(None, manager.context)])
        assert [r.to_json() for r in catalog.records()] == [
            r.to_json() for r in scratch.records()
        ]
        assert catalog.resolve("pack") == committed[-1] == scratch.resolve("pack")

    def test_eight_threads_one_fleet_shard(self, tiny_set):
        """The same hammer through the fleet's routing layer, shards=1:
        every save contends on the single shard's timed mutex."""
        fleet = FleetManager.with_approach("update", ArchiveConfig(shards=1))

        def worker(index):
            for _ in range(SAVES_PER_THREAD):
                fleet.save_set(tiny_set)

        run_threads(worker)
        assert len(fleet.list_sets()) == THREADS * SAVES_PER_THREAD
        assert fleet.shard_locks[0].acquisitions >= THREADS * SAVES_PER_THREAD
        report = ArchiveFsck(fleet.shards[0].context).run()
        assert report.ok


class TestFleetHammer:
    def test_concurrent_writers_across_shards(self, tiny_set):
        """Derived chains stay consistent when 8 writers push through the
        ingest queue against a 4-shard fleet with real workers."""
        fleet = FleetManager.with_approach("update", ArchiveConfig(shards=4))
        bases = [fleet.save_set(tiny_set) for _ in range(THREADS)]
        queue = IngestQueue(fleet, flush_max_updates=4)

        def worker(index):
            for step in range(8):
                model = step % len(tiny_set)
                state = OrderedDict(
                    (name, (array + index + step).astype(array.dtype))
                    for name, array in tiny_set.state(model).items()
                )
                queue.submit(bases[index], model, state)

        run_threads(worker)
        queue.drain()
        # Each writer owns one chain: 8 submissions / flush every 4.
        assert queue.flushes == THREADS * 2
        per_chain: dict[str, list[dict]] = {}
        for entry in queue.flush_log:
            per_chain.setdefault(entry["root"], []).append(entry)
        assert set(per_chain) == set(bases)
        for root, entries in per_chain.items():
            # Batches chain linearly and stay on the root's shard.
            assert entries[0]["base"] == root
            assert entries[1]["base"] == entries[0]["set_id"]
            assert {e["shard"] for e in entries} == {fleet.shard_of(root)}
            final = fleet.recover_set(entries[-1]["set_id"])
            writer = bases.index(root)
            name = next(iter(tiny_set.state(3)))
            # Last batch's update to model 3 was step 7 (7 % 4 == 3).
            assert (
                final.state(3)[name] == tiny_set.state(3)[name] + writer + 7
            ).all()
        queue.close()
        for shard in fleet.shards:
            assert ArchiveFsck(shard.context).run().ok

    def test_concurrent_shard_commits_all_reach_the_root_catalog(
        self, tiny_set, tmp_path
    ):
        """Every shard commit applies its held record to the one root
        catalog under its shard mutex: concurrent writers on a durable
        (journaled) fleet must lose no record and misplace none."""
        fleet = FleetManager.open(tmp_path / "fleet", "update", ArchiveConfig(shards=4))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:

            def worker(index):
                head = fleet.save_set(tiny_set)
                for _ in range(2):
                    head = fleet.save_set(tiny_set, base_set_id=head)

            run_threads(worker)
        finally:
            sys.setswitchinterval(interval)
        records = {record.set_id: record.shard for record in fleet.registry.records()}
        assert len(records) == THREADS * 3
        assert records == {set_id: fleet.shard_of(set_id) for set_id in fleet.list_sets()}


class TestIngestAcrossAnOutage:
    def test_writers_and_readers_across_an_outage_and_a_replay(self, tiny_set):
        """Writers on the worker pool and readers through serving, across a
        shard outage, a revive and a replay: nothing lost, every byte exact."""
        health = FleetHealthConfig(
            down_after=2, probe_interval_ops=2, flush_retries=1, retry_base_s=0.01
        )
        fleet = FleetManager.with_approach(
            "update",
            ArchiveConfig(shards=2, serving=ServingConfig(enabled=True), health=health),
        )
        roots = [fleet.save_set(tiny_set) for _ in range(THREADS)]
        queue = IngestQueue(fleet, flush_max_updates=len(tiny_set))

        def state(chain, cycle, index):
            return OrderedDict(
                (name, (array + 0.5 * cycle + chain).astype(array.dtype))
                for name, array in tiny_set.state(index).items()
            )

        def holds(model_set, chain, cycle):
            return all(
                (model_set.state(index)[name] == array).all()
                for index in range(len(tiny_set))
                for name, array in state(chain, cycle, index).items()
            )

        def write(cycles):
            def worker(chain):
                for cycle in cycles:
                    for index in range(len(tiny_set)):
                        queue.submit(roots[chain], index, state(chain, cycle, index))

            run_threads(worker)
            try:
                queue.drain()
            except IngestError:
                pass  # the outage's flushes parked

        reads, errors, stop = [], [], threading.Event()

        def reader():
            try:
                while not stop.is_set():
                    for entry in queue.flush_log[-6:]:
                        try:
                            got = fleet.recover_set(entry["set_id"])
                        except (ShardUnavailableError, StorageError):
                            continue  # refused (or racing the breaker) while down
                        reads.append(holds(got, roots.index(entry["root"]), entry["seq"]))
            except BaseException as error:  # noqa: BLE001 - asserted below
                errors.append(error)

        readers = [threading.Thread(target=reader) for _ in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        for thread in readers:
            thread.start()
        try:
            write(range(2))
            victim = fleet.shard_of(roots[0])
            outage = inject_faults(
                fleet.shards[victim].context, FaultInjector(down_at=0, down_mode="before")
            )
            write(range(2, 4))
            assert fleet.health.is_down(victim) and fleet.deadletter.count > 0
            outage.revive()
            write(range(4, 6))  # the first flush probes and closes the breaker
        finally:
            stop.set()
            for thread in readers:
                thread.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in readers)
        assert errors == [] and reads and all(reads)
        snapshot = fleet.health.snapshot()[victim]
        assert snapshot["state"] == "healthy" and snapshot["breaker_trips"] >= 1
        assert snapshot["refused"] > 0 and snapshot["probes"] >= 1

        # Each parked batch is a full overwrite at cycle 2 or 3, and the
        # revive's flushes of cycles 4-5 overwrote every model since: the
        # replay drops every parked update as superseded (coalesced)
        # rather than rolling a chain back to an older cycle.
        parked = sum(len(entry["models"]) for entry in fleet.deadletter.entries())
        flushed = len(queue.flush_log)
        report = queue.replay_dead_letters()
        assert report["replayed"] and report["skipped"] == report["failed"] == []
        assert fleet.deadletter.count == 0 and len(queue.flush_log) == flushed
        assert queue.updates_coalesced == parked and queue.updates_replayed == 0
        heads = {}
        for entry in queue.flush_log:
            chain = roots.index(entry["root"])
            assert holds(fleet.recover_set(entry["set_id"]), chain, entry["seq"])
            heads[entry["root"]] = entry["seq"]
        queue.close()
        # Zero loss: every accepted update was flushed once or superseded.
        flushed_models = sum(entry["models"] for entry in queue.flush_log)
        assert flushed_models + parked == THREADS * 6 * len(tiny_set)
        assert heads == {root: 5 for root in roots}
