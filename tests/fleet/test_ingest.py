"""IngestQueue semantics: coalescing, flush triggers, drain, metrics."""

import threading
from collections import OrderedDict

import pytest

from repro.config import ArchiveConfig, ObservabilityConfig
from repro.core.lineage import LineageGraph
from repro.errors import IngestError, StorageError
from repro.fleet import FleetManager, IngestQueue
from repro.observability import prometheus_text
from repro.observability.metrics import global_registry
from repro.simtime import SimClock
from repro.storage.faults import FaultInjector, inject_faults


def state_plus(model_set, index, delta):
    return OrderedDict(
        (name, (array + delta).astype(array.dtype))
        for name, array in model_set.state(index).items()
    )


def make_fleet(shards=1, metrics=False):
    return FleetManager.with_approach(
        "update",
        ArchiveConfig(
            shards=shards,
            observability=ObservabilityConfig(metrics=metrics),
        ),
    )


class TestCoalescing:
    def test_last_writer_wins_per_model(self, tiny_set):
        fleet = make_fleet()
        base = fleet.save_set(tiny_set)
        queue = IngestQueue(fleet, flush_max_updates=100, workers=0)
        queue.submit(base, 0, state_plus(tiny_set, 0, 1.0))
        queue.submit(base, 0, state_plus(tiny_set, 0, 2.0))
        queue.submit(base, 0, state_plus(tiny_set, 0, 3.0))
        assert queue.depth == 1  # three submissions, one pending entry
        queue.drain()
        queue.close()
        assert queue.flushes == 1
        assert queue.models_written == 1
        assert queue.updates_coalesced == 2
        assert queue.write_elision_ratio == 3.0
        (entry,) = queue.flush_log
        recovered = fleet.recover_set(entry["set_id"])
        expected = tiny_set.copy()
        expected.states[0] = state_plus(tiny_set, 0, 3.0)
        assert recovered.equals(expected)

    def test_count_flush_boundary(self, tiny_set):
        fleet = make_fleet()
        base = fleet.save_set(tiny_set)
        queue = IngestQueue(fleet, flush_max_updates=3, workers=0)
        for step in range(3):
            queue.submit(base, step % 2, state_plus(tiny_set, step % 2, step))
        assert queue.flushes == 1  # exactly at the third submission
        assert queue.depth == 0
        queue.close()

    def test_batches_chain_on_each_other(self, tiny_set):
        fleet = make_fleet()
        base = fleet.save_set(tiny_set)
        queue = IngestQueue(fleet, flush_max_updates=1, workers=0)
        queue.submit(base, 0, state_plus(tiny_set, 0, 1.0))
        queue.submit(base, 1, state_plus(tiny_set, 1, 2.0))
        queue.close()
        first, second = queue.flush_log
        assert first["base"] == base
        assert second["base"] == first["set_id"]
        # The second save carries both updates (materialized in place).
        final = fleet.recover_set(second["set_id"])
        expected = tiny_set.copy()
        expected.states[0] = state_plus(tiny_set, 0, 1.0)
        expected.states[1] = state_plus(tiny_set, 1, 2.0)
        assert final.equals(expected)

    def test_independent_chains_do_not_coalesce_together(self, tiny_set):
        fleet = make_fleet(shards=2)
        base_a = fleet.save_set(tiny_set)
        base_b = fleet.save_set(tiny_set)
        queue = IngestQueue(fleet, flush_max_updates=2, workers=0)
        queue.submit(base_a, 0, state_plus(tiny_set, 0, 1.0))
        queue.submit(base_b, 0, state_plus(tiny_set, 0, 2.0))
        assert queue.flushes == 0  # one pending update per chain
        queue.drain()
        assert queue.flushes == 2
        roots = {entry["root"] for entry in queue.flush_log}
        assert roots == {base_a, base_b}
        queue.close()


class TestOutsideSaves:
    """A set saved on the chain outside the queue (a direct ``save_set``,
    another process) and then named by a submit becomes the head."""

    def test_a_newer_named_set_is_the_next_base(self, tiny_set):
        fleet = make_fleet()
        root = fleet.save_set(tiny_set)
        queue = IngestQueue(fleet, flush_max_updates=100, workers=0)
        queue.submit(root, 0, state_plus(tiny_set, 0, 1.0))
        queue.flush()
        (first,) = queue.flush_log
        outside = fleet.recover_set(first["set_id"])
        outside.states[1] = state_plus(tiny_set, 1, 5.0)
        newer = fleet.save_set(outside, base_set_id=first["set_id"])
        queue.submit(newer, 2, state_plus(tiny_set, 2, 7.0))
        queue.close()
        second = queue.flush_log[-1]
        lineage = LineageGraph.from_context(fleet.shards[0].context)
        assert lineage.leaves() == [second["set_id"]]  # one head, no fork
        assert second["base"] == newer
        expected = outside.copy()
        expected.states[2] = state_plus(tiny_set, 2, 7.0)
        assert fleet.recover_set(second["set_id"]).equals(expected)

    def test_naming_an_older_set_keeps_the_remembered_head(self, tiny_set):
        fleet = make_fleet()
        root = fleet.save_set(tiny_set)
        queue = IngestQueue(fleet, flush_max_updates=1, workers=0)
        queue.submit(root, 0, state_plus(tiny_set, 0, 1.0))
        queue.submit(root, 1, state_plus(tiny_set, 1, 2.0))
        queue.close()
        first, second = queue.flush_log
        assert second["base"] == first["set_id"]


class TestAgeDeadline:
    def test_age_flush_on_simulated_clock(self, tiny_set):
        fleet = make_fleet()
        base = fleet.save_set(tiny_set)
        clock = SimClock()
        queue = IngestQueue(
            fleet,
            flush_max_updates=100,
            flush_max_age_s=30.0,
            clock=clock,
            workers=0,
        )
        queue.submit(base, 0, state_plus(tiny_set, 0, 1.0))
        queue.advance(29.0)
        assert queue.flushes == 0
        queue.advance(1.0)  # deadline reached exactly
        assert queue.flushes == 1
        queue.close()

    def test_age_measured_from_oldest_pending(self, tiny_set):
        fleet = make_fleet()
        base = fleet.save_set(tiny_set)
        queue = IngestQueue(
            fleet, flush_max_updates=100, flush_max_age_s=10.0, workers=0
        )
        queue.submit(base, 0, state_plus(tiny_set, 0, 1.0))
        queue.clock.advance(9.0)
        # A fresh submission does not reset the batch's age.
        queue.submit(base, 1, state_plus(tiny_set, 1, 2.0))
        assert queue.flushes == 0
        queue.advance(1.0)
        assert queue.flushes == 1
        (entry,) = queue.flush_log
        assert entry["models"] == 2
        queue.close()

    def test_clock_rejects_rewind(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1.0)


class TestLifecycle:
    def test_flush_targets_one_chain(self, tiny_set):
        fleet = make_fleet()
        base_a = fleet.save_set(tiny_set)
        base_b = fleet.save_set(tiny_set)
        queue = IngestQueue(fleet, flush_max_updates=100, workers=0)
        queue.submit(base_a, 0, state_plus(tiny_set, 0, 1.0))
        queue.submit(base_b, 0, state_plus(tiny_set, 0, 2.0))
        queue.flush(base_a)
        assert queue.flushes == 1
        assert queue.flush_log[0]["root"] == base_a
        assert queue.depth == 1  # chain B still pending
        queue.close()

    def test_submit_after_close_raises(self, tiny_set):
        fleet = make_fleet()
        base = fleet.save_set(tiny_set)
        queue = IngestQueue(fleet, workers=0)
        queue.close()
        with pytest.raises(IngestError):
            queue.submit(base, 0, state_plus(tiny_set, 0, 1.0))
        queue.close()  # idempotent

    def test_worker_error_surfaces_on_drain(self, tiny_set):
        fleet = make_fleet()
        base = fleet.save_set(tiny_set)
        queue = IngestQueue(fleet, flush_max_updates=1, workers=1)
        queue.submit(base, 99, state_plus(tiny_set, 0, 1.0))
        with pytest.raises(IngestError, match="out of range"):
            queue.drain()
        # The queue stays usable for valid work afterwards.
        queue.submit(base, 0, state_plus(tiny_set, 0, 1.0))
        queue.close()
        assert queue.flushes == 1

    def test_negative_model_index_rejected(self, tiny_set):
        fleet = make_fleet()
        base = fleet.save_set(tiny_set)
        with IngestQueue(fleet, workers=0) as queue:
            with pytest.raises(IngestError):
                queue.submit(base, -1, state_plus(tiny_set, 0, 1.0))

    def test_worker_pool_runs_saves_off_thread(self, tiny_set):
        fleet = make_fleet(shards=2)
        bases = [fleet.save_set(tiny_set) for _ in range(4)]
        with IngestQueue(fleet, flush_max_updates=2, workers=2) as queue:
            for step in range(3):
                for base in bases:
                    queue.submit(base, step % 4, state_plus(tiny_set, step % 4, step))
            queue.drain()
            assert queue.flushes >= 4
            for entry in queue.flush_log:
                assert fleet.recover_set(entry["set_id"]) is not None


class TestCloseSemantics:
    """``close()`` drains, ``abort()`` discards — pinned, not incidental."""

    def test_close_saves_pending_unflushed_updates(self, tiny_set):
        fleet = make_fleet()
        base = fleet.save_set(tiny_set)
        queue = IngestQueue(fleet, flush_max_updates=100, workers=1)
        queue.submit(base, 0, state_plus(tiny_set, 0, 1.0))
        queue.submit(base, 1, state_plus(tiny_set, 1, 2.0))
        assert queue.flushes == 0  # still pending when close starts
        queue.close()
        assert queue.flushes == 1
        saved = queue.flush_log[-1]["set_id"]
        recovered = fleet.recover_set(saved)
        expected = state_plus(tiny_set, 0, 1.0)
        for name, array in recovered.state(0).items():
            assert (array == expected[name]).all()
        assert sorted(fleet.list_sets()) == sorted([base, saved])

    def test_abort_discards_pending_updates(self, tiny_set):
        fleet = make_fleet()
        base = fleet.save_set(tiny_set)
        queue = IngestQueue(fleet, flush_max_updates=100, workers=1)
        queue.submit(base, 0, state_plus(tiny_set, 0, 1.0))
        queue.abort()
        assert queue.flushes == 0
        assert fleet.list_sets() == [base]
        with pytest.raises(IngestError):
            queue.submit(base, 1, state_plus(tiny_set, 1, 1.0))
        queue.abort()  # idempotent

    def test_failed_flush_rollback_racing_a_close(self, tiny_set, monkeypatch):
        """A flush that dies mid-save while ``close()`` is waiting: the
        allocation rolls back, the error surfaces from ``close()`` after
        the pool already stopped, and the fleet stays consistent."""
        fleet = make_fleet()
        base = fleet.save_set(tiny_set)
        queue = IngestQueue(fleet, flush_max_updates=1, workers=1)
        entered, release = threading.Event(), threading.Event()

        def dying_save(*args, **kwargs):
            entered.set()
            assert release.wait(timeout=10.0)
            raise RuntimeError("store fell over mid-flush")

        monkeypatch.setattr(fleet, "execute_save", dying_save)
        queue.submit(base, 0, state_plus(tiny_set, 0, 1.0))
        assert entered.wait(timeout=10.0)  # save is in flight

        failures: list[BaseException] = []

        def closer():
            try:
                queue.close()
            except BaseException as error:  # noqa: BLE001
                failures.append(error)

        thread = threading.Thread(target=closer)
        thread.start()
        release.set()
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        # The worker error surfaced through close(), after shutdown.
        assert len(failures) == 1
        assert "fell over" in str(failures[0])
        with pytest.raises(IngestError):
            queue.submit(base, 1, state_plus(tiny_set, 1, 1.0))
        # The phantom allocation was released: the failed flush's id is
        # gone from listings and the fleet keeps accepting direct saves.
        monkeypatch.undo()
        assert fleet.list_sets() == [base]
        follow_up = fleet.save_set(tiny_set, base_set_id=base)
        assert follow_up in fleet.list_sets()


class TestFailedFlushRelease:
    def test_submit_between_release_and_head_rollback(self, tiny_set, monkeypatch):
        """A failed flush releases its id and rolls the chain head back as
        one step: a writer's submit can never land in between and
        dispatch against an id placement has already forgotten (the
        ``base set ... not found on any shard`` chaos failure)."""
        fleet = make_fleet()
        base = fleet.save_set(tiny_set)
        queue = IngestQueue(fleet, flush_max_updates=100, workers=0)
        execute_save, forget_allocation = fleet.execute_save, fleet.forget_allocation

        def failing_save(*args, **kwargs):
            raise RuntimeError("store fell over mid-flush")

        def forget_then_write(set_id):
            forget_allocation(set_id)
            if not queue._lock.locked():
                # The queue lock is free: a concurrent writer gets in now.
                monkeypatch.setattr(fleet, "execute_save", execute_save)
                queue.submit(base, 1, state_plus(tiny_set, 1, 2.0))
                queue.flush(base)

        monkeypatch.setattr(fleet, "execute_save", failing_save)
        monkeypatch.setattr(fleet, "forget_allocation", forget_then_write)
        queue.submit(base, 0, state_plus(tiny_set, 0, 1.0))
        with pytest.raises(IngestError, match="fell over"):
            queue.flush(base)
        monkeypatch.undo()
        # The writer's update is accepted against the rolled-back head.
        queue.submit(base, 1, state_plus(tiny_set, 1, 2.0))
        queue.close()
        (entry,) = queue.flush_log
        assert entry["base"] == base
        expected = tiny_set.copy()
        expected.states[1] = state_plus(tiny_set, 1, 2.0)
        assert fleet.recover_set(entry["set_id"]).equals(expected)

    def test_submit_while_a_failed_attempt_awaits_its_retry(self, tiny_set, monkeypatch):
        """A batch dispatched against an id whose failed attempt dropped its
        placement until the retry is allocated on the chain's shard."""
        fleet = make_fleet()
        base = fleet.save_set(tiny_set)
        queue = IngestQueue(fleet, flush_max_updates=1, workers=1)
        queue.submit(base, 0, state_plus(tiny_set, 0, 1.0))
        queue.drain()  # the chain's contents are held: the next flush reads nothing
        context = fleet.shards[0].context
        outage = inject_faults(context, FaultInjector(down_at=0, down_mode="before"))
        with pytest.raises(StorageError):  # down: a save fails reading its base
            context.file_store.put(b"x", artifact_id="trip")
        reinstate = fleet.reinstate_allocation

        def writer_gets_in(set_id, shard, root=None):
            outage.revive()
            outage.down_at = None
            queue.submit(base, 0, state_plus(tiny_set, 0, 3.0))  # a batch on set_id
            reinstate(set_id, shard, root=root)

        monkeypatch.setattr(fleet, "reinstate_allocation", writer_gets_in)
        queue.submit(base, 1, state_plus(tiny_set, 1, 2.0))
        queue.drain()
        queue.close()
        _first, retried, raced = queue.flush_log
        assert raced["base"] == retried["set_id"] and queue.flush_retries == 1
        expected = tiny_set.copy()
        expected.states[0] = state_plus(tiny_set, 0, 3.0)
        expected.states[1] = state_plus(tiny_set, 1, 2.0)
        assert fleet.recover_set(raced["set_id"]).equals(expected)


class TestMetricsExport:
    def test_queue_depth_and_ratios_in_prometheus_export(self, tiny_set):
        fleet = make_fleet(metrics=True)
        base = fleet.save_set(tiny_set)
        queue = IngestQueue(fleet, flush_max_updates=100, workers=0)
        queue.submit(base, 0, state_plus(tiny_set, 0, 1.0))
        queue.submit(base, 0, state_plus(tiny_set, 0, 2.0))
        queue.submit(base, 1, state_plus(tiny_set, 1, 1.0))
        registry = global_registry()
        values = registry.collect()
        assert values["ingest_queue_depth"] == 2
        assert values["ingest_updates_total"] == 3
        assert values["ingest_coalesced_updates_total"] == 1
        text = prometheus_text(registry)
        assert "ingest_queue_depth 2" in text
        assert "fleet_shard_0_lock_wait_s_total" in text
        queue.drain()
        assert registry.collect()["ingest_queue_depth"] == 0
        assert registry.collect()["ingest_coalescing_ratio"] == 3.0
        queue.close()
        # close() unregisters the provider; shard metrics remain.
        assert "ingest_queue_depth" not in registry.collect()
        assert "fleet_shard_0_lock_wait_s" in registry.collect()
