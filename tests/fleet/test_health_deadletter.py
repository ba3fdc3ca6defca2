"""Dead-lettering, flush retry, ingest admission, and close semantics.

The write-path half of fleet graceful degradation: exhausted flushes
park durably instead of dropping updates, replay re-submits them through
the normal ingest path (preserving lineage and bytes), admission
watermarks bound queue memory, and ``submit`` racing ``close`` is
deterministic.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import threading
import time
from collections import OrderedDict
from pathlib import Path

import pytest

import repro
from repro.config import ArchiveConfig, FleetHealthConfig
from repro.core.lineage import LineageGraph
from repro.core.retention import RetentionManager
from repro.errors import (
    DeadLetterError,
    IngestBackpressureError,
    IngestClosedError,
    IngestError,
    ShardUnavailableError,
    StorageError,
)
from repro.fleet import FleetManager, IngestQueue
from repro.fleet.deadletter import DeadLetterStore
from repro.fleet.health import DEGRADED
from repro.storage.faults import FaultInjector, inject_faults


def state_plus(model_set, index, delta):
    return OrderedDict(
        (name, (array + delta).astype(array.dtype))
        for name, array in model_set.state(index).items()
    )


def states_equal(left, right) -> bool:
    if list(left) != list(right):
        return False
    for name in left:
        if left[name].dtype != right[name].dtype:
            return False
        if not (left[name] == right[name]).all():
            return False
    return True


def health_config(**overrides) -> FleetHealthConfig:
    settings = dict(
        enabled=True,
        degraded_after=1,
        down_after=1,
        probe_interval_ops=2,
        backpressure="shed",
        high_watermark=64,
        low_watermark=8,
        flush_retries=1,
        retry_base_s=0.01,
        retry_multiplier=2.0,
    )
    settings.update(overrides)
    return FleetHealthConfig(**settings)


def make_fleet(health=None) -> FleetManager:
    return FleetManager.with_approach(
        "update",
        ArchiveConfig(
            shards=1, health=health if health is not None else health_config()
        ),
    )


def take_down(fleet, shard=0, seed=3) -> FaultInjector:
    """Cold whole-shard outage: every store op raises until revive()."""
    return inject_faults(
        fleet.shards[shard].context,
        FaultInjector(seed=seed, down_at=0, down_mode="before"),
    )


class TestDeadLetterStore:
    def test_park_load_roundtrip_is_byte_exact(self, tiny_set):
        store = DeadLetterStore()
        states = OrderedDict(
            (index, state_plus(tiny_set, index, 0.5)) for index in (0, 2)
        )
        entry_id = store.park(
            shard=1,
            root="set-update-000000",
            base="set-update-000003",
            states=states,
            updates=5,
            seq=2,
            error="ReplicaUnavailableError: injected",
            parked_at=12.5,
        )
        assert entry_id == "dl-000000"
        (entry,) = store.entries()
        assert entry["id"] == entry_id
        assert entry["shard"] == 1
        assert entry["root"] == "set-update-000000"
        assert entry["base"] == "set-update-000003"
        assert entry["updates"] == 5 and entry["seq"] == 2
        assert entry["models"] == [0, 2]
        assert "ReplicaUnavailableError" in entry["error"]
        loaded = store.load_states(entry_id)
        assert list(loaded) == [0, 2]
        for index in (0, 2):
            assert states_equal(loaded[index], states[index])

    def test_discard_and_unknown_entry(self, tiny_set):
        store = DeadLetterStore()
        entry_id = store.park(
            shard=0,
            root="r",
            base="b",
            states=OrderedDict([(0, state_plus(tiny_set, 0, 1.0))]),
            updates=1,
            seq=0,
            error="x",
            parked_at=0.0,
        )
        assert store.count == 1 and store.total_bytes() > 0
        store.discard(entry_id)
        assert store.count == 0 and store.total_bytes() == 0
        with pytest.raises(DeadLetterError, match="no dead-letter entry"):
            store.discard(entry_id)
        with pytest.raises(DeadLetterError, match="no dead-letter entry"):
            store.load_states(entry_id)

    def test_purge_filters_by_shard_and_ids(self, tiny_set):
        store = DeadLetterStore()
        states = OrderedDict([(0, state_plus(tiny_set, 0, 1.0))])
        ids = [
            store.park(
                shard=shard,
                root="r",
                base="b",
                states=states,
                updates=1,
                seq=seq,
                error="x",
                parked_at=0.0,
            )
            for seq, shard in enumerate([0, 1, 0])
        ]
        assert store.purge(shard=0) == 2
        assert [entry["id"] for entry in store.entries()] == [ids[1]]
        assert store.purge(entry_ids=["dl-does-not-exist"]) == 0
        assert store.purge() == 1
        assert store.count == 0

    def test_durable_reopen_preserves_entries_and_id_counter(
        self, tmp_path, tiny_set
    ):
        store = DeadLetterStore(tmp_path / "deadletter")
        states = OrderedDict(
            (index, state_plus(tiny_set, index, 2.0)) for index in (1, 3)
        )
        first = store.park(
            shard=0,
            root="r",
            base="b",
            states=states,
            updates=2,
            seq=4,
            error="x",
            parked_at=1.0,
        )

        reopened = DeadLetterStore(tmp_path / "deadletter")
        (entry,) = reopened.entries()
        assert entry["id"] == first and entry["seq"] == 4
        loaded = reopened.load_states(first)
        for index in (1, 3):
            assert states_equal(loaded[index], states[index])
        # The id counter resumes past stored entries — no collisions.
        second = reopened.park(
            shard=0,
            root="r",
            base="b",
            states=states,
            updates=2,
            seq=5,
            error="y",
            parked_at=2.0,
        )
        assert second == "dl-000001"


class TestRetryParkReplay:
    def test_exhausted_flush_parks_and_replay_restores_the_chain(
        self, tiny_set
    ):
        fleet = make_fleet()
        base = fleet.save_set(tiny_set)
        queue = IngestQueue(fleet, flush_max_updates=2, workers=0)
        # Flush 1 succeeds and materializes the chain in the queue.
        queue.submit(base, 0, state_plus(tiny_set, 0, 1.0))
        queue.submit(base, 1, state_plus(tiny_set, 1, 1.0))
        assert queue.flushes == 1

        injector = take_down(fleet)
        lost_0 = state_plus(tiny_set, 0, 2.0)
        lost_1 = state_plus(tiny_set, 1, 2.0)
        queue.submit(base, 0, lost_0)
        with pytest.raises(IngestError) as failure:
            queue.submit(base, 1, lost_1)  # dispatches flush 2 inline
        assert failure.value.shards == (0,)
        assert len(failure.value.set_ids) == 1
        (entry_id,) = failure.value.dead_letter_ids
        assert queue.flush_retries == 1  # one retry before exhaustion
        assert queue.retry_backoff_s == pytest.approx(0.01)
        assert queue.dead_lettered == 1
        assert fleet.health.is_down(0)
        # The failed allocation is rolled back: no phantom set listed.
        assert failure.value.set_ids[0] not in fleet.list_sets()
        (entry,) = fleet.deadletter.entries()
        assert entry["id"] == entry_id
        assert entry["root"] == base and entry["shard"] == 0
        assert states_equal(fleet.deadletter.load_states(entry_id)[1], lost_1)

        # While the shard is DOWN, replay refuses to touch the entry.
        assert queue.replay_dead_letters() == {
            "replayed": [],
            "skipped": [entry_id],
            "failed": [],
        }

        injector.revive()
        # Flush 3: the first attempt is refused by the open breaker (a
        # retryable error), the retry is let through as the half-open
        # probe, succeeds, and closes the breaker in-process.
        queue.submit(base, 2, state_plus(tiny_set, 2, 3.0))
        queue.submit(base, 3, state_plus(tiny_set, 3, 3.0))
        assert queue.flushes == 2
        assert not fleet.health.is_down(0)

        replay = queue.replay_dead_letters()
        assert replay == {"replayed": [entry_id], "skipped": [], "failed": []}
        assert fleet.deadletter.count == 0
        assert queue.updates_replayed == 2
        queue.close()

        # Lineage: every flush derives from the previous durable head —
        # the parked batch's phantom id never appears as a base.
        f1, f3, f_replay = queue.flush_log
        assert f1["base"] == base
        assert f3["base"] == f1["set_id"]
        assert f_replay["base"] == f3["set_id"]
        # Byte identity: the replayed chain head equals the serial
        # application of every accepted update.
        expected = tiny_set.copy()
        expected.states[0] = lost_0
        expected.states[1] = lost_1
        expected.states[2] = state_plus(tiny_set, 2, 3.0)
        expected.states[3] = state_plus(tiny_set, 3, 3.0)
        assert fleet.recover_set(f_replay["set_id"]).equals(expected)

    def test_client_errors_are_not_dead_lettered(self, tiny_set):
        fleet = make_fleet()
        base = fleet.save_set(tiny_set)
        queue = IngestQueue(fleet, flush_max_updates=1, workers=0)
        with pytest.raises(IngestError, match="out of range"):
            queue.submit(base, 99, state_plus(tiny_set, 0, 1.0))
        assert queue.dead_lettered == 0
        assert fleet.deadletter.count == 0
        assert queue.flush_retries == 0  # no retry for client errors
        queue.close()

    def test_a_failed_flush_read_trips_the_breaker(self, tiny_set):
        # The outage begins at the save's first write, so the retry's
        # materialization read is what fails: it counts as the save's
        # second failure and the shard goes DOWN.
        fleet = make_fleet(health_config(down_after=2))
        base = fleet.save_set(tiny_set)
        queue = IngestQueue(fleet, flush_max_updates=1, workers=0)
        inject_faults(
            fleet.shards[0].context, FaultInjector(down_at=0, down_mode="before")
        )
        with pytest.raises(IngestError):
            queue.submit(base, 0, state_plus(tiny_set, 0, 1.0))
        assert queue.flush_retries == 1 and queue.dead_lettered == 1
        assert fleet.health.is_down(0)
        queue.abort()

    def test_drain_error_aggregates_all_failing_sets(self, tiny_set):
        """Satellite: IngestError carries every failing set id + shard."""
        fleet = make_fleet()
        roots = [fleet.save_set(tiny_set) for _ in range(2)]
        queue = IngestQueue(fleet, flush_max_updates=10, workers=0)
        take_down(fleet)
        for root in roots:
            queue.submit(root, 0, state_plus(tiny_set, 0, 1.0))
        with pytest.raises(IngestError) as failure:
            queue.flush()  # dispatches both chains; both exhaust inline
        error = failure.value
        assert len(error.set_ids) == 2
        assert error.shards == (0,)
        assert len(error.dead_letter_ids) == 2
        assert "2 ingest flushes failed" in str(error)
        assert "dead-lettered for replay" in str(error)
        assert error.__cause__ is not None
        queue.close()

    def test_close_surfaces_worker_failures_with_context(self, tiny_set):
        fleet = make_fleet()
        base = fleet.save_set(tiny_set)
        queue = IngestQueue(fleet, flush_max_updates=1, workers=1)
        take_down(fleet)
        queue.submit(base, 0, state_plus(tiny_set, 0, 1.0))
        with pytest.raises(IngestError) as failure:
            queue.close()
        assert failure.value.shards == (0,)
        assert len(failure.value.dead_letter_ids) == 1
        # The pool is stopped despite the error: submit is a typed no.
        with pytest.raises(IngestClosedError):
            queue.submit(base, 0, state_plus(tiny_set, 0, 2.0))


class TestReplayLosesNothing:
    """A replay that cannot finish leaves every update it holds parked."""

    def test_an_entry_whose_chain_cannot_be_resolved_stays_parked(self, tmp_path, tiny_set):
        config = ArchiveConfig(shards=1, health=health_config(down_after=2))
        fleet = FleetManager.open(tmp_path / "fleet", "update", config)
        base = fleet.save_set(tiny_set)
        queue = IngestQueue(fleet, flush_max_updates=1, workers=0)
        take_down(fleet)
        with pytest.raises(IngestError):
            queue.submit(base, 0, state_plus(tiny_set, 0, 1.0))
        queue.abort()
        # A new process: its breaker is closed, and resolving the chain
        # reads the store, which is still down.
        fleet = FleetManager.open(tmp_path / "fleet", "update", config)
        (entry,) = fleet.deadletter.entries()
        outage = take_down(fleet)
        with pytest.raises(StorageError):  # the outage begins at the first write
            fleet.shards[0].context.file_store.put(b"x", artifact_id="trip")
        queue = IngestQueue(fleet, flush_max_updates=1, workers=0)
        report = queue.replay_dead_letters()
        assert report["failed"] == [
            {"id": entry["id"], "error": "injected replica outage", "reparked": [entry["id"]]}
        ]
        assert [e["id"] for e in fleet.deadletter.entries()] == [entry["id"]]
        outage.revive()
        outage.down_at = None
        assert queue.replay_dead_letters()["replayed"] == [entry["id"]]
        (flushed,) = queue.flush_log
        assert states_equal(
            fleet.recover_set(flushed["set_id"]).state(0), state_plus(tiny_set, 0, 1.0)
        )
        queue.close()

    def test_updates_not_yet_resubmitted_are_parked_back(self, tiny_set):
        fleet = make_fleet(health_config(down_after=2))
        base = fleet.save_set(tiny_set)
        queue = IngestQueue(fleet, flush_max_updates=2, workers=0)
        outage = take_down(fleet)
        queue.submit(base, 0, state_plus(tiny_set, 0, 1.0))
        with pytest.raises(IngestError):
            queue.submit(base, 1, state_plus(tiny_set, 1, 1.0))
        outage.revive()
        outage.down_at = None
        # The flush probes and closes the breaker; it leaves the parked
        # models as they were on the entry's base, so they still replay.
        for index in (2, 3):
            queue.submit(base, index, state_plus(tiny_set, index, 2.0))
        take_down(fleet)
        queue.submit(base, 0, state_plus(tiny_set, 0, 3.0))  # pending
        # The first replayed update completes the pending batch, whose
        # flush fails: the entry's second update was never resubmitted.
        (failure,) = queue.replay_dead_letters()["failed"]
        entries = {e["id"]: e for e in fleet.deadletter.entries()}
        assert sorted(entries) == sorted(failure["reparked"])
        assert sorted(e["models"] for e in entries.values()) == [[0], [1]]
        flushed = sum(entry["models"] for entry in queue.flush_log)
        parked = sum(len(entry["models"]) for entry in entries.values())
        # Five accepted updates: two flushed, one coalesced, two parked.
        assert (flushed, queue.updates_coalesced, parked, queue.depth) == (2, 1, 2, 0)
        queue.abort()

    def test_a_parked_state_never_displaces_a_pending_one(self, tiny_set):
        fleet = make_fleet(health_config(down_after=3))
        base = fleet.save_set(tiny_set)
        queue = IngestQueue(fleet, flush_max_updates=2, workers=0)
        older, newer = state_plus(tiny_set, 0, 1.0), state_plus(tiny_set, 0, 2.0)
        queue.submit(base, 0, older)
        outage = take_down(fleet)
        with pytest.raises(IngestError) as failure:
            queue.flush(base)
        (entry_id,) = failure.value.dead_letter_ids
        outage.revive()
        outage.down_at = None
        queue.submit(base, 0, newer)  # pending: one update, below the count
        assert queue.replay_dead_letters()["replayed"] == [entry_id]
        (flushed,) = queue.flush_log
        assert flushed["models"] == 1
        assert states_equal(fleet.recover_set(flushed["set_id"]).state(0), newer)
        # Three updates accepted: one coalesced (the parked one), one flushed.
        assert (queue.updates_submitted, queue.updates_coalesced) == (3, 1)
        queue.close()

    @pytest.mark.parametrize("approach", ["update", "baseline"])
    def test_a_parked_state_never_rolls_back_a_flushed_one(self, tiny_set, approach):
        """Update sets compare stored hash rows, Baseline sets recovered rows."""
        fleet = FleetManager.with_approach(
            approach, ArchiveConfig(shards=1, health=health_config(down_after=3))
        )
        base = fleet.save_set(tiny_set)
        queue = IngestQueue(fleet, flush_max_updates=2, workers=0)
        older, newer = state_plus(tiny_set, 0, 1.0), state_plus(tiny_set, 0, 2.0)
        other = state_plus(tiny_set, 1, 1.0)
        queue.submit(base, 0, older)
        outage = take_down(fleet)
        with pytest.raises(IngestError) as failure:
            queue.submit(base, 1, other)  # completes the batch; its flush fails
        (entry_id,) = failure.value.dead_letter_ids
        outage.revive()
        outage.down_at = None
        queue.submit(base, 0, newer)
        queue.flush(base)
        assert queue.replay_dead_letters()["replayed"] == [entry_id]
        assert fleet.deadletter.entries() == []
        flushed, replayed = queue.flush_log
        # Model 0's parked state is dropped as coalesced; model 1's replays.
        assert replayed["models"] == 1
        head = fleet.recover_set(replayed["set_id"])
        assert states_equal(head.state(0), newer)
        assert states_equal(head.state(1), other)
        assert (queue.updates_submitted, queue.updates_coalesced) == (5, 1)
        queue.close()

    def test_a_batch_parked_behind_another_compares_against_its_base(self, tiny_set):
        """The second batch's base is the first batch's failed flush, which
        never landed: it compares against the first batch's base."""
        fleet = make_fleet(health_config(down_after=10))
        base = fleet.save_set(tiny_set)
        queue = IngestQueue(fleet, flush_max_updates=1, workers=1)
        outage = take_down(fleet)
        with fleet.shards[0].lock:  # both batches dispatch before the first runs
            queue.submit(base, 0, state_plus(tiny_set, 0, 1.0))
            queue.submit(base, 1, state_plus(tiny_set, 1, 1.0))
        with pytest.raises(IngestError):
            queue.drain()
        first, second = fleet.deadletter.entries()
        assert (first["base"], second["base"]) == (base, first["set_id"])
        outage.revive()
        outage.down_at = None
        newer = state_plus(tiny_set, 1, 2.0)
        queue.submit(base, 1, newer)
        queue.drain()
        report = queue.replay_dead_letters()
        assert report["replayed"] == [first["id"], second["id"]]
        head = fleet.recover_set(queue.flush_log[-1]["set_id"])
        assert states_equal(head.state(0), state_plus(tiny_set, 0, 1.0))
        assert states_equal(head.state(1), newer)
        assert queue.updates_coalesced == 1
        queue.close()

    def test_an_entry_left_empty_is_discarded_as_replayed(self, tiny_set):
        fleet = make_fleet(health_config(down_after=3))
        base = fleet.save_set(tiny_set)
        queue = IngestQueue(fleet, flush_max_updates=2, workers=0)
        queue.submit(base, 0, state_plus(tiny_set, 0, 1.0))
        outage = take_down(fleet)
        with pytest.raises(IngestError) as failure:
            queue.flush(base)
        (entry_id,) = failure.value.dead_letter_ids
        outage.revive()
        outage.down_at = None
        newer = state_plus(tiny_set, 0, 2.0)
        queue.submit(base, 0, newer)
        queue.flush(base)
        assert queue.replay_dead_letters()["replayed"] == [entry_id]
        (flushed,) = queue.flush_log
        assert states_equal(fleet.recover_model(flushed["set_id"], 0), newer)
        queue.close()


def park_then_extend(fleet, tiny_set, saves: int = 1) -> "tuple[str, list]":
    """Park a batch of model 0 on the chain's base, then land ``saves``
    more saves of model 1 on the chain; returns the base and the saves."""
    base = fleet.save_set(tiny_set)
    queue = IngestQueue(fleet, flush_max_updates=2, workers=0)
    queue.submit(base, 0, state_plus(tiny_set, 0, 1.0))
    outage = take_down(fleet)
    with pytest.raises(IngestError):
        queue.flush(base)
    outage.revive()
    outage.down_at = None
    for step in range(saves):
        queue.submit(base, 1, state_plus(tiny_set, 1, 2.0 + step))
        queue.flush(base)
    queue.close()
    return base, [entry["set_id"] for entry in queue.flush_log]


class TestReplayExtendsTheNewestSave:
    """Replay reads the chain's head from the store, so a queue that never
    saw the chain (a new process) extends the newest save, not the base."""

    def replay_in_a_new_queue(self, fleet) -> dict:
        queue = IngestQueue(fleet, flush_max_updates=10**9, workers=0)
        assert queue.replay_dead_letters()["failed"] == []
        queue.close()
        (flushed,) = queue.flush_log
        return flushed

    def test_a_new_queue_replays_onto_the_newest_save(self, tiny_set):
        fleet = make_fleet(health_config(down_after=3))
        base, (later,) = park_then_extend(fleet, tiny_set)
        flushed = self.replay_in_a_new_queue(fleet)
        assert flushed["base"] == later
        head = fleet.recover_set(flushed["set_id"])
        assert states_equal(head.state(0), state_plus(tiny_set, 0, 1.0))
        assert states_equal(head.state(1), state_plus(tiny_set, 1, 2.0))

    def test_a_compacted_set_between_base_and_head_is_followed(self, tiny_set):
        """Compaction drops the set's ``base_set``; its ``compacted_from``
        still leads from the base to the head."""
        fleet = make_fleet(health_config(down_after=3))
        base, (middle, newest) = park_then_extend(fleet, tiny_set, saves=2)
        assert RetentionManager(fleet.shards[0].context).compact(middle)
        flushed = self.replay_in_a_new_queue(fleet)
        assert flushed["base"] == newest
        head = fleet.recover_set(flushed["set_id"])
        assert states_equal(head.state(0), state_plus(tiny_set, 0, 1.0))
        assert states_equal(head.state(1), state_plus(tiny_set, 1, 3.0))

    def test_the_cli_replays_as_an_in_process_queue_does(self, tmp_path, tiny_set):
        config = ArchiveConfig(shards=1, health=health_config(down_after=3))
        _base, (later,) = park_then_extend(
            FleetManager.open(tmp_path / "cli", "update", config), tiny_set
        )
        shutil.copytree(tmp_path / "cli", tmp_path / "in-process")
        src = str(Path(repro.__file__).resolve().parents[1])  # the package under test
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", str(tmp_path / "cli"), "deadletter", "replay"],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        in_process = FleetManager.open(tmp_path / "in-process", "update", config)
        flushed = self.replay_in_a_new_queue(in_process)
        assert flushed["base"] == later
        cli = FleetManager.open(tmp_path / "cli", "update", config)
        assert cli.list_sets() == in_process.list_sets()
        lineages = [LineageGraph.from_context(f.shards[0].context) for f in (cli, in_process)]
        assert lineages[0].leaves() == lineages[1].leaves() == [flushed["set_id"]]
        assert lineages[0].base_of(flushed["set_id"]) == later
        for set_id in cli.list_sets():
            assert cli.recover_set(set_id).equals(in_process.recover_set(set_id))


class TestUnresolvableChain:
    def test_a_dead_store_refuses_submit_as_shard_unavailable(self, tmp_path, tiny_set):
        config = ArchiveConfig(shards=1, health=health_config(down_after=2))
        base = FleetManager.open(tmp_path / "fleet", "update", config).save_set(tiny_set)
        # A new process: nothing memoized, its breaker closed.
        fleet = FleetManager.open(tmp_path / "fleet", "update", config)
        queue = IngestQueue(fleet, flush_max_updates=2, workers=0)
        outage = take_down(fleet)
        with pytest.raises(StorageError):  # the outage begins at the first write
            fleet.shards[0].context.file_store.put(b"x", artifact_id="trip")
        for call in (lambda: queue.submit(base, 0, state_plus(tiny_set, 0, 1.0)),
                     lambda: queue.flush(base)):
            with pytest.raises(ShardUnavailableError) as refusal:
                call()
            assert (refusal.value.shard, refusal.value.set_id) == (0, base)
            assert isinstance(refusal.value.__cause__, StorageError)
            assert fleet.health.state(0) == DEGRADED or fleet.health.is_down(0)
        # Two failed lookups trip the breaker, as two failed flushes do.
        assert fleet.health.is_down(0)
        assert (queue.updates_submitted, queue.depth) == (0, 0)
        outage.revive()
        outage.down_at = None
        queue.abort()


class TestBackpressure:
    def test_shed_policy_refuses_at_the_high_watermark(self, tiny_set):
        fleet = make_fleet(
            health_config(high_watermark=2, low_watermark=1)
        )
        base = fleet.save_set(tiny_set)
        queue = IngestQueue(fleet, flush_max_updates=100, workers=0)
        queue.submit(base, 0, state_plus(tiny_set, 0, 1.0))
        queue.submit(base, 1, state_plus(tiny_set, 1, 1.0))
        with pytest.raises(IngestBackpressureError) as refusal:
            queue.submit(base, 2, state_plus(tiny_set, 2, 1.0))
        assert refusal.value.shards == (0,)
        assert queue.updates_shed == 1
        assert queue.shard_load() == [2]
        # Coalescing resubmissions are free: the entry already exists.
        queue.submit(base, 1, state_plus(tiny_set, 1, 2.0))
        assert queue.updates_coalesced == 1
        queue.close()
        assert queue.shard_load() == [0]

    def test_block_policy_with_inline_pool_refuses_immediately(self, tiny_set):
        fleet = make_fleet(
            health_config(
                backpressure="block",
                high_watermark=1,
                low_watermark=0,
                block_deadline_s=30.0,
            )
        )
        base = fleet.save_set(tiny_set)
        queue = IngestQueue(fleet, flush_max_updates=100, workers=0)
        queue.submit(base, 0, state_plus(tiny_set, 0, 1.0))
        started = time.monotonic()
        with pytest.raises(IngestBackpressureError):
            queue.submit(base, 1, state_plus(tiny_set, 1, 1.0))
        # No worker can drain concurrently, so block degrades to shed
        # instead of deadlocking for block_deadline_s.
        assert time.monotonic() - started < 5.0
        queue.close()

    def _jammed_queue(self, fleet, **queue_kwargs):
        """Queue whose (single) worker blocks in execute_save until
        ``release`` is set; returns (queue, entered, release)."""
        entered = threading.Event()
        release = threading.Event()
        original = fleet.execute_save

        def slow_execute(*args, **kwargs):
            entered.set()
            assert release.wait(10.0)
            return original(*args, **kwargs)

        fleet.execute_save = slow_execute
        return IngestQueue(fleet, workers=1, **queue_kwargs), entered, release

    def test_block_policy_sheds_after_the_deadline(self, tiny_set):
        fleet = make_fleet(
            health_config(
                backpressure="block",
                high_watermark=1,
                low_watermark=0,
                block_deadline_s=0.1,
            )
        )
        base = fleet.save_set(tiny_set)
        queue, entered, release = self._jammed_queue(
            fleet, flush_max_updates=1
        )
        queue.submit(base, 0, state_plus(tiny_set, 0, 1.0))
        assert entered.wait(5.0)  # the flush is in the jammed worker
        with pytest.raises(IngestBackpressureError, match="did not drain"):
            queue.submit(base, 1, state_plus(tiny_set, 1, 1.0))
        assert queue.blocked_submits == 1
        assert queue.updates_shed == 1
        release.set()
        queue.close()
        assert queue.flushes == 1

    def test_blocked_submit_proceeds_once_the_shard_drains(self, tiny_set):
        fleet = make_fleet(
            health_config(
                backpressure="block",
                high_watermark=1,
                low_watermark=0,
                block_deadline_s=30.0,
            )
        )
        base = fleet.save_set(tiny_set)
        queue, entered, release = self._jammed_queue(
            fleet, flush_max_updates=1
        )
        queue.submit(base, 0, state_plus(tiny_set, 0, 1.0))
        assert entered.wait(5.0)
        outcome = {}

        def blocked_submit():
            try:
                queue.submit(base, 1, state_plus(tiny_set, 1, 1.0))
                outcome["ok"] = True
            except BaseException as error:  # noqa: BLE001
                outcome["error"] = error

        submitter = threading.Thread(target=blocked_submit)
        submitter.start()
        deadline = time.monotonic() + 5.0
        while queue.blocked_submits == 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert queue.blocked_submits == 1
        release.set()  # the jammed flush completes, draining the shard
        submitter.join(timeout=10.0)
        assert not submitter.is_alive()
        assert outcome == {"ok": True}
        queue.close()
        assert queue.flushes == 2
        assert queue.updates_shed == 0


class TestClosedSemantics:
    def test_submit_after_close_raises_typed_error(self, tiny_set):
        fleet = make_fleet()
        base = fleet.save_set(tiny_set)
        queue = IngestQueue(fleet, workers=0)
        queue.close()
        with pytest.raises(IngestClosedError) as refusal:
            queue.submit(base, 0, state_plus(tiny_set, 0, 1.0))
        assert isinstance(refusal.value, IngestError)
        queue.close()  # idempotent

    def test_submit_after_abort_raises_typed_error(self, tiny_set):
        fleet = make_fleet()
        base = fleet.save_set(tiny_set)
        queue = IngestQueue(fleet, flush_max_updates=100, workers=0)
        queue.submit(base, 0, state_plus(tiny_set, 0, 1.0))
        queue.abort()
        assert queue.depth == 0  # abort discards pending work
        assert queue.flushes == 0
        with pytest.raises(IngestClosedError):
            queue.submit(base, 0, state_plus(tiny_set, 0, 2.0))

    def test_submit_racing_close_is_deterministic(self, tiny_set):
        """Regression: a submit overlapping close() must raise the typed
        IngestClosedError immediately — not deadlock against the drain,
        and not slip an update into a closing queue."""
        fleet = make_fleet()
        base = fleet.save_set(tiny_set)
        entered = threading.Event()
        release = threading.Event()
        original = fleet.execute_save

        def slow_execute(*args, **kwargs):
            entered.set()
            assert release.wait(10.0)
            return original(*args, **kwargs)

        fleet.execute_save = slow_execute
        queue = IngestQueue(fleet, flush_max_updates=1, workers=1)
        queue.submit(base, 0, state_plus(tiny_set, 0, 1.0))
        assert entered.wait(5.0)  # close() will block draining this save
        closer = threading.Thread(target=queue.close)
        closer.start()
        deadline = time.monotonic() + 5.0
        while not queue._closing and time.monotonic() < deadline:
            time.sleep(0.002)
        assert queue._closing
        started = time.monotonic()
        with pytest.raises(IngestClosedError):
            queue.submit(base, 1, state_plus(tiny_set, 1, 1.0))
        assert time.monotonic() - started < 2.0
        release.set()
        closer.join(timeout=10.0)
        assert not closer.is_alive()
        # The in-flight save still landed: close never discards.
        assert queue.flushes == 1
        assert queue.updates_submitted == 1  # the refused submit never counted

    def test_blocked_submit_is_released_by_close(self, tiny_set):
        fleet = make_fleet(
            health_config(
                backpressure="block",
                high_watermark=1,
                low_watermark=0,
                block_deadline_s=30.0,
            )
        )
        base = fleet.save_set(tiny_set)
        entered = threading.Event()
        release = threading.Event()
        original = fleet.execute_save

        def slow_execute(*args, **kwargs):
            entered.set()
            assert release.wait(10.0)
            return original(*args, **kwargs)

        fleet.execute_save = slow_execute
        queue = IngestQueue(fleet, flush_max_updates=1, workers=1)
        queue.submit(base, 0, state_plus(tiny_set, 0, 1.0))
        assert entered.wait(5.0)
        outcome = {}

        def blocked_submit():
            try:
                queue.submit(base, 1, state_plus(tiny_set, 1, 1.0))
                outcome["ok"] = True
            except BaseException as error:  # noqa: BLE001
                outcome["error"] = error

        submitter = threading.Thread(target=blocked_submit)
        submitter.start()
        deadline = time.monotonic() + 5.0
        while queue.blocked_submits == 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        closer = threading.Thread(target=queue.close)
        closer.start()
        submitter.join(timeout=5.0)
        assert not submitter.is_alive()
        # Waking into a closing queue is a typed refusal, not a hang.
        assert isinstance(outcome.get("error"), IngestClosedError)
        release.set()
        closer.join(timeout=10.0)
        assert not closer.is_alive()
