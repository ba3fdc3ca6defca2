"""Ingest flushes leave the archive direct saves of the same sets leave.

A flush hashes only the models its batch touched and takes every other
model's hash row from the base set (DESIGN.md §9).  The law checked
here: an ingest run's shard trees are byte-identical to the trees of a
second fleet that saves the same materialized sets with
``FleetManager.save_set`` in flush order — including after a flush
retried past an injected storage failure and a dead-lettered batch
replayed later.
"""

import hashlib
import tempfile
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.storage.hashing as hashing
from repro.config import ArchiveConfig, FleetHealthConfig
from repro.core.model_set import ModelSet
from repro.errors import IngestError
from repro.fleet import FleetManager, IngestQueue
from repro.storage.faults import FaultInjector, inject_faults
from repro.storage.persistent import SHARD_PREFIX

SHARDS = 2
MODELS = 4
LAYERS = len(ModelSet.build("FFNN-48", num_models=1, seed=0).schema.entries)

#: One submission: (chain, model, layer nudged, amount; 0.0 resubmits
#: the model's current bytes).
submissions = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=MODELS - 1),
        st.integers(min_value=0, max_value=LAYERS - 1),
        st.sampled_from([0.0, 0.25, 1.0]),
    ),
    min_size=1,
    max_size=20,
)


def digest_dir(root: Path) -> str:
    """Content digest over every file: relative path + exact bytes."""
    acc = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            acc.update(str(path.relative_to(root)).encode())
            acc.update(b"\0")
            acc.update(path.read_bytes())
            acc.update(b"\0")
    return acc.hexdigest()


def shard_digests(root: Path) -> list[str]:
    return [digest_dir(root / f"{SHARD_PREFIX}{index}") for index in range(SHARDS)]


def id_number(set_id: str) -> int:
    return int(set_id.rsplit("-", 1)[1])


def open_fleet(root: Path, dedup: bool, granularity: str, **health) -> FleetManager:
    health = {"down_after": 100, "flush_retries": 2, "retry_base_s": 0.01, **health}
    config = ArchiveConfig(shards=SHARDS, dedup=dedup, health=FleetHealthConfig(**health))
    return FleetManager.open(str(root), "update", config, granularity=granularity)


def initial_sets(chains: int) -> list[ModelSet]:
    return [
        ModelSet.build("FFNN-48", num_models=MODELS, seed=40 + chain)
        for chain in range(chains)
    ]


class Recorded:
    """An ingest fleet whose successful derived saves (the flushes) are
    recorded in order: ``(set_id, base, copy of the saved set)``."""

    def __init__(self, root: Path, dedup: bool, granularity: str, **health):
        self.fleet = open_fleet(root, dedup, granularity, **health)
        self.saves: list[tuple] = []
        execute_save = self.fleet.execute_save

        def recording(set_id, shard, model_set, base_set_id=None, **kwargs):
            saved = execute_save(set_id, shard, model_set, base_set_id, **kwargs)
            if base_set_id is not None:
                self.saves.append((set_id, base_set_id, model_set.copy()))
            return saved

        self.fleet.execute_save = recording


def replay_saves(root, dedup, granularity, initial, saves) -> None:
    """Save ``initial`` then every recorded set directly, in flush order,
    burning the ids the ingest run burned on dead-lettered flushes."""
    fleet = open_fleet(root, dedup, granularity)
    for model_set in initial:
        fleet.save_set(model_set)
    next_number = len(initial)
    for set_id, base, model_set in saves:
        for _ in range(id_number(set_id) - next_number):
            fleet.forget_allocation(fleet.allocate_save(base)[0])
        next_number = id_number(set_id) + 1
        assert fleet.save_set(model_set, base_set_id=base) == set_id


def nudged(state: "OrderedDict", layer: int, amount: float) -> "OrderedDict":
    """A fresh state dict (the queue keeps a reference to what it is
    given) with one layer moved by ``amount``."""
    result = OrderedDict(state)
    name = list(result)[layer]
    result[name] = (result[name] + np.float32(amount)).astype(np.float32)
    return result


def chain_head(queue, root) -> "str | None":
    heads = [entry["set_id"] for entry in queue.flush_log if entry["root"] == root]
    return heads[-1] if heads else None


def run_stream(queue, roots, current, stream) -> None:
    for chain, model, layer, amount in stream:
        chain %= len(roots)
        state = nudged(current[chain].state(model), layer, amount)
        current[chain].states[model] = state
        queue.submit(roots[chain], model, state)


class TestIngestMatchesDirectSaves:
    @given(
        stream=submissions,
        chains=st.integers(min_value=1, max_value=3),
        flush_max_updates=st.integers(min_value=1, max_value=4),
        dedup=st.booleans(),
        granularity=st.sampled_from(["layer", "model"]),
    )
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_shard_trees_equal_replayed_saves(
        self, stream, chains, flush_max_updates, dedup, granularity
    ):
        with tempfile.TemporaryDirectory() as tmp:
            ingest_root, direct_root = Path(tmp, "ingest"), Path(tmp, "direct")
            initial = initial_sets(chains)
            run = Recorded(ingest_root, dedup, granularity)
            roots = [run.fleet.save_set(model_set) for model_set in initial]
            current = [model_set.copy() for model_set in initial]
            queue = IngestQueue(run.fleet, flush_max_updates=flush_max_updates, workers=0)
            run_stream(queue, roots, current, stream)
            queue.close()
            assert [entry["set_id"] for entry in queue.flush_log] == [
                set_id for set_id, _, _ in run.saves
            ]
            for chain, root in enumerate(roots):
                head = chain_head(queue, root)
                if head is not None:
                    assert run.fleet.recover_set(head).equals(current[chain])
            replay_saves(direct_root, dedup, granularity, initial, run.saves)
            assert shard_digests(ingest_root) == shard_digests(direct_root)


class TestFailedFlushes:
    @pytest.mark.parametrize("dedup", [False, True])
    @pytest.mark.parametrize("down_at", [0, 1, 2])
    def test_retried_flush_matches_replayed_saves(self, tmp_path, dedup, down_at):
        """The shard fails one mutation of a flush; the retry recovers
        the base again, and the archive still equals the direct saves."""
        initial = initial_sets(2)
        run = Recorded(tmp_path / "ingest", dedup, "layer")
        roots = [run.fleet.save_set(model_set) for model_set in initial]
        current = [model_set.copy() for model_set in initial]
        queue = IngestQueue(run.fleet, flush_max_updates=2, workers=0)
        run_stream(queue, roots, current, [(0, 0, 1, 1.0), (0, 1, 2, 1.0)])
        shard = run.fleet.shard_of(roots[0])
        injector = inject_faults(
            run.fleet.shards[shard].context,
            FaultInjector(down_at=down_at, down_mode="before"),
        )
        reinstate = run.fleet.reinstate_allocation

        def revive_then_reinstate(*args, **kwargs):
            injector.revive()
            reinstate(*args, **kwargs)

        run.fleet.reinstate_allocation = revive_then_reinstate
        run_stream(queue, roots, current, [(0, 2, 3, 1.0), (0, 1, 0, 0.5)])
        assert queue.flush_retries == 1
        run_stream(queue, roots, current, [(1, 3, 1, 1.0), (0, 3, 1, 0.25)])
        queue.close()
        assert queue.flushes == 4 and queue.dead_lettered == 0
        replay_saves(tmp_path / "direct", dedup, "layer", initial, run.saves)
        assert shard_digests(tmp_path / "ingest") == shard_digests(tmp_path / "direct")

    @pytest.mark.parametrize("dedup", [False, True])
    def test_dead_lettered_batch_replayed_matches(self, tmp_path, dedup):
        initial = initial_sets(2)
        run = Recorded(tmp_path / "ingest", dedup, "layer", flush_retries=1)
        roots = [run.fleet.save_set(model_set) for model_set in initial]
        current = [model_set.copy() for model_set in initial]
        queue = IngestQueue(run.fleet, flush_max_updates=2, workers=0)
        run_stream(queue, roots, current, [(0, 0, 1, 1.0), (0, 1, 2, 1.0)])
        shard = run.fleet.shard_of(roots[0])
        injector = inject_faults(
            run.fleet.shards[shard].context,
            FaultInjector(down_at=0, down_mode="before"),
        )
        with pytest.raises(IngestError, match="dead-lettered"):
            run_stream(queue, roots, current, [(0, 2, 3, 1.0), (0, 0, 0, 0.5)])
        assert queue.dead_lettered == 1
        injector.revive()
        run_stream(queue, roots, current, [(0, 3, 1, 1.0), (1, 2, 2, 1.0)])
        run_stream(queue, roots, current, [(1, 0, 0, 1.0), (0, 1, 1, 0.25)])
        assert queue.replay_dead_letters()["failed"] == []
        queue.close()
        assert run.fleet.deadletter.count == 0
        assert run.fleet.recover_set(chain_head(queue, roots[0])).equals(current[0])
        replay_saves(tmp_path / "direct", dedup, "layer", initial, run.saves)
        assert shard_digests(tmp_path / "ingest") == shard_digests(tmp_path / "direct")

    def test_a_closed_queue_holds_no_set_and_a_fresh_one_replays(self, tmp_path):
        """close() drops every chain's materialized set (a cache of the
        last durable save); a new queue replays the parked batch onto the
        head it reads from the store, byte-identical to direct saves."""
        initial = initial_sets(2)
        run = Recorded(tmp_path / "ingest", False, "layer", flush_retries=0)
        roots = [run.fleet.save_set(model_set) for model_set in initial]
        current = [model_set.copy() for model_set in initial]
        queue = IngestQueue(run.fleet, flush_max_updates=2, workers=0)
        run_stream(queue, roots, current, [(0, 0, 1, 1.0), (0, 1, 2, 1.0)])
        run_stream(queue, roots, current, [(1, 3, 1, 1.0), (1, 2, 2, 1.0)])
        injector = inject_faults(
            run.fleet.shards[run.fleet.shard_of(roots[0])].context,
            FaultInjector(down_at=0, down_mode="before"),
        )
        with pytest.raises(IngestError, match="dead-lettered"):
            run_stream(queue, roots, current, [(0, 2, 3, 1.0), (0, 0, 0, 0.5)])
        injector.revive()
        queue.close()
        assert [chain.materialized for chain in queue._chains.values()] == [None, None]
        fresh = IngestQueue(run.fleet, flush_max_updates=2, workers=0)
        assert fresh.replay_dead_letters()["failed"] == []
        fresh.close()
        assert run.fleet.deadletter.count == 0
        assert run.fleet.recover_set(chain_head(fresh, roots[0])).equals(current[0])
        replay_saves(tmp_path / "direct", False, "layer", initial, run.saves)
        assert shard_digests(tmp_path / "ingest") == shard_digests(tmp_path / "direct")


def test_flush_hashes_only_its_batch(tiny_set, monkeypatch):
    """A flush of k models calls ``hash_array`` k x layers times."""
    fleet = FleetManager.with_approach("update", ArchiveConfig(shards=1))
    base = fleet.save_set(tiny_set)
    current = tiny_set.copy()
    queue = IngestQueue(fleet, flush_max_updates=2, workers=0)
    # The first flush materializes the chain in the queue.
    run_stream(queue, [base], [current], [(0, 0, 0, 1.0), (0, 0, 1, 1.0)])
    calls = []
    original = hashing.hash_array
    monkeypatch.setattr(
        hashing, "hash_array", lambda *a, **k: calls.append(1) or original(*a, **k)
    )
    run_stream(queue, [base], [current], [(0, 1, 2, 1.0), (0, 3, 0, 1.0)])
    assert queue.flushes == 2
    assert len(calls) == 2 * LAYERS
    monkeypatch.undo()
    queue.close()
    assert fleet.recover_set(queue.flush_log[-1]["set_id"]).equals(current)
