"""Fleet scaling through the ingest queue: makespan, coalescing, identity.

Writer threads push bursty per-model update streams through an
:class:`IngestQueue` into a 1-shard fleet (one writer) and an 8-shard
fleet (four writers). Each chain has exactly one writer and flushes
trigger on per-chain submission counts, so every flushed set's bytes and
every shard's simulated store seconds are independent of thread
scheduling. Fleet time-to-save is the makespan: shards work in parallel,
so it is the largest per-shard total, not their sum.
"""

import threading
from collections import OrderedDict

import pytest

from repro.config import ArchiveConfig
from repro.fleet import FleetManager, IngestQueue
from repro.storage.hardware import ARCHIVE_PROFILE

CHAINS = 24
FLUSH_MAX_UPDATES = 8
BURSTS = 2


def chain_stream(base, chain):
    """Chain ``chain``'s submissions as ``(model index, state)`` pairs.

    A burst cycles the model indices faster than a flush window fills, so
    each window submits the same index repeatedly: the overwrites
    last-writer-wins coalescing elides.
    """
    stream = []
    for ordinal in range(BURSTS * FLUSH_MAX_UPDATES):
        index = ordinal % len(base)
        state = OrderedDict(
            (name, (array + 0.001 * (ordinal + 1) + chain).astype(array.dtype))
            for name, array in base.state(index).items()
        )
        stream.append((index, state))
    return stream


def oracle_flushes(base, stream):
    """The serial oracle: flush k holds the base plus batches 0..k applied."""
    current, flushes = base.copy(), []
    for start in range(0, len(stream), FLUSH_MAX_UPDATES):
        for index, state in stream[start : start + FLUSH_MAX_UPDATES]:
            current.states[index] = state
        flushes.append(current.copy())
    return flushes


def run_ingest(shards, writers, base, streams):
    fleet = FleetManager.with_approach(
        "update", ArchiveConfig(shards=shards, profile=ARCHIVE_PROFILE)
    )
    roots = [fleet.save_set(base) for _ in streams]
    before = fleet.shard_simulated_s()
    queue = IngestQueue(fleet, flush_max_updates=FLUSH_MAX_UPDATES)
    errors = []

    def writer(worker):
        # Bursts interleave across the writer's chains, like training
        # jobs checkpointing out of phase.
        try:
            for start in range(0, BURSTS * FLUSH_MAX_UPDATES, FLUSH_MAX_UPDATES):
                for chain in range(worker, len(streams), writers):
                    for index, state in streams[chain][start : start + FLUSH_MAX_UPDATES]:
                        queue.submit(roots[chain], index, state)
        except BaseException as error:  # noqa: BLE001 - re-raised below
            errors.append(error)

    threads = [threading.Thread(target=writer, args=(w,)) for w in range(writers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    queue.drain()
    if errors:
        raise errors[0]
    per_shard = [after - start for start, after in zip(before, fleet.shard_simulated_s())]
    flushed, seen = {}, {}
    for entry in queue.flush_log:
        chain = roots.index(entry["root"])
        k = seen[chain] = seen.get(chain, -1) + 1
        flushed[chain, k] = fleet.recover_set(entry["set_id"])
    queue.close()
    return {
        "makespan_s": max(per_shard),
        "coalescing_ratio": queue.coalescing_ratio,
        "flushes": queue.flushes,
        "flushed": flushed,
        "max_lock_wait_s": max(lock.wait_s for lock in fleet.shard_locks),
    }


@pytest.fixture(scope="module")
def runs(tiny_set):
    streams = [chain_stream(tiny_set, chain) for chain in range(CHAINS)]
    oracle = {
        (chain, k): expected
        for chain, stream in enumerate(streams)
        for k, expected in enumerate(oracle_flushes(tiny_set, stream))
    }
    fleets = {
        (shards, writers): run_ingest(shards, writers, tiny_set, streams)
        for shards, writers in ((1, 1), (8, 4))
    }
    return fleets, oracle


def test_makespan_falls_threefold_at_eight_shards(runs):
    fleets, _ = runs
    assert fleets[1, 1]["makespan_s"] / fleets[8, 4]["makespan_s"] >= 3.0


def test_bursty_streams_coalesce(runs):
    fleets, _ = runs
    for run in fleets.values():
        assert run["coalescing_ratio"] > 2.0


def test_every_flush_equals_the_serial_oracle(runs):
    fleets, oracle = runs
    for run in fleets.values():
        assert run["flushes"] == len(oracle)
        assert run["flushed"].keys() == oracle.keys()
        for key, expected in oracle.items():
            assert run["flushed"][key].equals(expected), key


def test_flushed_bytes_agree_across_shard_and_writer_counts(runs):
    fleets, _ = runs
    serial, sharded = fleets[1, 1]["flushed"], fleets[8, 4]["flushed"]
    assert serial.keys() == sharded.keys()
    for key, recovered in serial.items():
        assert recovered.equals(sharded[key]), key


def test_shard_lock_waits_stay_short_under_concurrent_writers(runs):
    fleets, _ = runs
    for run in fleets.values():
        assert run["max_lock_wait_s"] < 1.0
