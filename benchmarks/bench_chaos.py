"""Chaos benchmark: fleet graceful degradation under a shard outage.

Drives ``REPRO_CHAOS_WRITERS`` concurrent writer chains plus Zipf-ranked
readers through FleetManager + IngestQueue while a seeded schedule takes
one shard's stores down cold mid-run, then asserts the graceful-
degradation contract (see ``repro.bench.chaos``).  Writes
``results/chaos.json``.

Claims asserted here (outage schedule deterministic per ``--seed`` /
REPRO_FAULT_SEED):

* zero accepted-update loss: flushed ∪ dead-lettered = accepted, and
  after replay the dead-letter store is empty with every batch flushed;
* byte identity: final chain heads, replayed batches, a seeded sample of
  historical flushes, and every concurrent read match the serial oracle;
* bounded queue memory: per-shard ingest load never exceeds the
  admission high watermark;
* breaker lifecycle: the victim trips DOWN and half-open save probes
  close it in-process after the revive;
* healthy shards unaffected: p99 simulated save latency on non-victim
  shards within 1.2x the no-fault baseline.

Scale knobs: ``REPRO_CHAOS_CYCLES`` (default 48), ``REPRO_CHAOS_WRITERS``
(default 32), ``REPRO_CHAOS_MODELS``, ``REPRO_CHAOS_SHARDS`` — CI's
chaos-matrix job runs a bounded variant under two seeds.
"""

import os
from pathlib import Path

from repro.bench.chaos import format_report, run_chaos_benchmark
from repro.bench.report import write_report

CYCLES = int(os.environ.get("REPRO_CHAOS_CYCLES", "48"))
NUM_WRITERS = int(os.environ.get("REPRO_CHAOS_WRITERS", "32"))
NUM_MODELS = int(os.environ.get("REPRO_CHAOS_MODELS", "3"))
SHARDS = int(os.environ.get("REPRO_CHAOS_SHARDS", "4"))

RESULTS_PATH = Path(__file__).resolve().parent.parent / "results" / "chaos.json"


def test_chaos(benchmark, fault_seed):
    report = benchmark.pedantic(
        lambda: run_chaos_benchmark(
            cycles=CYCLES,
            num_writers=NUM_WRITERS,
            num_models=NUM_MODELS,
            shards=SHARDS,
            fault_seed=fault_seed,
        ),
        rounds=1,
        iterations=1,
    )
    write_report(report, RESULTS_PATH)
    print(format_report(report))
    chaos = report["chaos"]
    books = chaos["accounting"]
    benchmark.extra_info["summary"] = {
        "schedule": report["schedule"],
        "accounting": books,
        "latency": report["latency"],
    }

    # The run behaved: no writer died, and the outage actually hit live
    # traffic (the victim is drawn from shards that own chains).
    assert chaos["writer_errors"] == []
    assert chaos["chains_on_victim"] > 0
    assert books["parked_batches"] > 0, books  # the outage dead-lettered work

    # Zero accepted-update loss: everything submit() accepted is either
    # flushed or parked — and after replay, flushed.
    accepted = books["accepted"]
    assert accepted >= CYCLES * NUM_WRITERS * NUM_MODELS
    assert (
        books["flushed_models_before_replay"]
        + books["parked_models"]
        + books["coalesced"]
        == accepted
    ), books
    assert books["replay_failed"] == [] and books["replay_skipped"] == [], books
    assert books["replayed_models"] == books["parked_models"], books
    assert books["flushed_models_total"] + books["coalesced"] == accepted, books
    assert books["dead_letters_remaining"] == 0, books

    # Byte identity against the serial oracle, live and after the fact.
    identity = chaos["identity"]
    assert identity["final_chains_checked"] == NUM_WRITERS
    assert identity["final_chain_mismatches"] == 0
    assert identity["replayed_flushes_verified"] == books["replayed_batches"]
    assert identity["replayed_mismatches"] == 0
    assert identity["sampled_flushes_verified"] > 0
    assert identity["sampled_mismatches"] == 0
    assert identity["reader_reads"] > 0
    assert identity["reader_mismatches"] == 0
    assert identity["reader_errors"] == []

    # Bounded queue memory: admission held the watermark, outage or not.
    pressure = chaos["backpressure"]
    assert max(pressure["max_shard_load"]) <= pressure["high_watermark"], pressure

    # Breaker lifecycle: the victim tripped DOWN (refused reads prove the
    # gate engaged) and came back HEALTHY in-process after the revive.
    health = chaos["health"]
    assert chaos["health"]["flush_retries"] > 0
    assert all(state == "healthy" for state in health["final_states"]), health
    victim_snapshot = health["snapshot"][report["schedule"]["victim_shard"]]
    assert victim_snapshot["breaker_trips"] >= 1, victim_snapshot
    assert victim_snapshot["refused"] > 0, victim_snapshot
    assert victim_snapshot["probes"] >= 1, victim_snapshot

    # Healthy shards stay fast: p99 within 1.2x the no-fault baseline.
    assert report["latency"]["p99_ratio"] <= 1.2, report["latency"]
