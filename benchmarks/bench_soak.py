"""Long-horizon soak: background maintenance under live fleet traffic.

Runs hundreds of U3 update cycles through FleetManager + IngestQueue
with continuous Zipf-ranked reads through the serving cache while a
MaintenanceScheduler garbage-collects, compacts, scrubs, and drains
replica repairs — with a seeded replica outage and a seeded kill of one
maintenance pass mid-transaction.  Writes ``results/soak.json``.

Claims asserted here (deterministic per ``--seed`` / REPRO_FAULT_SEED):

* every flushed save, every concurrent read, and every final chain head
  is byte-identical to the serial in-memory oracle;
* the seeded kill fires inside a maintenance transaction, the reopened
  fleet rolls it back, and every shard passes a deep fsck (exit 0);
* p99 simulated save latency with maintenance on stays within 2x the
  maintenance-off baseline;
* storage converges to the retention-policy plateau (end state within
  10%) instead of growing without bound like the baseline.

Scale knobs: ``REPRO_SOAK_CYCLES`` (default 200), ``REPRO_SOAK_CHAINS``,
``REPRO_SOAK_MODELS`` — CI's soak-smoke job runs a bounded variant.
"""

import os
from pathlib import Path

from repro.bench.soak import format_report, run_soak_benchmark
from repro.bench.report import write_report

CYCLES = int(os.environ.get("REPRO_SOAK_CYCLES", "200"))
NUM_CHAINS = int(os.environ.get("REPRO_SOAK_CHAINS", "3"))
NUM_MODELS = int(os.environ.get("REPRO_SOAK_MODELS", "3"))

RESULTS_PATH = Path(__file__).resolve().parent.parent / "results" / "soak.json"


def test_soak(benchmark, fault_seed):
    report = benchmark.pedantic(
        lambda: run_soak_benchmark(
            cycles=CYCLES,
            num_chains=NUM_CHAINS,
            num_models=NUM_MODELS,
            fault_seed=fault_seed,
        ),
        rounds=1,
        iterations=1,
    )
    write_report(report, RESULTS_PATH)
    print(format_report(report))
    benchmark.extra_info["summary"] = {
        "latency": report["latency"],
        "maintenance": report["maintenance"],
        "kill": report["kill"],
    }

    # Byte identity: every flush verified, every read matched, and the
    # final head of every chain equals the serial oracle.
    identity = report["identity"]
    assert identity["flushes_verified"] >= CYCLES * NUM_CHAINS
    assert identity["flush_mismatches"] == 0
    assert identity["final_chains_identical"]
    assert identity["reader_mismatches"] == 0
    assert identity["reader_errors"] == []
    assert identity["reader_reads"] > 0

    # The seeded schedule killed one maintenance pass mid-transaction;
    # reopening rolled it back and fsck'd clean.
    kill = report["kill"]
    assert kill["fired"] and kill["crashed"], kill
    assert "maintenance" in kill["rolled_back_kinds"], kill
    assert all(code == 0 for code in kill["fsck_exit_codes_after_reopen"]), kill

    # Maintenance actually ran and reclaimed storage under load.
    upkeep = report["maintenance"]
    assert upkeep["passes"] > 0
    assert upkeep["sets_deleted"] > 0
    assert upkeep["sets_compacted"] > 0
    assert upkeep["bytes_reclaimed"] > 0
    assert upkeep["repairs_drained"] > 0  # the outage queued repairs
    assert upkeep["lost_artifacts"] == []

    # p99 simulated save latency bounded by 2x the maintenance-off run.
    assert report["latency"]["p99_ratio"] <= 2.0, report["latency"]

    # Storage plateaus at the retention policy instead of growing.
    storage = report["storage"]
    assert 0.9 <= storage["end_vs_plateau"] <= 1.1, storage
    assert storage["end_bytes"] < storage["baseline_end_bytes"] / 2, storage

    # The soaked fleet ends deep-fsck clean on every shard.
    assert all(code == 0 for code in report["fsck_exit_codes_final"])
