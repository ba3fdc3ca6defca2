"""Serving-path sweep: tiered cache under a 95/5 Zipf read mix.

Replays the same seeded request stream (95% recover / 5% save,
Zipf-skewed set popularity) against 1- and 4-shard fleets with 1→32
concurrent readers, cache on vs cache off, and writes the full report
to ``results/serving.json``.

Claims asserted here (simulated-latency claims are deterministic — the
store charges do not depend on the host):

* warm p50 simulated read latency improves >= 5x with the cache on, at
  every shard/reader combination;
* the cache serves a nonzero tier-1 hit rate on every cached config;
* chunk-granular reuse: a cold v8 read after v7 is cached fetches only
  the chunks whose digests v7's recovery did not already decode;
* every configuration's recoveries — including the replica-down
  degraded read after a stale cache entry is dropped — are
  byte-identical to the uncached oracle.
"""

import os
from pathlib import Path

from repro.bench.serving import format_report, run_serving_benchmark
from repro.bench.report import write_report

NUM_MODELS = int(os.environ.get("REPRO_BENCH_MODELS", "8"))
NUM_REQUESTS = int(os.environ.get("REPRO_SERVING_REQUESTS", "200"))

RESULTS_PATH = Path(__file__).resolve().parent.parent / "results" / "serving.json"


def test_serving_sweep(benchmark, fault_seed):
    report = benchmark.pedantic(
        lambda: run_serving_benchmark(
            models_per_set=NUM_MODELS,
            num_requests=NUM_REQUESTS,
            fault_seed=fault_seed,
        ),
        rounds=1,
        iterations=1,
    )
    report["fault_seed"] = fault_seed
    write_report(report, RESULTS_PATH)
    print(format_report(report))
    benchmark.extra_info["speedups"] = report["speedups"]

    # >= 5x warm p50 on the 95/5 workload at every configuration.
    for name, speedup in report["speedups"].items():
        assert speedup >= 5.0, f"{name}: {speedup:.1f}x"
    for entry in report["configs"]:
        # Byte-identical to the uncached oracle everywhere.
        assert entry["identical_to_oracle"]
        if entry["cache"] == "on":
            assert entry["set_hit_rate"] > 0.0
    # Chunk-granular reuse: the cold read moves only the differing chunks.
    diff = report["differential"]
    assert diff["chunk_granular"], diff
    assert diff["identical_to_oracle"]
    # Replica outage: hits keep serving, the cold failover read matches.
    degraded = report["degraded"]
    assert degraded["hit_served_during_outage"]
    assert degraded["degraded_identical"]
