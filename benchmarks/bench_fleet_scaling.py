"""Fleet scaling sweep: 1→64 concurrent writers over 1/2/4/8 shards.

Pushes the same bursty per-model update workload through the coalescing
ingest queue at every shard/writer combination and writes the full
report to ``results/fleet_scaling.json``.

Claims asserted here (simulated-time claims are deterministic — the
store charges do not depend on the host):

* fleet TTS (charged as makespan over shards) improves >= 3x at
  8 shards / 64 writers over the single-shard serial archive,
* the ingest queue coalesces bursty per-model streams into > 2x fewer
  set-level saves than updates submitted, and
* every saved set recovers byte-identically to the serial oracle's
  replay of its chain, at every configuration.
"""

from pathlib import Path

from repro.bench.fleet import format_report, run_fleet_scaling
from repro.bench.report import write_report

SHARDS = (1, 2, 4, 8)
WRITERS = (1, 8, 64)

RESULTS_PATH = (
    Path(__file__).resolve().parent.parent / "results" / "fleet_scaling.json"
)


def test_fleet_scaling_sweep(benchmark):
    report = benchmark.pedantic(
        lambda: run_fleet_scaling(shard_counts=SHARDS, writer_counts=WRITERS),
        rounds=1,
        iterations=1,
    )
    write_report(report, RESULTS_PATH)
    print(format_report(report))
    benchmark.extra_info["speedups"] = report["speedups"]

    # >= 3x fleet TTS at 8 shards under the full 64-writer load.
    assert report["speedups"]["update_tts_s8_vs_s1_w64"] >= 3.0
    for entry in report["configs"]:
        # Bursty streams coalesce into >2x fewer saves than submissions.
        assert entry["coalescing_ratio"] > 2.0
        # Byte-identical recovery vs the serial oracle for every set.
        assert entry["identical_to_oracle"]
    # ... and the recovered bytes agree across every shard/writer count.
    assert report["identical_across_configs"]
