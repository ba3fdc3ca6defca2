"""Parallel save/recover scaling sweep and compaction payoff.

Sweeps the engine's ``workers`` knob over a U1 save and a deep-chain
recovery of a 1000-model set on the archive (object-store-like) profile,
and compares delta-chain compaction against the paper's recursive
recovery.  The full report is written to ``results/parallel_scaling.json``
alongside the other benchmark artifacts.

Claims asserted here (all deterministic — the simulated store charges do
not depend on the host):

* saving the set with 4 worker lanes is at least 2x faster than serial,
* recovered sets are byte-identical at every worker count, and
* compacted recovery reads strictly fewer parameter bytes than the
  recursive replay at chain depth >= 3, with identical results.
"""

from pathlib import Path

from benchmarks.conftest import BENCH_NUM_MODELS
from repro.bench.scaling import format_report, run_parallel_scaling
from repro.bench.report import write_report

#: The scaling claims are calibrated at the paper-adjacent 1000-model
#: scale; ``REPRO_BENCH_MODELS`` can only raise it.
NUM_MODELS = max(1000, BENCH_NUM_MODELS)
CHAIN_DEPTH = 6
WORKERS = (1, 2, 4, 8)

RESULTS_PATH = Path(__file__).resolve().parent.parent / "results" / "parallel_scaling.json"


def test_parallel_scaling_sweep(benchmark):
    report = benchmark.pedantic(
        lambda: run_parallel_scaling(
            num_models=NUM_MODELS, chain_depth=CHAIN_DEPTH, workers=WORKERS
        ),
        rounds=1,
        iterations=1,
    )
    write_report(report, RESULTS_PATH)
    print(format_report(report))
    benchmark.extra_info["report"] = report

    # >= 2x time-to-save at 4 lanes (U1, the 1000-model initial save).
    u1 = {key: value["u1_tts_s"] for key, value in report["save"].items()}
    assert u1["1"] / u1["4"] >= 2.0
    # Recovery scales at least as well (vectored range reads).
    assert report["speedup"]["recover_w4_vs_w1"] >= 2.0
    # Byte-identical recoveries at every worker count.
    digests = {value["digest"] for value in report["recover"].values()}
    assert len(digests) == 1
    # Compaction reads strictly fewer bytes than recursive replay.
    compaction = report["compaction"]
    assert compaction["chain_depth"] >= 3
    assert (
        compaction["compact_file_bytes_read"]
        < compaction["replay_file_bytes_read"]
    )
    assert compaction["identical"]
