"""Content-addressed dedup sweep: storage, TTS, recovery identity, GC.

Runs the paper's default scenario (U1 + three U3 cycles) with the chunk
layer off and on for every approach that supports the knob, and writes
the full report to ``results/dedup.json``.

Claims asserted here (all deterministic — seeded scenario, simulated
store charges, content digests):

* Baseline's U3 cycles shrink by >= 30 % in parameter bytes with dedup
  on (unchanged layers are elided instead of re-snapshotted) — in
  practice the reduction is ~90 %;
* the simulated U3 time-to-save improves alongside (elided chunks cost
  no file-store operation);
* recovery is byte-identical with dedup on or off for every approach;
* after garbage-collecting all but the newest set, the sweep reclaims
  exactly the chunks referenced only by the deleted sets.
"""

import json
from pathlib import Path

from benchmarks.conftest import BENCH_NUM_MODELS
from repro.bench.dedup import format_report, run_dedup_benchmark
from repro.bench.report import write_report
from repro.observability.schema import validate_trace_document

NUM_MODELS = BENCH_NUM_MODELS
CYCLES = 3

RESULTS_PATH = Path(__file__).resolve().parent.parent / "results" / "dedup.json"
TRACE_PATH = RESULTS_PATH.with_name("dedup_trace.json")
SCHEMA_PATH = Path(__file__).resolve().parent / "trace_schema.json"


def test_dedup_sweep(benchmark):
    report = benchmark.pedantic(
        lambda: run_dedup_benchmark(
            num_models=NUM_MODELS, cycles=CYCLES, trace_path=TRACE_PATH
        ),
        rounds=1,
        iterations=1,
    )
    write_report(report, RESULTS_PATH)
    print(format_report(report))
    benchmark.extra_info["report"] = report

    # The traced run's JSON export validates against the *checked-in*
    # schema (the copy CI and external consumers pin against), and every
    # trace's phase breakdown sums to its own simulated total.
    document = json.loads(Path(report["trace_path"]).read_text())
    schema = json.loads(SCHEMA_PATH.read_text())
    assert validate_trace_document(document, schema) == []
    for trace in document["traces"]:
        assert (
            abs(sum(trace["phases"].values()) - trace["total_simulated_s"])
            <= 1e-9
        )

    baseline = report["approaches"]["baseline"]
    # U3 cycles: >= 30 % fewer parameter bytes (acceptance floor; the
    # measured reduction is ~90 % — only changed layers are appended).
    assert baseline["u3_storage_reduction"] >= 0.30
    # The whole archive shrinks too (U1's cross-model duplicates dedup).
    assert baseline["total_storage_reduction"] >= 0.30
    # Deterministic simulated TTS improvement on the U3 cycles.
    assert baseline["u3_simulated_tts_speedup"] > 1.0

    for approach, entry in report["approaches"].items():
        # Byte-identical recovery with the knob on or off.
        assert entry["recovery_identical"], approach
        # GC after dropping all but the newest set reclaims exactly the
        # chunks with zero remaining references.
        gc = entry["on"]["gc"]
        assert gc["exact"], approach
        assert gc["chunks_reclaimed"] == gc["predicted_chunks"], approach
