"""Registry benchmark: query latency + zero-parameter-read diff proof.

Builds a synthetic ``REPRO_REGISTRY_VERSIONS``-long update family (the
catalog shape a long fine-tuning run produces) and times the public
query surface (see ``repro.bench.registry``).  Writes
``results/registry.json``.

Claims asserted here:

* the catalog indexes the whole chain: one family, every version
  present, ``resolve`` returning the chain head;
* ``diff`` — adjacent and root-to-head — answers per-layer change sets
  from stored hash metadata with **zero parameter-byte reads**
  (file-store stats delta across all timed query loops is 0 reads /
  0 bytes);
* root-to-head diff sees the accumulated drift across models.

Scale knobs: ``REPRO_REGISTRY_VERSIONS`` (default 500),
``REPRO_REGISTRY_MODELS`` (default 4) — CI's registry job runs a
bounded variant.
"""

import os
from pathlib import Path

from repro.bench.registry import format_report, run_registry_benchmark
from repro.bench.report import write_report

VERSIONS = int(os.environ.get("REPRO_REGISTRY_VERSIONS", "500"))
NUM_MODELS = int(os.environ.get("REPRO_REGISTRY_MODELS", "4"))

RESULTS_PATH = Path(__file__).resolve().parent.parent / "results" / "registry.json"


def test_registry_queries(benchmark):
    report = benchmark.pedantic(
        lambda: run_registry_benchmark(versions=VERSIONS, num_models=NUM_MODELS),
        rounds=1,
        iterations=1,
    )
    write_report(report, RESULTS_PATH)
    print(format_report(report))
    benchmark.extra_info["summary"] = {
        "catalog": report["catalog"],
        "latency": report["latency"],
        "stats": report["stats"],
    }

    # The catalog indexed the whole chain.
    catalog = report["catalog"]
    assert catalog["families"] == 1
    assert catalog["versions_in_family"] == VERSIONS

    # The headline claim: layer-level diffs without reading parameters.
    stats = report["stats"]
    assert stats["parameter_reads"] == 0, stats
    assert stats["parameter_bytes_read"] == 0, stats
    assert report["diff_root_to_head"]["source"] == "hash-info"
    assert report["diff_root_to_head"]["models_changed"] == NUM_MODELS
