"""Smoke test of the wall-clock ledger (not collected by tier-1).

Run explicitly::

    PYTHONPATH=src python -m pytest benchmarks/wallclock/test_wallclock_smoke.py -q

It drives every workload at ``--scale smoke`` through the real entry
point, untraced twice and traced once, and checks the benchmark's own
contract: declared names are emitted, exact metrics repeat bit for bit
under one seed, span parents resolve, and the zero-call predictions
hold.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
CONTRACT = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in CONTRACT["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: Metrics that depend only on the inputs, never on the clock.
EXACT_END_TO_END = ("stored_bytes_per_user_byte", "sim_tts_s", "sim_ttr_s")
#: Layers that must see no call on a workload (the bypass predictions).
ABSENT = {
    "paper_cycle": ("storage.replication", "storage.chunk_index", "fleet.", "serving."),
    "dedup_replicated": ("fleet.", "serving."),
    "fleet_ingest": ("storage.replication", "storage.chunk_index", "serving."),
    "serving_mix": ("storage.replication", "fleet."),
}


def run(workload: str, trace: int, tmp_path: Path) -> dict:
    detail = tmp_path / f"{workload}-{trace}.json"
    completed = subprocess.run(
        [
            sys.executable, str(HERE / "__main__.py"), "--workload", workload,
            "--scale", "smoke", "--seed", "7", "--trace", str(trace),
            "--detail", str(detail),
        ],
        capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    last = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    record = json.loads(detail.read_text())
    assert record["metrics"].keys() == last["metrics"].keys()
    return record


def test_contract_names_are_well_formed():
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in CONTRACT[section]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert "setup_s" in {entry["name"] for entry in CONTRACT["end_to_end"]}
    assert all(0 < entry["bound"] <= 0.25 for entry in CONTRACT["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric_and_repeats(workload, tmp_path):
    first = run(workload, 0, tmp_path)
    second = run(workload, 0, tmp_path)
    declared = {entry["name"]: entry["unit"] for entry in CONTRACT["end_to_end"]}
    assert first["metrics"].keys() == declared.keys()
    for name, unit in declared.items():
        assert first["metrics"][name]["unit"] == unit
        assert first["metrics"][name]["value"] > 0, name
        assert first["metrics"][name]["n"] >= 1, name
    for name in EXACT_END_TO_END:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["attempted"] == second["attempted"]
    assert first["sizes"] == second["sizes"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_attributes_every_layer(workload, tmp_path):
    record = run(workload, 1, tmp_path)
    declared = {entry["name"] for entry in CONTRACT["per_layer"]}
    values = {name: entry["value"] for name, entry in record["metrics"].items()}
    assert values.keys() == declared
    assert values["shape.attribution_error"] <= 0.02
    assert values["shape.unattributed_share"] <= 0.25
    assert values["registry.parameter_bytes_read_per_diff"] == 0
    for name, value in values.items():
        if name.startswith(ABSENT[workload]):
            assert value == 0, f"{name} should see no call on {workload}"
    present = {
        "paper_cycle": ("core.update.save_self_s", "storage.journal.self_s"),
        "dedup_replicated": (
            "storage.replication.write_self_s", "storage.chunk_index.ingest_self_s",
            "maintenance.pass_wall_s",
        ),
        "fleet_ingest": ("fleet.ingest.flush_self_s", "ingest_flush_us_per_update_p50"),
        "serving_mix": ("serving.hit_self_s", "serve_miss_us_per_model_p50"),
    }[workload]
    for name in present:
        assert values[name] > 0, name

    trace = json.loads((HERE / "results" / f"trace-{workload}.json").read_text())
    assert trace["workload"] == workload and not trace["truncated"]
    spans = trace["spans"]
    assert len(spans) == trace["spans_total"] > 0
    for index, (name, start, end, parent, op) in enumerate(spans):
        assert 0 <= name < len(trace["names"])
        assert start <= end
        assert -1 <= parent < index
        assert 0 <= op < len(trace["ops"])
        if parent >= 0:
            outer = spans[parent]
            assert outer[4] == op and outer[1] <= start and end <= outer[2]
    layers_seen = {trace["names"][span[0]].split(":")[0] for span in spans}
    for prefix in ABSENT[workload]:
        assert not any(layer.startswith(prefix.rstrip(".")) for layer in layers_seen)


def test_compare_flags_a_regression(tmp_path):
    from benchmarks.wallclock import compare

    def ledger(save_us: float, failed: int = 0) -> dict:
        metrics = {
            entry["name"]: {"runs": [1.0, 1.0, 1.0]} for entry in CONTRACT["end_to_end"]
        }
        metrics["save_us_per_model_p50"] = {"runs": [save_us, save_us * 1.01, save_us]}
        return {
            "workloads": {
                "paper_cycle": {"end_to_end": metrics, "attempted": 10, "failed": failed}
            }
        }

    rows, failed = compare.compare(ledger(50.0), ledger(50.5), CONTRACT)
    assert not failed and {row["verdict"] for row in rows} == {"unchanged"}
    rows, failed = compare.compare(ledger(50.0), ledger(80.0), CONTRACT)
    assert failed
    assert [r["verdict"] for r in rows if r["metric"] == "save_us_per_model_p50"] == [
        "regressed"
    ]
    rows, failed = compare.compare(ledger(50.0), ledger(30.0), CONTRACT)
    assert not failed
    rows, failed = compare.compare(ledger(50.0), ledger(50.0, failed=1), CONTRACT)
    assert failed
