"""Exporter and schema-validator contracts (trace JSON, Prometheus, tree)."""

import json
from pathlib import Path

import pytest

from repro.config import ArchiveConfig, ObservabilityConfig
from repro.core.manager import MultiModelManager
from repro.core.model_set import ModelSet
from repro.observability import (
    TRACE_SCHEMA,
    MetricsRegistry,
    metrics_json,
    phase_breakdown,
    prometheus_text,
    render_tree,
    trace_document,
    validate_trace_document,
    write_trace_json,
)
from repro.observability.export import OTHER_PHASE
from repro.observability.trace import Span
from repro.storage.hardware import ARCHIVE_PROFILE
from repro.storage.stats import StorageStats

SCHEMA_PATH = (
    Path(__file__).resolve().parent.parent.parent
    / "benchmarks"
    / "trace_schema.json"
)


def build_trace() -> Span:
    """Hand-built trace exercising inheritance, keys, and events."""
    root = Span("save_set")
    root._ordinal = 0
    root.add_charge("doc-write", 64, 0.25)  # above any kind -> "other"
    hashing = Span("hash", kind="hash")
    root._attach(hashing)
    for index in (1, 0):  # attached out of order on purpose
        leaf = Span("model", key=index)  # kindless -> inherits "hash"
        leaf.add_charge("file-read", 128, 0.5)
        hashing._attach(leaf)
    put = Span("store-put", kind="store-write")
    put.add_charge("file-write", 256, 1.0)
    put.add_event("replica-acks", missed=["replica-2"])
    root._attach(put)
    return root


class TestPhaseBreakdown:
    def test_kind_inheritance_and_other_bucket(self):
        phases = phase_breakdown(build_trace())
        assert phases == {
            OTHER_PHASE: 0.25,
            "hash": 1.0,
            "store-write": 1.0,
        }

    def test_sums_to_subtree_total(self):
        root = build_trace()
        assert sum(phase_breakdown(root).values()) == pytest.approx(
            root.total_simulated_s()
        )


class TestTraceDocument:
    def test_validates_against_builtin_schema(self):
        document = trace_document([build_trace()], meta={"benchmark": "x"})
        assert validate_trace_document(document) == []

    def test_checked_in_schema_matches_library(self):
        # benchmarks/trace_schema.json is the pinned copy external
        # consumers (and the CI trace job) validate against — it must
        # stay in lockstep with the library's schema.
        assert json.loads(SCHEMA_PATH.read_text()) == TRACE_SCHEMA

    def test_traced_run_exports_against_checked_in_schema(self, tmp_path):
        manager = MultiModelManager.with_approach(
            "update",
            ArchiveConfig(
                profile=ARCHIVE_PROFILE,
                dedup=True,
                observability=ObservabilityConfig(tracing=True),
            ),
        )
        models = ModelSet.build("FFNN-48", num_models=4, seed=0)
        base_id = manager.save_set(models)
        derived = models.copy()
        derived.state(2)["0.bias"] = derived.state(2)["0.bias"] + 1.0
        manager.recover_set(manager.save_set(derived, base_set_id=base_id))
        path = write_trace_json(tmp_path / "trace.json", manager.context.tracer.roots)
        document = json.loads(path.read_text())
        schema = json.loads(SCHEMA_PATH.read_text())
        assert validate_trace_document(document, schema) == []
        assert len(document["traces"]) == 3
        for trace in document["traces"]:
            assert trace["total_simulated_s"] > 0
            assert abs(sum(trace["phases"].values()) - trace["total_simulated_s"]) <= 1e-9

    def test_keyed_siblings_export_in_key_order(self):
        document = trace_document([build_trace()])
        hash_node = document["traces"][0]["root"]["children"][0]
        assert [child["key"] for child in hash_node["children"]] == [0, 1]

    def test_write_and_reload(self, tmp_path):
        path = write_trace_json(tmp_path / "t" / "trace.json", [build_trace()])
        document = json.loads(path.read_text())
        assert validate_trace_document(document) == []
        assert document["traces"][0]["total_simulated_s"] == pytest.approx(2.25)

    def test_validator_rejects_malformed_documents(self):
        good = trace_document([build_trace()])
        assert validate_trace_document({"version": 1}) != []  # no traces
        wrong_version = json.loads(json.dumps(good))
        wrong_version["version"] = 2
        assert validate_trace_document(wrong_version) != []
        extra = json.loads(json.dumps(good))
        extra["traces"][0]["root"]["surprise"] = True
        assert any(
            "surprise" in error for error in validate_trace_document(extra)
        )
        negative = json.loads(json.dumps(good))
        negative["traces"][0]["root"]["simulated_s"] = -1.0
        assert validate_trace_document(negative) != []


class TestRenderTree:
    def test_shows_identities_phases_and_events(self):
        text = render_tree(build_trace())
        assert "save_set" in text
        assert "model[0]" in text and "model[1]" in text
        assert "phase=store-write" in text
        assert "replica-acks" in text and "replica-2" in text

    def test_wall_times_can_be_suppressed(self):
        assert "wall=" not in render_tree(build_trace(), include_wall=False)


class TestMetricsExport:
    def make_registry(self):
        registry = MetricsRegistry()
        registry.counter("journal_txns_total", "txns").inc(3)
        registry.gauge("replicas_healthy").set(2)
        registry.histogram("save_seconds", buckets=[0.1, 1.0]).observe(0.05)
        stats = StorageStats()
        stats.record_write(100, 0.5, "parameters")
        registry.register_stats("file_store", stats)
        return registry, stats

    def test_prometheus_text_format(self):
        registry, _ = self.make_registry()
        text = prometheus_text(registry)
        assert "repro_journal_txns_total 3.0" in text
        assert "repro_replicas_healthy 2.0" in text
        assert "repro_file_store_bytes_written 100" in text
        assert (
            'repro_file_store_category_bytes{category="parameters"} 100'
            in text
        )
        assert 'repro_save_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_save_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_save_seconds_count 1" in text

    def test_provider_reflects_live_stats(self):
        registry, stats = self.make_registry()
        before = registry.collect()["file_store_bytes_written"]
        stats.record_write(50, 0.1, "parameters")
        after = registry.collect()["file_store_bytes_written"]
        assert (before, after) == (100, 150)

    def test_metrics_json_roundtrips(self):
        registry, _ = self.make_registry()
        document = json.loads(json.dumps(metrics_json(registry)))
        assert document["values"]["journal_txns_total"] == 3.0
        assert document["histograms"]["save_seconds"]["count"] == 1

    def test_counters_only_go_up(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("c").inc(-1)
