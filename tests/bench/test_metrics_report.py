"""Tests for measurement primitives and report formatting."""

import gc

import pytest

from repro.bench.metrics import Measurement, _measure, measure_recover, measure_save, median
from repro.bench.report import format_series, format_table
from repro.config import ArchiveConfig
from repro.core.manager import MultiModelManager
from repro.core.model_set import ModelSet
from repro.storage.hardware import M1_PROFILE
from repro.storage.stats import StorageStats


@pytest.fixture
def models():
    return ModelSet.build("FFNN-48", num_models=5, seed=0)


class TestMeasureSave:
    def test_bytes_written_matches_store_delta(self, models):
        # registry=False: catalog records are management-plane writes
        # (uncharged, like the journal), so charged bytes only equal the
        # stored total on an archive without a registry.
        manager = MultiModelManager.with_approach(
            "baseline", ArchiveConfig(registry=False)
        )
        _set_id, measurement = measure_save(manager, models)
        assert measurement.bytes_written == manager.total_stored_bytes()
        assert measurement.writes == 2  # one doc + one artifact

    def test_simulated_time_charged_under_latency_profile(self, models):
        manager = MultiModelManager.with_approach("baseline", ArchiveConfig(profile=M1_PROFILE))
        _set_id, measurement = measure_save(manager, models)
        assert measurement.simulated_s > 0
        assert measurement.total_s == measurement.real_s + measurement.simulated_s

    def test_delta_isolated_between_saves(self, models):
        manager = MultiModelManager.with_approach("baseline")
        _first, first_measure = measure_save(manager, models)
        _second, second_measure = measure_save(manager, models)
        assert second_measure.bytes_written == first_measure.bytes_written

    def test_categories_merged_across_stores(self, models):
        manager = MultiModelManager.with_approach("update")
        _set_id, measurement = measure_save(manager, models)
        categories = measurement.bytes_by_category()
        assert "parameters" in categories
        assert "hash-info" in categories


class TestMeasureRecover:
    def test_returns_recovered_set(self, models):
        manager = MultiModelManager.with_approach("baseline")
        set_id, _save = measure_save(manager, models)
        recovered, measurement = measure_recover(manager, set_id)
        assert recovered.equals(models)
        assert measurement.reads >= 2


class TestOneClock:
    def test_the_collector_is_paused_only_while_the_clock_runs(self):
        manager = MultiModelManager.with_approach("baseline")
        collecting = []

        def operation():
            collecting.append(gc.isenabled())
            return "done"

        def failing():
            collecting.append(gc.isenabled())
            raise RuntimeError("boom")

        assert gc.isenabled()
        assert _measure(manager, operation)[0] == "done"
        assert gc.isenabled()
        with pytest.raises(RuntimeError, match="boom"):
            _measure(manager, failing)
        assert gc.isenabled()
        # A caller that paused the collector itself keeps it paused.
        gc.disable()
        try:
            _measure(manager, operation)
            assert not gc.isenabled()
        finally:
            gc.enable()
        assert collecting == [False, False, False]


class TestMedian:
    def test_odd_and_even(self):
        assert median([3.0, 1.0, 2.0]) == 2.0
        assert median([1.0, 2.0, 3.0, 4.0]) == 2.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            median([])


class TestMeasurementAggregation:
    def test_reads_writes_summed_across_stores(self):
        file_stats = StorageStats(writes=2, reads=1, bytes_written=10)
        doc_stats = StorageStats(writes=3, reads=4, bytes_written=5)
        measurement = Measurement(
            real_s=0.1, simulated_s=0.2, file_stats=file_stats, doc_stats=doc_stats
        )
        assert measurement.writes == 5
        assert measurement.reads == 5
        assert measurement.bytes_written == 15


class TestReportFormatting:
    def test_table_contains_all_cells(self):
        text = format_table(
            "My Table", ["name", "value"], [["alpha", 1.5], ["beta", 2.0]]
        )
        assert "My Table" in text
        assert "alpha" in text and "1.500" in text
        assert "beta" in text and "2.000" in text

    def test_table_with_no_rows(self):
        text = format_table("Empty", ["a", "b"], [])
        assert "Empty" in text
        assert "a" in text

    def test_custom_value_format(self):
        text = format_table("T", ["v"], [[0.123456]], value_format="{:.1f}")
        assert "0.1" in text
        assert "0.12" not in text

    def test_series_layout_matches_figures(self):
        text = format_series(
            "Figure X",
            ["U1", "U3-1"],
            {"baseline": [1.0, 1.0], "update": [1.2, 0.3]},
            unit="MB",
        )
        assert "[MB]" in text
        assert "U3-1" in text
        lines = text.splitlines()
        baseline_line = next(line for line in lines if line.startswith("baseline"))
        assert "1.000" in baseline_line
