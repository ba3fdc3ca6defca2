"""Shared fixtures for the benchmark harness.

Each ``bench_*.py`` file regenerates one paper artifact (see DESIGN.md §4
for the experiment index).  Benchmarks run at a reduced default scale —
storage numbers are exact at any scale and the timing *trends* are
scale-free; set ``REPRO_BENCH_MODELS`` to raise the model count (e.g.
5000 for the paper's full scale).
"""

from __future__ import annotations

import os

import pytest

from repro.bench.runner import ExperimentSettings
from repro.workloads.scenario import MultiModelScenario, UseCase

#: Default benchmark scale (models per set).
BENCH_NUM_MODELS = int(os.environ.get("REPRO_BENCH_MODELS", "100"))


@pytest.fixture(scope="session")
def settings() -> ExperimentSettings:
    return ExperimentSettings(num_models=BENCH_NUM_MODELS, cycles=3, runs=1)


@pytest.fixture(scope="session")
def cases(settings) -> list[UseCase]:
    """The paper's default scenario: U1 + three U3 iterations."""
    return list(MultiModelScenario(settings.scenario_config()).use_cases())


def record_series(benchmark, series: dict[str, list[float]], unit: str) -> None:
    """Attach a figure-style data series to the benchmark's extra info."""
    benchmark.extra_info["series"] = {
        name: [round(v, 6) for v in values] for name, values in series.items()
    }
    benchmark.extra_info["unit"] = unit
