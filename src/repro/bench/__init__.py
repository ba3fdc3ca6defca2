"""Benchmark harness regenerating every table and figure of the paper.

* :mod:`~repro.bench.metrics` — TTS/TTR measurement combining real
  compute time with the latency model's simulated store time, and exact
  storage-consumption deltas.
* :mod:`~repro.bench.runner` — experiment driver with one entry point per
  paper artifact (Figure 3/4/5 and the §4.2 variations) plus the
  ablations listed in DESIGN.md §4; also the ``repro-bench`` CLI.
* :mod:`~repro.bench.report` — fixed-width table/series rendering in the
  shape the paper reports.
"""

from repro.bench.metrics import Measurement, measure_recover, measure_save
from repro.bench.report import format_series, format_table

__all__ = [
    "Measurement",
    "format_series",
    "format_table",
    "measure_recover",
    "measure_save",
    "run_experiment",
]


def __getattr__(name: str):
    # ``runner`` loads on first use, so ``python -m repro.bench.runner``
    # does not find it already imported by its own package.
    if name == "run_experiment":
        from repro.bench.runner import run_experiment

        return run_experiment
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
