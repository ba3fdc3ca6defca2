"""Measurement primitives for storage consumption, TTS, and TTR.

Time measurements combine two components (DESIGN.md §5):

* **real** seconds — wall-clock compute time of the save/recover call
  (serialization, hashing, delta application, retraining), and
* **simulated** seconds — the store-operation time charged by the active
  :class:`~repro.storage.hardware.HardwareProfile` (round trips and
  bandwidth), accumulated by the stores' :class:`StorageStats`.

Their sum is the reported TTS/TTR.  The split keeps the hardware
comparison (server vs. M1) deterministic and host-independent while the
compute part remains honest.

Storage consumption is the exact byte delta written to both stores by one
save — "it does not include the storage consumption of referenced
models" (§4.1) because referenced data is, by assumption, stored outside
the management system.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass

from repro.core.manager import MultiModelManager
from repro.core.model_set import ModelSet
from repro.core.save_info import SetMetadata, UpdateInfo
from repro.storage.stats import StorageStats


@dataclass(frozen=True)
class Measurement:
    """One timed operation: real + simulated seconds and store deltas."""

    real_s: float
    simulated_s: float
    file_stats: StorageStats
    doc_stats: StorageStats

    @property
    def total_s(self) -> float:
        """Reported time: compute plus simulated store time."""
        return self.real_s + self.simulated_s

    @property
    def bytes_written(self) -> int:
        return self.file_stats.bytes_written + self.doc_stats.bytes_written

    @property
    def bytes_read(self) -> int:
        return self.file_stats.bytes_read + self.doc_stats.bytes_read

    @property
    def writes(self) -> int:
        return self.file_stats.writes + self.doc_stats.writes

    @property
    def reads(self) -> int:
        return self.file_stats.reads + self.doc_stats.reads

    def bytes_by_category(self) -> dict[str, int]:
        merged: dict[str, int] = dict(self.file_stats.bytes_by_category)
        for key, value in self.doc_stats.bytes_by_category.items():
            merged[key] = merged.get(key, 0) + value
        return merged


def _measure(manager: MultiModelManager, operation) -> tuple[object, Measurement]:
    """Time ``operation()`` with the cyclic collector paused (as ``timeit``
    does: where a collection lands is an accident of the allocation
    count); its prior state is restored, also when the operation raises."""
    file_store = manager.context.file_store
    doc_store = manager.context.document_store
    file_before = file_store.stats.snapshot()
    doc_before = doc_store.stats.snapshot()
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        result = operation()
        real_s = time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()
    file_delta = file_store.stats.delta_since(file_before)
    doc_delta = doc_store.stats.delta_since(doc_before)
    simulated = (
        file_delta.simulated_write_s
        + file_delta.simulated_read_s
        + doc_delta.simulated_write_s
        + doc_delta.simulated_read_s
    )
    return result, Measurement(
        real_s=real_s,
        simulated_s=simulated,
        file_stats=file_delta,
        doc_stats=doc_delta,
    )


def measure_save(
    manager: MultiModelManager,
    model_set: ModelSet,
    base_set_id: str | None = None,
    update_info: UpdateInfo | None = None,
    metadata: SetMetadata | None = None,
) -> tuple[str, Measurement]:
    """Save a set and measure TTS plus the exact storage delta."""
    set_id, measurement = _measure(
        manager,
        lambda: manager.save_set(
            model_set,
            base_set_id=base_set_id,
            update_info=update_info,
            metadata=metadata,
        ),
    )
    return str(set_id), measurement


def measure_recover(
    manager: MultiModelManager, set_id: str
) -> tuple[ModelSet, Measurement]:
    """Recover a set and measure TTR."""
    model_set, measurement = _measure(manager, lambda: manager.recover_set(set_id))
    assert isinstance(model_set, ModelSet)
    return model_set, measurement


def median(values: list[float]) -> float:
    """Median of a non-empty list (the paper reports medians of 5 runs)."""
    if not values:
        raise ValueError("median of empty list")
    return statistics.median(values)
