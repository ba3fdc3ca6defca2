"""Process-wide metrics registry (counters, gauges, histograms).

The registry is the aggregation point for everything the archive already
counts: :class:`~repro.storage.stats.StorageStats` objects are plugged in
as *providers* (their fields are re-exported under a store prefix on
every :meth:`MetricsRegistry.collect` without touching the hot recording
paths), while long-lived subsystems (journal, scrubber, trace recorder)
increment first-class counters/histograms directly.

Collection is pull-based: nothing is computed until an exporter asks, so
registering a provider adds zero overhead to save/recover loops.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_right
from dataclasses import fields as dataclass_fields
from typing import Callable, Iterable

#: Default histogram bucket upper bounds (seconds-oriented).
DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0)


class Counter:
    """Monotonically increasing value."""

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """Point-in-time value that can move both ways."""

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed-bucket histogram with cumulative bucket counts."""

    def __init__(
        self,
        name: str,
        description: str = "",
        buckets: "Iterable[float]" = DEFAULT_BUCKETS,
    ) -> None:
        self.name = name
        self.description = description
        self.buckets = tuple(sorted(buckets))
        self._counts = [0] * (len(self.buckets) + 1)  # last = +Inf
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self._counts[bisect_right(self.buckets, value)] += 1
            self._sum += value
            self._count += 1

    def snapshot(self) -> dict:
        """Cumulative per-bucket counts plus sum/count."""
        with self._lock:
            counts = list(self._counts)
            total_sum, total_count = self._sum, self._count
        cumulative: list[tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.buckets, counts):
            running += count
            cumulative.append((bound, running))
        return {
            "buckets": cumulative,
            "sum": total_sum,
            "count": total_count,
        }


class TimedLock:
    """A lock wrapper that measures how long acquisition blocked.

    Wraps an existing lock (or creates an ``RLock``) and accumulates the
    wall seconds every ``acquire`` spent waiting into :attr:`wait_s`, an
    optional :class:`Counter` (e.g. ``fleet_shard_0_lock_wait_s_total``),
    and an optional :class:`Histogram` of per-acquire waits.  This is how
    the fleet engine turns "no cross-shard lock contention" from an
    assertion into a measurement: each shard's mutex is wrapped once and
    the exported wait counters stay near zero while shards are hammered
    concurrently.

    Sharing the *underlying* lock with other callers is supported (the
    fleet wraps each shard context's reentrant ``mutex``), so timing the
    fleet's acquisition composes with the manager's own locking.
    """

    def __init__(
        self,
        lock=None,
        counter: "Counter | None" = None,
        histogram: "Histogram | None" = None,
    ) -> None:
        self._lock = lock if lock is not None else threading.RLock()
        self.counter = counter
        self.histogram = histogram
        self.wait_s = 0.0
        self.acquisitions = 0
        self._meta = threading.Lock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        start = time.perf_counter()
        acquired = self._lock.acquire(blocking, timeout)
        waited = time.perf_counter() - start
        with self._meta:
            self.wait_s += waited
            self.acquisitions += 1
        if self.counter is not None:
            self.counter.inc(waited)
        if self.histogram is not None:
            self.histogram.observe(waited)
        return acquired

    def release(self) -> None:
        self._lock.release()

    def __enter__(self) -> "TimedLock":
        self.acquire()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()


#: StorageStats fields re-exported by :meth:`MetricsRegistry.register_stats`
#: (everything numeric; ``bytes_by_category`` is expanded per category).
_STATS_SKIP = {"bytes_by_category"}


class MetricsRegistry:
    """Named counters/gauges/histograms plus pull-time providers."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._providers: dict[str, Callable[[], dict]] = {}

    # -- instrument registration -----------------------------------------
    def counter(self, name: str, description: str = "") -> Counter:
        with self._lock:
            if name not in self._counters:
                self._counters[name] = Counter(name, description)
            return self._counters[name]

    def gauge(self, name: str, description: str = "") -> Gauge:
        with self._lock:
            if name not in self._gauges:
                self._gauges[name] = Gauge(name, description)
            return self._gauges[name]

    def histogram(
        self,
        name: str,
        description: str = "",
        buckets: "Iterable[float]" = DEFAULT_BUCKETS,
    ) -> Histogram:
        with self._lock:
            if name not in self._histograms:
                self._histograms[name] = Histogram(name, description, buckets)
            return self._histograms[name]

    # -- providers ---------------------------------------------------------
    def register_provider(self, name: str, provider: Callable[[], dict]) -> None:
        """Attach a pull-time source of ``{metric_name: value}`` pairs."""
        with self._lock:
            self._providers[name] = provider

    def unregister_provider(self, name: str) -> None:
        with self._lock:
            self._providers.pop(name, None)

    def register_stats(self, prefix: str, stats) -> None:
        """Re-export a live :class:`StorageStats` under ``prefix``.

        Every numeric field becomes ``{prefix}_{field}`` and each
        ``bytes_by_category`` entry ``{prefix}_category_bytes.{category}``
        — computed from a locked snapshot at collect time, so the store's
        recording paths are untouched.
        """

        def provider() -> dict:
            snap = stats.snapshot()
            values: dict[str, float] = {}
            for spec in dataclass_fields(snap):
                if not spec.init or spec.name in _STATS_SKIP:
                    continue
                value = getattr(snap, spec.name)
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    values[f"{prefix}_{spec.name}"] = value
            for category, num_bytes in sorted(snap.bytes_by_category.items()):
                values[f"{prefix}_category_bytes.{category}"] = num_bytes
            return values

        self.register_provider(f"stats:{prefix}", provider)

    # -- collection --------------------------------------------------------
    def collect(self) -> dict:
        """Flat ``{name: value}`` of counters, gauges, and providers."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            providers = dict(self._providers)
        values: dict[str, float] = {}
        for name, counter in sorted(counters.items()):
            values[name] = counter.value
        for name, gauge in sorted(gauges.items()):
            values[name] = gauge.value
        for _, provider in sorted(providers.items()):
            values.update(provider())
        return values

    def histograms(self) -> dict[str, dict]:
        with self._lock:
            items = dict(self._histograms)
        return {name: histogram.snapshot() for name, histogram in sorted(items.items())}

    def reset(self) -> None:
        """Drop every instrument and provider (test isolation)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._providers.clear()


_GLOBAL = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    """The process-wide registry (one per interpreter)."""
    return _GLOBAL
