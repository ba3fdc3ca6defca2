"""Byte-budgeted LRU tiers backing the serving read path.

Two cache tiers live here (tier 3 is the store itself):

* :class:`SetCache` — tier 1, fully materialized model sets (and single
  recovered models) under one byte budget, each held as one read-only
  ``(models, parameters)`` matrix whose views every answer hands out.
  Entries remember the digest ids they were assembled from so
  quarantine/GC invalidation can drop exactly the sets a doomed chunk
  contributed to.
* :class:`ChunkCache` — tier 2, decoded chunk bytes keyed by the digest
  id (:data:`~repro.storage.hashing.DIGESTS`) of their SHA-256, held in
  columns by id.  Content-addressed, so near-duplicate versions share
  entries across sets — and, because one instance can back every shard
  of a fleet and ids are process-wide, across shards.  Eviction is
  refcount-aware: chunks no live set references anymore (refcount 0 in
  every attached chunk store) are evicted before any still-referenced
  chunk.

Neither tier touches :class:`~repro.storage.stats.StorageStats`: cache
hits charge zero simulated store time by construction.  The serving
layer's own counters live in :class:`ServingStats`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from repro.nn.serialization import StateSchema
from repro.storage.hashing import fit, lookup


@dataclass
class ServingStats:
    """Counters of one serving cache (thread-safe increments).

    These are *logical service* counters, deliberately separate from the
    store-level :class:`~repro.storage.stats.StorageStats`: a tier-1 or
    tier-2 hit charges no simulated store time, but the bytes it served
    and the store bytes it avoided fetching are counted here.
    """

    #: recover_set / recover_model requests routed through the cache.
    requests: int = 0
    #: Tier-1 lookups answered from a materialized entry.
    set_hits: int = 0
    #: Tier-1 lookups that fell through to assembly.
    set_misses: int = 0
    #: Tier-2 chunk lookups answered from cache during assembly.
    chunk_hits: int = 0
    #: Tier-2 chunk lookups that required a store fetch.
    chunk_misses: int = 0
    #: Parameter bytes returned to callers (hits and misses alike).
    logical_bytes_served: int = 0
    #: Store bytes the cache did not have to fetch (tier-1 + tier-2 reuse).
    bytes_saved: int = 0
    #: Entries dropped because delete/GC/scrub invalidated them.
    invalidations: int = 0
    #: Tier-1 hits served while the owning shard was DOWN
    #: (stale-but-committed reads routed around the outage).
    stale_hits: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def record(self, **amounts: int) -> None:
        with self._lock:
            for name, amount in amounts.items():
                setattr(self, name, getattr(self, name) + int(amount))

    def counters(self) -> dict:
        """Point-in-time snapshot as a plain ``{name: value}`` dict."""
        with self._lock:
            return {
                "requests": self.requests,
                "set_hits": self.set_hits,
                "set_misses": self.set_misses,
                "chunk_hits": self.chunk_hits,
                "chunk_misses": self.chunk_misses,
                "logical_bytes_served": self.logical_bytes_served,
                "bytes_saved": self.bytes_saved,
                "invalidations": self.invalidations,
                "stale_hits": self.stale_hits,
            }


@dataclass
class SetEntry:
    """One tier-1 entry: a read-only matrix of rows plus provenance."""

    #: ``(models, parameters)`` float32 rows; one row for a single model.
    #: Read-only: the miss that built it and every hit hand out views of
    #: it, never a copy.
    rows: np.ndarray
    architecture: str
    schema: StateSchema
    #: Digest ids the rows were assembled from (``None`` when the entry
    #: came from an opaque full-recovery fallback).
    digests: "np.ndarray | None" = None

    @property
    def nbytes(self) -> int:
        return self.rows.nbytes


class SetCache:
    """Tier 1: LRU of materialized sets/models under a byte budget.

    Keys are ``(set_id, None)`` for full sets and ``(set_id, index)``
    for single recovered models.  An entry's matrix is read-only (``put``
    refuses a writable one), so callers share it as views: a consumer's
    write into a recovered set raises instead of poisoning later reads,
    and ``copy()`` is its writable copy.
    """

    def __init__(self, budget_bytes: int) -> None:
        self.budget_bytes = int(budget_bytes)
        self._entries: "OrderedDict[tuple, SetEntry]" = OrderedDict()
        self._lock = threading.Lock()
        self.current_bytes = 0
        self.evictions = 0

    def get(self, key: tuple) -> "SetEntry | None":
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def put(self, key: tuple, entry: SetEntry) -> None:
        if entry.rows.flags.writeable:
            raise ValueError("a tier-1 entry's rows must be read-only: answers share them")
        if self.budget_bytes <= 0 or entry.nbytes > self.budget_bytes:
            return
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self.current_bytes -= old.nbytes
            self._entries[key] = entry
            self.current_bytes += entry.nbytes
            while self.current_bytes > self.budget_bytes:
                _, evicted = self._entries.popitem(last=False)
                self.current_bytes -= evicted.nbytes
                self.evictions += 1

    def invalidate_set(self, set_id: str) -> int:
        """Drop every entry (full set and single models) of ``set_id``."""
        with self._lock:
            doomed = [key for key in self._entries if key[0] == set_id]
            for key in doomed:
                self.current_bytes -= self._entries.pop(key).nbytes
            return len(doomed)

    def invalidate_digests(self, ids: np.ndarray) -> int:
        """Drop entries assembled from any of the given digest ids."""
        with self._lock:
            doomed = [
                key
                for key, entry in self._entries.items()
                if entry.digests is not None and np.isin(entry.digests, ids).any()
            ]
            for key in doomed:
                self.current_bytes -= self._entries.pop(key).nbytes
            return len(doomed)

    def clear(self) -> int:
        with self._lock:
            count = len(self._entries)
            self._entries.clear()
            self.current_bytes = 0
            return count

    def keys(self) -> list:
        with self._lock:
            return list(self._entries)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class ChunkHits(NamedTuple):
    """What :meth:`ChunkCache.get_many` found for an id column."""

    #: Which of the asked ids tier 2 holds.
    held: np.ndarray
    #: The held ids' bytes (an object array, in the order asked).
    data: np.ndarray
    #: The held ids' byte lengths.
    nbytes: np.ndarray


class ChunkCache:
    """Tier 2: decoded chunk bytes keyed by digest id.

    Three columns indexed by id: the bytes (an object array), their
    lengths, and a last-use tick (0: not held), which orders the LRU.
    One instance may back several serving caches (the fleet shares a
    single tier 2 across its shards — chunk content addressing makes
    entries shard-agnostic).  ``ref_sources`` map an id column to its
    live refcounts (one per attached chunk store: its ``references``);
    when the budget forces eviction, chunks with zero live
    references everywhere go first, in LRU order, before any
    still-referenced chunk is touched.
    """

    def __init__(self, budget_bytes: int) -> None:
        self.budget_bytes = int(budget_bytes)
        self._data = np.zeros(1, dtype=object)
        self._nbytes = np.zeros(1, dtype=np.int64)
        self._last_use = np.zeros(1, dtype=np.int64)
        self._clock = 0
        self._lock = threading.Lock()
        self.ref_sources: "list[Callable[[np.ndarray], np.ndarray]]" = []
        self.current_bytes = 0
        self.evictions = 0
        self.invalidations = 0

    def add_ref_source(self, source: "Callable[[np.ndarray], np.ndarray]") -> None:
        with self._lock:
            self.ref_sources.append(source)

    def _touch(self, ids: np.ndarray) -> None:
        """Mark ``ids`` used now, in order (the last is the most recent)."""
        self._last_use[ids] = np.arange(self._clock + 1, self._clock + 1 + len(ids))
        self._clock += len(ids)

    def get_many(self, ids: np.ndarray) -> ChunkHits:
        """Which of the (distinct) digest ``ids`` are held, with their
        bytes and lengths; the held ones become most recently used."""
        with self._lock:
            held = lookup(self._last_use, ids) > 0
            found = ids[held]
            self._touch(found)
            return ChunkHits(held, self._data[found], self._nbytes[found])

    def put_many(self, values: "dict[int, bytes]") -> None:
        """Hold ``digest id -> bytes`` (a chunk over the budget is skipped)."""
        if self.budget_bytes <= 0:
            return
        kept = [
            (ident, data)
            for ident, data in ((ident, bytes(chunk)) for ident, chunk in values.items())
            if len(data) <= self.budget_bytes
        ]
        if not kept:
            return
        ids, data = zip(*kept)
        index = np.array(ids, dtype=np.int64)
        blobs = np.empty(len(data), dtype=object)
        blobs[:] = data
        lengths = list(map(len, data))
        with self._lock:
            size = max(ids) + 1
            self._data = fit(self._data, size)
            self._nbytes = fit(self._nbytes, size)
            self._last_use = fit(self._last_use, size)
            # An id not held has length 0, so this subtracts replaced bytes only.
            self.current_bytes += sum(lengths) - int(self._nbytes[index].sum())
            self._data[index] = blobs
            self._nbytes[index] = lengths
            self._touch(index)
            self._evict_over_budget()

    def _lru_order(self) -> np.ndarray:
        held = np.flatnonzero(self._last_use)
        return held[np.argsort(self._last_use[held])]

    def _remove(self, ids: np.ndarray) -> None:
        self.current_bytes -= int(self._nbytes[ids].sum())
        self._data[ids] = None
        self._nbytes[ids] = 0
        self._last_use[ids] = 0

    def _evict_over_budget(self) -> None:
        if self.current_bytes <= self.budget_bytes:
            return
        lru = self._lru_order()
        order = lru.tolist()
        # Refcount-aware pass: unreferenced chunks go first, LRU order.
        if self.ref_sources:
            references = sum(source(lru) for source in self.ref_sources)
            for ident, count in zip(order, references.tolist()):
                if self.current_bytes <= self.budget_bytes:
                    return
                if count == 0:
                    self._remove(np.array([ident]))
                    self.evictions += 1
            order = [ident for ident in order if self._last_use[ident]]
        for ident in order:
            if self.current_bytes <= self.budget_bytes:
                return
            self._remove(np.array([ident]))
            self.evictions += 1

    def drop(self, ids: np.ndarray) -> int:
        """Invalidate the given digest ids (quarantined or collected chunks)."""
        with self._lock:
            doomed = np.unique(ids[lookup(self._last_use, ids) > 0])
            self._remove(doomed)
            self.invalidations += len(doomed)
            return len(doomed)

    def clear(self) -> int:
        with self._lock:
            count = len(self)
            self._remove(np.flatnonzero(self._last_use))
            return count

    def __contains__(self, ident: int) -> bool:
        return bool(lookup(self._last_use, np.array([ident]))[0])

    def keys(self) -> np.ndarray:
        """The held digest ids, least recently used first."""
        with self._lock:
            return self._lru_order()

    def __len__(self) -> int:
        return int(np.count_nonzero(self._last_use))
