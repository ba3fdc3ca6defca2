"""Unit tests for the serving cache data structures (tiers 1 and 2).

Both tiers key chunks by digest id; the ids here are small integers
standing for any interned digest."""

import numpy as np
import pytest

from repro.nn.serialization import StateSchema
from repro.serving.cache import ChunkCache, ServingStats, SetCache, SetEntry
from repro.storage.hashing import lookup

D1, D2, D3, D9 = 1, 2, 3, 9


def ids(*values: int) -> np.ndarray:
    return np.array(values, dtype=np.int64)


def entry(nbytes: int, digests=None) -> SetEntry:
    rows = np.zeros((1, nbytes), dtype=np.uint8)
    rows.flags.writeable = False  # answers share an entry's rows
    return SetEntry(rows, "", StateSchema(()), digests=digests)


class TestSetCache:
    def test_a_writable_entry_is_refused(self):
        cache = SetCache(budget_bytes=100)
        writable = SetEntry(np.zeros((1, 40), dtype=np.uint8), "", StateSchema(()))
        with pytest.raises(ValueError, match="read-only"):
            cache.put(("a", None), writable)
        assert len(cache) == 0 and cache.current_bytes == 0

    def test_lru_eviction_respects_byte_budget(self):
        cache = SetCache(budget_bytes=100)
        cache.put(("a", None), entry(40))
        cache.put(("b", None), entry(40))
        cache.put(("c", None), entry(40))  # evicts "a" (oldest)
        assert cache.get(("a", None)) is None
        assert cache.get(("b", None)) is not None
        assert cache.get(("c", None)) is not None
        assert cache.current_bytes == 80
        assert cache.evictions == 1

    def test_get_refreshes_recency(self):
        cache = SetCache(budget_bytes=100)
        cache.put(("a", None), entry(40))
        cache.put(("b", None), entry(40))
        cache.get(("a", None))  # "a" is now the most recent
        cache.put(("c", None), entry(40))  # evicts "b", not "a"
        assert cache.get(("a", None)) is not None
        assert cache.get(("b", None)) is None

    def test_oversized_entry_is_not_cached(self):
        cache = SetCache(budget_bytes=10)
        cache.put(("a", None), entry(40))
        assert cache.get(("a", None)) is None
        assert cache.current_bytes == 0

    def test_zero_budget_disables_tier(self):
        cache = SetCache(budget_bytes=0)
        cache.put(("a", None), entry(1))
        assert len(cache) == 0

    def test_invalidate_set_drops_full_set_and_model_entries(self):
        cache = SetCache(budget_bytes=1000)
        cache.put(("a", None), entry(10))
        cache.put(("a", 0), entry(10))
        cache.put(("b", None), entry(10))
        assert cache.invalidate_set("a") == 2
        assert cache.get(("b", None)) is not None
        assert cache.current_bytes == 10

    def test_invalidate_digests_drops_intersecting_entries_only(self):
        cache = SetCache(budget_bytes=1000)
        cache.put(("a", None), entry(10, digests=ids(D1, D2)))
        cache.put(("b", None), entry(10, digests=ids(D3)))
        cache.put(("c", None), entry(10, digests=None))  # unknown lineage
        assert cache.invalidate_digests(ids(D2)) == 1
        assert cache.get(("a", None)) is None
        assert cache.get(("b", None)) is not None
        assert cache.get(("c", None)) is not None


class TestChunkCache:
    def test_get_many_partitions_found_and_missing(self):
        cache = ChunkCache(budget_bytes=1000)
        cache.put_many({D1: b"one", D2: b"two"})
        asked = ids(D1, D3)
        held, data, nbytes = cache.get_many(asked)
        assert dict(zip(asked[held].tolist(), data.tolist())) == {D1: b"one"}
        assert nbytes.tolist() == [3]
        assert asked[~held].tolist() == [D3]

    def test_byte_budget_evicts_lru(self):
        cache = ChunkCache(budget_bytes=10)
        cache.put_many({D1: b"aaaaa"})
        cache.put_many({D2: b"bbbbb"})
        cache.put_many({D3: b"ccccc"})
        assert D1 not in cache
        assert D3 in cache
        assert cache.current_bytes <= 10

    def test_zero_reference_chunks_evicted_first(self):
        cache = ChunkCache(budget_bytes=10)
        refs = {D1: 1, D2: 0}
        cache.add_ref_source(lambda idents: np.array([refs.get(i, 0) for i in idents.tolist()]))
        cache.put_many({D1: b"aaaaa", D2: b"bbbbb"})
        cache.put_many({D3: b"ccccc"})  # over budget: D2 (0 refs) goes
        assert D2 not in cache
        assert D1 in cache

    def test_ids_a_store_never_held_count_as_unreferenced(self):
        # A chunk store's refs column reads 0 past its end (``lookup``).
        column = np.array([0, 1, 1, 0], dtype=np.int64)
        cache = ChunkCache(budget_bytes=10)
        cache.add_ref_source(lambda idents: lookup(column, idents))
        cache.put_many({D1: b"aaaaa", D9: b"99999"})
        cache.put_many({D2: b"bbbbb"})  # over budget: D9 (never held) goes
        assert D9 not in cache
        assert D1 in cache and D2 in cache

    def test_drop_counts_invalidations(self):
        cache = ChunkCache(budget_bytes=1000)
        cache.put_many({D1: b"x", D2: b"y"})
        assert cache.drop(ids(D1, D9)) == 1
        assert cache.invalidations == 1
        assert D1 not in cache

    def test_put_many_coerces_to_bytes(self):
        cache = ChunkCache(budget_bytes=1000)
        cache.put_many({D1: memoryview(np.frombuffer(b"abcd", dtype=np.uint8))})
        _held, data, _nbytes = cache.get_many(ids(D1))
        assert isinstance(data[0], bytes)


class TestServingStats:
    def test_record_and_counters(self):
        stats = ServingStats()
        stats.record(requests=1, set_hits=1, logical_bytes_served=100)
        stats.record(requests=1, set_misses=1)
        counters = stats.counters()
        assert counters["requests"] == 2
        assert counters["set_hits"] == 1
        assert counters["set_misses"] == 1
        assert counters["logical_bytes_served"] == 100
