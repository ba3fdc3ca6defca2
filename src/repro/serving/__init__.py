"""Tiered serving read path: materialized-set + decoded-chunk caches
(the latter keyed by digest id) with chunk-granular differential
recovery (see :mod:`.reader`)."""

from repro.serving.cache import ChunkCache, ServingStats, SetCache, SetEntry
from repro.serving.reader import ServingCache, apply_serving

__all__ = [
    "ChunkCache",
    "ServingCache",
    "ServingStats",
    "SetCache",
    "SetEntry",
    "apply_serving",
]
