"""The tiered serving read path (:class:`ServingCache`).

Layered in front of ``MultiModelManager.recover_set``/``recover_model``
(and per shard by the fleet engine), the serving cache answers reads
from three tiers:

* **tier 1** — byte-budgeted LRU of fully materialized model sets,
* **tier 2** — decoded chunks keyed by the interned id of their
  SHA-256 (:data:`~repro.storage.hashing.DIGESTS`), shared across sets
  (and, in a fleet, across shards),
* **tier 3** — the existing (possibly replicated, hedged) store.

The perf mechanism is *differential recovery*: the per-layer SHA-256
matrices the Update approach already persists (``hash_info``) key every
(model, layer) slot of a requested set, so a miss only fetches the
chunks tier 2 does not hold — recovering v8 when v7 is warm reads just
the layers that differ.  A miss runs the uncached read path's own
executor (:mod:`repro.core.recovery`: resolve → fetch → assemble) and
merely withholds from *fetch* the slots tier 2 already holds.  Its
bookkeeping is array work on the plan's digest id column: the unique
ids, a tier-2 presence mask, the chunk store's servable mask, a sum of
tier 2's length column.  So
recovered bytes are identical and a *cold* recovery charges exactly what
the uncached path charges, at every ``workers`` setting; hits charge
zero simulated store time.

Correctness before reuse: a digest is only served from tier 2 on the
chunked path when the owning chunk store still holds it un-quarantined
(quarantine/GC also push invalidations eagerly, including into tier-1
entries assembled from a doomed chunk), so a stale entry can never mask
a corruption error the uncached path would raise.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING

import numpy as np

from repro.core import recovery
from repro.core.model_set import ModelSet
from repro.errors import ReplicaUnavailableError
from repro.nn.serialization import ModelState, StateSchema, state_row
from repro.observability import trace as _trace
from repro.serving.cache import ChunkCache, ServingStats, SetCache, SetEntry

if TYPE_CHECKING:
    from repro.config import ServingConfig
    from repro.core.approach import SaveApproach, SaveContext


class ServingCache:
    """Tiered read-through cache over one archive context.

    Stateless approaches stay the source of truth: a miss either runs
    the approach's own recovery executor (same documents, same range
    reads, same decode) or delegates to the approach outright, so the
    recovered bytes are identical to an uncached oracle on every
    configuration.
    """

    def __init__(
        self,
        context: "SaveContext",
        config: "ServingConfig",
        chunk_cache: "ChunkCache | None" = None,
    ) -> None:
        self.context = context
        self.config = config
        self.stats = ServingStats()
        self.sets = SetCache(config.set_cache_bytes)
        self.chunks = (
            chunk_cache
            if chunk_cache is not None
            else ChunkCache(config.chunk_cache_bytes)
        )
        self._attached_stores: "set[int]" = set()
        self._attach_lock = threading.Lock()
        if context._chunk_store is not None:
            self.attach_chunk_store(context._chunk_store)

    # -- wiring ------------------------------------------------------------
    def attach_chunk_store(self, store) -> None:
        """Register invalidation + refcount hooks on a chunk store.

        Called by ``SaveContext.chunk_store()`` whenever a chunk index is
        (re)built, so quarantined and swept digests are pushed out of
        tier 2 (and out of any tier-1 entry assembled from them) the
        moment the store learns about them.
        """
        with self._attach_lock:
            if id(store) in self._attached_stores:
                return
            self._attached_stores.add(id(store))
        store.invalidation_listeners.append(self.invalidate_digests)
        self.chunks.add_ref_source(store.references)

    # -- invalidation ------------------------------------------------------
    def invalidate_set(self, set_id: str) -> int:
        """Drop every tier-1 entry of a deleted/compacted/collected set."""
        dropped = self.sets.invalidate_set(set_id)
        if dropped:
            self.stats.record(invalidations=dropped)
        return dropped

    def invalidate_digests(self, ids: np.ndarray) -> int:
        """Drop doomed digest ids from tier 2 and any tier-1 entry using them."""
        if not len(ids):
            return 0
        dropped = self.chunks.drop(ids)
        dropped += self.sets.invalidate_digests(ids)
        if dropped:
            self.stats.record(invalidations=dropped)
        return dropped

    def clear(self) -> None:
        """Drop both tiers (journal rollback / chunk-index rebuild)."""
        self.sets.clear()
        self.chunks.clear()

    # -- operator surface --------------------------------------------------
    def warm(self, set_ids, approach: "SaveApproach") -> dict:
        """Pre-materialize the given sets into tier 1; returns a summary."""
        warmed = []
        for set_id in set_ids:
            self.recover_set(set_id, approach)
            warmed.append(set_id)
        return {"warmed": warmed, **self.counters()}

    def evict(self, set_ids=None, chunks: bool = False) -> dict:
        """Drop tier-1 entries (all of them when ``set_ids`` is ``None``);
        with ``chunks=True`` tier 2 is emptied as well."""
        if set_ids is None:
            dropped_sets = self.sets.clear()
        else:
            dropped_sets = sum(self.sets.invalidate_set(s) for s in set_ids)
        dropped_chunks = self.chunks.clear() if chunks else 0
        return {"evicted_sets": dropped_sets, "evicted_chunks": dropped_chunks}

    def counters(self) -> dict:
        """Nested per-tier counter snapshot (CLI ``stats`` cache section)."""
        stats = self.stats.counters()
        set_lookups = stats["set_hits"] + stats["set_misses"]
        chunk_lookups = stats["chunk_hits"] + stats["chunk_misses"]
        return {
            **stats,
            "set_hit_rate": stats["set_hits"] / set_lookups if set_lookups else 0.0,
            "chunk_hit_rate": (
                stats["chunk_hits"] / chunk_lookups if chunk_lookups else 0.0
            ),
            "set_cache_entries": len(self.sets),
            "set_cache_bytes": self.sets.current_bytes,
            "set_cache_evictions": self.sets.evictions,
            "chunk_cache_entries": len(self.chunks),
            "chunk_cache_bytes": self.chunks.current_bytes,
            "chunk_cache_evictions": self.chunks.evictions,
        }

    def register_metrics(self, registry, prefix: str = "serving") -> None:
        """Export the counters through a :class:`MetricsRegistry`."""

        def provider() -> dict:
            return {
                f"{prefix}_{name}": value
                for name, value in self.counters().items()
            }

        registry.register_provider(f"serving:{prefix}", provider)

    # -- read path ---------------------------------------------------------
    def recover_set(self, set_id: str, approach: "SaveApproach") -> ModelSet:
        """Tiered ``recover_set``: byte-identical to ``approach.recover``."""
        return self._serve(set_id, None, approach)

    def recover_model(
        self, set_id: str, model_index: int, approach: "SaveApproach"
    ) -> "OrderedDict[str, np.ndarray]":
        """Tiered single-model recovery (slices a warm tier-1 set)."""
        return self._serve(set_id, model_index, approach)

    def _serve(self, set_id: str, model_index: "int | None", approach: "SaveApproach"):
        hit = self._tier1(set_id, model_index, "tier1-hit")
        if hit is not None:
            return hit
        self.stats.record(requests=1, set_misses=1)
        value, entry = self._recover_miss(set_id, model_index, approach)
        self.sets.put((set_id, model_index), entry)
        return value

    def serve_stale(self, set_id: str, model_index: "int | None" = None):
        """Tier-1-only lookup for routing reads around a DOWN shard.

        Never touches tier 2 or the store (the shard's breaker is open),
        so it can only return *committed* values a successful recovery
        materialized earlier — stale at worst, never torn.  Returns the
        copied set/state on a hit, ``None`` on a miss (the fleet then
        raises :class:`~repro.errors.ShardUnavailableError`).  Hits count
        as ``stale_hits`` on top of the normal hit counters.
        """
        hit = self._tier1(set_id, model_index, "tier1-stale-hit", stale_hits=1)
        if hit is None:
            self.stats.record(requests=1, set_misses=1)
        return hit

    def _tier1(self, set_id: str, model_index: "int | None", span: str, **counters):
        """A private copy of a tier-1 value, or ``None`` on a miss (a hit
        counts as a request; the caller counts a miss).

        A set is served from its full-set entry; one model from the
        full-set entry's row when it is cached, else from the model's own
        entry.  Either way the caller gets fresh rows, one copy of the
        entry's matrix (tier 1 stays pristine whatever the caller writes).
        """
        entry = self.sets.get((set_id, None))
        index = model_index
        if model_index is not None and not (
            entry is not None and 0 <= model_index < len(entry.rows)
        ):
            entry, index = self.sets.get((set_id, model_index)), 0
        if entry is None:
            return None
        fields = {} if model_index is None else {"model": model_index}
        with _trace.span(span, kind="cache", set_id=set_id, **fields):
            if model_index is None:
                value = ModelSet.from_rows(
                    entry.architecture, entry.schema, entry.rows.copy()
                )
                nbytes = entry.nbytes
            else:
                value = ModelState(entry.schema, entry.rows[index].copy())
                nbytes = value.row.nbytes
            self.stats.record(
                requests=1, set_hits=1, logical_bytes_served=nbytes, bytes_saved=nbytes,
                **counters,
            )
            return value

    # -- miss paths --------------------------------------------------------
    def _peek(self, set_id: str) -> "dict | None":
        """Uncharged descriptor peek, for storage-format dispatch only."""
        from repro.core.approach import SETS_COLLECTION

        try:
            return self.context.document_store.peek(SETS_COLLECTION, set_id)
        except ReplicaUnavailableError:
            # The store is down: take the approach's own path, whose
            # charged read raises the error the uncached read would.
            return None

    def _recover_miss(
        self, set_id: str, model_index: "int | None", approach: "SaveApproach"
    ) -> "tuple[object, SetEntry]":
        """Recover a set (or one model) through tier 2.

        Returns what the caller gets and the tier-1 entry for it: a
        private copy of the same parameters as one ``(models,
        parameters)`` matrix, with the unique digest ids they came from.
        Sets whose slots are keyed by content — chunked sets, and Update
        sets read whole (their hash-info document is one more metadata
        read, worth it for a set but not for one model) — run the
        recovery executor with the slots tier 2 holds withheld from the
        store fetch; everything else is the approach's own read.
        """
        from repro.core.update import UpdateApproach

        document = self._peek(set_id)
        chunked = document is not None and document.get("storage") == "chunked"
        if not chunked and not (
            model_index is None and isinstance(approach, UpdateApproach)
        ):
            if model_index is None:
                value = approach.recover(set_id)
                rows = np.stack([
                    state.row if isinstance(state, ModelState) else state_row(state)
                    for state in value
                ])
                entry = SetEntry(rows, value.architecture, value.schema)
            else:
                value = approach.recover_model(set_id, model_index)
                schema = (
                    value.schema
                    if isinstance(value, ModelState)
                    else StateSchema.from_state_dict(value)
                )
                entry = SetEntry(state_row(value)[None], "", schema)
            self.stats.record(logical_bytes_served=entry.nbytes)
            return value, entry

        context = self.context
        # A failed peek settles nothing: resolve peeks for itself.
        plan = recovery.resolve(
            approach,
            set_id,
            model_index,
            hash_info=True,
            chunked=None if document is None else chunked,
        )
        values: dict = {}
        unique = held = None
        if plan.digests is not None:
            unique = plan.unique
            with _trace.span("tier2-lookup", kind="cache", chunks=len(unique)):
                held, data, nbytes = self.chunks.get_many(unique)
                hits = unique[held]
                if chunked:
                    # A digest the store no longer holds, or holds
                    # quarantined, takes the store path, so the error the
                    # uncached read would raise still surfaces.
                    servable = context.chunk_store().servable(hits)
                    if not servable.all():
                        held[held] = servable
                        hits, data, nbytes = hits[servable], data[servable], nbytes[servable]
                values = dict(zip(hits.tolist(), data.tolist()))
            self.stats.record(
                chunk_hits=len(values),
                chunk_misses=len(unique) - len(values),
                bytes_saved=int(nbytes.sum()),
            )
        if unique is None or len(values) < len(unique):
            with _trace.span("tier3-fetch", kind="store-read"):
                fetched = recovery.fetch(context, plan, have=held)
            if unique is not None:
                self.chunks.put_many(fetched)
            values.update(fetched)
        matrix = recovery.assemble(plan, values)
        self.stats.record(logical_bytes_served=matrix.nbytes)
        entry = SetEntry(matrix.copy(), plan.architecture, plan.schema, unique)
        if model_index is None:
            return ModelSet.from_rows(plan.architecture, plan.schema, matrix), entry
        return ModelState(plan.schema, matrix[0]), entry


def apply_serving(
    context: "SaveContext",
    config,
    chunk_cache: "ChunkCache | None" = None,
    prefix: str = "serving",
) -> "ServingCache | None":
    """Wire a context's serving cache according to its config.

    Called by :func:`repro.core.approach.build_context` for every
    context; a fleet shard passes the fleet's one shared ``chunk_cache``
    (so tier 2 spans shards) and its ``fleet_shard_<i>_serving`` metric
    ``prefix``.  Returns the installed cache, or ``None`` when serving is
    disabled.
    """
    settings = config.serving
    if not settings.enabled:
        return None
    cache = ServingCache(context, settings, chunk_cache=chunk_cache)
    context.serving = cache
    if context.metrics is not None:
        cache.register_metrics(context.metrics, prefix=prefix)
    return cache


__all__ = ["ServingCache", "apply_serving"]
