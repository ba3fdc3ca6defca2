"""The tiered serving read path (:class:`ServingCache`).

Layered in front of ``MultiModelManager.recover_set``/``recover_model``
(and per shard by the fleet engine), the serving cache answers reads
from three tiers:

* **tier 1** — byte-budgeted LRU of fully materialized model sets,
* **tier 2** — decoded chunks keyed by their chunk-store SHA-256,
  shared across sets (and, in a fleet, across shards),
* **tier 3** — the existing (possibly replicated, hedged) store.

The perf mechanism is *differential recovery*: the per-layer SHA-256
matrices the Update approach already persists (``hash_info``) key every
(model, layer) slot of a requested set, so a miss only fetches the
chunks tier 2 does not hold — recovering v8 when v7 is warm reads just
the layers that differ, via the same vectored range reads the uncached
path uses.  Assembly mirrors the oracle read path instruction-for-
instruction, so recovered bytes are identical and a *cold* recovery
charges exactly what the uncached path charges; hits charge zero
simulated store time.

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

from repro.core.model_set import ModelSet
from repro.core.parallel import parallel_map
from repro.errors import RecoveryError, ReplicaUnavailableError
from repro.nn.serialization import StateSchema
from repro.observability import trace as _trace
from repro.serving.cache import ChunkCache, ServingStats, SetCache, SetEntry

if TYPE_CHECKING:
    from repro.config import ServingConfig
    from repro.core.approach import SaveApproach, SaveContext


class ServingCache:
    """Tiered read-through cache over one archive context.

    Stateless approaches stay the source of truth: every miss path
    either mirrors the approach's own read sequence (same documents,
    same range reads, same decode) or delegates to it outright, so the
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

    def invalidate_digests(self, digests) -> int:
        """Drop doomed chunks from tier 2 and any tier-1 entry using them."""
        doomed = set(digests)
        if not doomed:
            return 0
        dropped = self.chunks.drop(doomed)
        dropped += self.sets.invalidate_digests(doomed)
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
        self.stats.record(requests=1)
        entry = self.sets.get((set_id, None))
        if entry is not None:
            with _trace.span("tier1-hit", kind="cache", set_id=set_id):
                self.stats.record(
                    set_hits=1,
                    logical_bytes_served=entry.nbytes,
                    bytes_saved=entry.nbytes,
                )
                return entry.value.copy()
        self.stats.record(set_misses=1)
        result, digests = self._recover_miss(set_id, approach)
        nbytes = result.parameter_bytes
        self.sets.put(
            (set_id, None), SetEntry(result.copy(), nbytes, digests)
        )
        self.stats.record(logical_bytes_served=nbytes)
        return result

    def recover_model(
        self, set_id: str, model_index: int, approach: "SaveApproach"
    ) -> "OrderedDict[str, np.ndarray]":
        """Tiered single-model recovery (slices a warm tier-1 set)."""
        self.stats.record(requests=1)
        full = self.sets.get((set_id, None))
        if full is not None and 0 <= model_index < len(full.value):
            with _trace.span(
                "tier1-hit", kind="cache", set_id=set_id, model=model_index
            ):
                state = full.value.state(model_index)
                nbytes = sum(array.nbytes for array in state.values())
                self.stats.record(
                    set_hits=1, logical_bytes_served=nbytes, bytes_saved=nbytes
                )
                return OrderedDict(
                    (name, array.copy()) for name, array in state.items()
                )
        single = self.sets.get((set_id, model_index))
        if single is not None:
            with _trace.span(
                "tier1-hit", kind="cache", set_id=set_id, model=model_index
            ):
                self.stats.record(
                    set_hits=1,
                    logical_bytes_served=single.nbytes,
                    bytes_saved=single.nbytes,
                )
                return OrderedDict(
                    (name, array.copy())
                    for name, array in single.value.items()
                )
        self.stats.record(set_misses=1)
        document = self._peek(set_id)
        if document is not None and document.get("storage") == "chunked":
            state, digests = self._recover_chunked_model(
                set_id, model_index, approach
            )
        else:
            state = approach.recover_model(set_id, model_index)
            digests = None
        nbytes = sum(array.nbytes for array in state.values())
        self.sets.put(
            (set_id, model_index),
            SetEntry(
                OrderedDict(
                    (name, array.copy()) for name, array in state.items()
                ),
                nbytes,
                digests,
            ),
        )
        self.stats.record(logical_bytes_served=nbytes)
        return state

    def serve_stale(self, set_id: str, model_index: "int | None" = None):
        """Tier-1-only lookup for routing reads around a DOWN shard.

        Never touches tier 2 or the store (the shard's breaker is open),
        so it can only return *committed* values a successful recovery
        materialized earlier — stale at worst, never torn.  Returns the
        copied set/state on a hit, ``None`` on a miss (the fleet then
        raises :class:`~repro.errors.ShardUnavailableError`).  Hits count
        as ``stale_hits`` on top of the normal hit counters.
        """
        self.stats.record(requests=1)
        if model_index is None:
            entry = self.sets.get((set_id, None))
            if entry is not None:
                with _trace.span(
                    "tier1-stale-hit", kind="cache", set_id=set_id
                ):
                    self.stats.record(
                        set_hits=1,
                        stale_hits=1,
                        logical_bytes_served=entry.nbytes,
                        bytes_saved=entry.nbytes,
                    )
                    return entry.value.copy()
            self.stats.record(set_misses=1)
            return None
        full = self.sets.get((set_id, None))
        if full is not None and 0 <= model_index < len(full.value):
            with _trace.span(
                "tier1-stale-hit", kind="cache", set_id=set_id, model=model_index
            ):
                state = full.value.state(model_index)
                nbytes = sum(array.nbytes for array in state.values())
                self.stats.record(
                    set_hits=1,
                    stale_hits=1,
                    logical_bytes_served=nbytes,
                    bytes_saved=nbytes,
                )
                return OrderedDict(
                    (name, array.copy()) for name, array in state.items()
                )
        single = self.sets.get((set_id, model_index))
        if single is not None:
            with _trace.span(
                "tier1-stale-hit", kind="cache", set_id=set_id, model=model_index
            ):
                self.stats.record(
                    set_hits=1,
                    stale_hits=1,
                    logical_bytes_served=single.nbytes,
                    bytes_saved=single.nbytes,
                )
                return OrderedDict(
                    (name, array.copy())
                    for name, array in single.value.items()
                )
        self.stats.record(set_misses=1)
        return None

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
        self, set_id: str, approach: "SaveApproach"
    ) -> "tuple[ModelSet, frozenset[str] | None]":
        from repro.core.update import UpdateApproach

        document = self._peek(set_id)
        if document is not None and document.get("storage") == "chunked":
            return self._recover_chunked(set_id, approach)
        if (
            self.config.differential
            and isinstance(approach, UpdateApproach)
            and document is not None
            and document.get("type") == approach.name
        ):
            recovered = self._recover_update_differential(set_id, approach)
            if recovered is not None:
                return recovered
        return approach.recover(set_id), None

    def _servable(self, store, digest: str) -> bool:
        """Whether a tier-2 hit may stand in for this store's chunk.

        A digest the store no longer holds, or holds quarantined, must
        take the store path so the exact error the uncached read would
        raise still surfaces (management-plane checks, uncharged).
        """
        return digest in store and not store.is_quarantined(digest)

    def _recover_chunked(
        self, set_id: str, approach: "SaveApproach"
    ) -> "tuple[ModelSet, frozenset[str]]":
        """Differential assembly of a chunked set (mirrors
        :func:`~repro.core.baseline.read_chunked_set` charge-for-charge
        on the chunks tier 2 does not hold)."""
        from repro.core.baseline import _chunked_digests, _layer_from_bytes

        context = self.context
        document = context.set_document(set_id)
        approach._require_type(document, approach.name, set_id)
        schema = StateSchema.from_json(document["schema"])
        num_models = int(document["num_models"])
        dtype = str(document.get("param_dtype", "float32"))
        matrix = _chunked_digests(context, document, set_id)
        if len(matrix) != num_models:
            raise RecoveryError(
                f"set {set_id!r}: digest matrix has {len(matrix)} rows, "
                f"expected {num_models}"
            )
        unique = list(dict.fromkeys(d for row in matrix for d in row))
        store = context.chunk_store()
        with _trace.span("tier2-lookup", kind="cache", chunks=len(unique)):
            values, missing = self.chunks.get_many(unique)
            stale = [d for d in values if not self._servable(store, d)]
            for digest in stale:
                del values[digest]
                missing.append(digest)
        self.stats.record(
            chunk_hits=len(values),
            chunk_misses=len(missing),
            bytes_saved=sum(len(data) for data in values.values()),
        )
        if missing:
            with _trace.span(
                "tier3-fetch", kind="store-read", chunks=len(missing)
            ):
                fetched = store.fetch(missing, workers=context.workers)
            self.chunks.put_many(fetched)
            values.update(fetched)
        entries = schema.entries

        def build_state(model_index: int) -> "OrderedDict[str, np.ndarray]":
            row = matrix[model_index]
            state: "OrderedDict[str, np.ndarray]" = OrderedDict()
            for layer, (name, shape) in enumerate(entries):
                state[name] = _layer_from_bytes(values[row[layer]], shape, dtype)
            return state

        if _trace.active():

            def build_traced(model_index: int):
                with _trace.span("model", key=model_index, kind="decode"):
                    return build_state(model_index)

            with _trace.span("decode", kind="decode"):
                states = parallel_map(
                    build_traced, range(num_models), context.workers
                )
        else:
            states = parallel_map(build_state, range(num_models), context.workers)
        return (
            ModelSet(str(document["architecture"]), states),
            frozenset(unique),
        )

    def _recover_chunked_model(
        self, set_id: str, model_index: int, approach: "SaveApproach"
    ) -> "tuple[OrderedDict, frozenset[str]]":
        """Single-model chunked recovery through tier 2 (mirrors
        :func:`~repro.core.baseline.read_chunked_model`)."""
        from repro.core.baseline import _chunked_digests, _layer_from_bytes

        context = self.context
        document = context.set_document(set_id)
        approach._require_type(document, approach.name, set_id)
        num_models = int(document["num_models"])
        if not 0 <= model_index < num_models:
            raise IndexError(
                f"model index {model_index} out of range for set {set_id!r} "
                f"({num_models} models)"
            )
        schema = StateSchema.from_json(document["schema"])
        dtype = str(document.get("param_dtype", "float32"))
        row = _chunked_digests(context, document, set_id)[model_index]
        unique = list(dict.fromkeys(row))
        store = context.chunk_store()
        with _trace.span("tier2-lookup", kind="cache", chunks=len(unique)):
            values, missing = self.chunks.get_many(unique)
            stale = [d for d in values if not self._servable(store, d)]
            for digest in stale:
                del values[digest]
                missing.append(digest)
        self.stats.record(
            chunk_hits=len(values),
            chunk_misses=len(missing),
            bytes_saved=sum(len(data) for data in values.values()),
        )
        if missing:
            with _trace.span(
                "tier3-fetch", kind="store-read", chunks=len(missing)
            ):
                fetched = store.fetch(missing, workers=context.workers)
            self.chunks.put_many(fetched)
            values.update(fetched)
        with _trace.span("decode", kind="decode"):
            state: "OrderedDict[str, np.ndarray]" = OrderedDict()
            for layer, (name, shape) in enumerate(schema.entries):
                state[name] = _layer_from_bytes(values[row[layer]], shape, dtype)
        return state, frozenset(unique)

    def _recover_update_differential(
        self, set_id: str, approach
    ) -> "tuple[ModelSet, frozenset[str]] | None":
        """Differential compaction of a non-chunked Update chain.

        The requested set's persisted hash matrix keys every
        (model, layer) slot; slots whose digest tier 2 holds are served
        from cache and only the remainder is fetched — the same
        newest-writer-wins compaction and vectored range reads as
        :meth:`UpdateApproach._recover_compact`, restricted to the miss
        set.  Returns ``None`` when the hash document is unavailable
        (the caller falls back to the uncached path).
        """
        from repro.core.update import (
            HASH_COLLECTION,
            _FROM_BASE,
            _coalesced_fetch,
            _layer_nbytes,
        )
        from repro.core.compression import get_codec

        context = self.context
        try:
            hashes = context.document_store.get(HASH_COLLECTION, set_id)["hashes"]
        except Exception:
            return None
        base_doc, base_id, deltas = approach._chain_documents(set_id)
        top_doc = deltas[0] if deltas else base_doc
        schema = StateSchema.from_json(top_doc["schema"])
        if deltas:
            base_schema = StateSchema.from_json(base_doc["schema"])
            if base_schema != schema:
                raise RecoveryError(
                    "delta schema does not match the base set's schema"
                )
        num_models = int(top_doc["num_models"])
        if deltas and int(base_doc["num_models"]) != num_models:
            raise RecoveryError(
                f"chain base {base_id!r} has {base_doc['num_models']} models, "
                f"set {set_id!r} has {num_models}"
            )
        num_layers = len(schema.entries)
        if len(hashes) != num_models or any(
            len(row) != num_layers for row in hashes
        ):
            return None
        layer_nbytes = _layer_nbytes(schema)
        layer_offsets = [0] * num_layers
        for layer in range(1, num_layers):
            layer_offsets[layer] = layer_offsets[layer - 1] + layer_nbytes[layer - 1]

        # Pass 1 (metadata only): newest writer wins for every model × layer.
        unset = np.iinfo(np.int32).min
        writer = np.full((num_models, num_layers), unset, np.int32)
        for depth, document in enumerate(deltas):
            approach._validate_delta_size(document, layer_nbytes)
            for model_index, changed_layers in document["diff"]:
                model_index = int(model_index)
                if model_index >= num_models:
                    raise RecoveryError(
                        f"diff references model {model_index} beyond set size"
                    )
                for layer in changed_layers:
                    if writer[model_index, int(layer)] == unset:
                        writer[model_index, int(layer)] = depth
        writer[writer == unset] = _FROM_BASE

        # Tier-2 pass: slots whose digest is cached need no store read.
        unique = list(dict.fromkeys(d for row in hashes for d in row))
        with _trace.span("tier2-lookup", kind="cache", chunks=len(unique)):
            cached, _missing = self.chunks.get_many(unique)
        values: "dict[tuple[int, int], bytes]" = {}
        need: "set[tuple[int, int]]" = set()
        hit_slots = 0
        saved = 0
        for model_index in range(num_models):
            for layer in range(num_layers):
                data = cached.get(hashes[model_index][layer])
                if data is not None:
                    values[(model_index, layer)] = data
                    hit_slots += 1
                    saved += layer_nbytes[layer]
                else:
                    need.add((model_index, layer))
        self.stats.record(
            chunk_hits=hit_slots, chunk_misses=len(need), bytes_saved=saved
        )

        # Pass 2: fetch only needed final bytes, per source artifact.
        workers = context.workers
        for depth, document in enumerate(deltas):
            segments: "list[tuple[int, int, tuple[int, int]]]" = []
            offset = 0
            for model_index, changed_layers in document["diff"]:
                model_index = int(model_index)
                for layer in changed_layers:
                    layer = int(layer)
                    nbytes = layer_nbytes[layer]
                    if (
                        writer[model_index, layer] == depth
                        and (model_index, layer) in need
                    ):
                        segments.append((offset, nbytes, (model_index, layer)))
                    offset += nbytes
            if not segments:
                continue  # superseded, or every needed slot was cached
            codec_name = str(document.get("codec", "none"))
            with _trace.span(
                "tier3-fetch",
                key=depth,
                kind="store-read",
                artifact=document["params_artifact"],
            ):
                if codec_name == "none":
                    values.update(
                        _coalesced_fetch(
                            context.file_store,
                            document["params_artifact"],
                            segments,
                            workers,
                        )
                    )
                else:
                    payload = get_codec(codec_name).decode(
                        context.file_store.get(
                            document["params_artifact"], workers=workers
                        )
                    )
                    if offset != len(payload):
                        raise RecoveryError(
                            f"delta artifact has {len(payload)} bytes, diff "
                            f"list implies {offset}"
                        )
                    view = memoryview(payload)
                    for seg_offset, nbytes, key in segments:
                        values[key] = view[seg_offset : seg_offset + nbytes]

        base_segments: "list[tuple[int, int, tuple[int, int]]]" = []
        model_stride = schema.num_bytes
        for model_index in range(num_models):
            for layer in range(num_layers):
                if (
                    writer[model_index, layer] == _FROM_BASE
                    and (model_index, layer) in need
                ):
                    base_segments.append(
                        (
                            model_index * model_stride + layer_offsets[layer],
                            layer_nbytes[layer],
                            (model_index, layer),
                        )
                    )
        if base_segments:
            with _trace.span(
                "tier3-fetch",
                kind="store-read",
                artifact=base_doc["params_artifact"],
            ):
                values.update(
                    _coalesced_fetch(
                        context.file_store,
                        base_doc["params_artifact"],
                        base_segments,
                        workers,
                    )
                )

        # Populate tier 2 with everything fetched this request.
        fetched_chunks: "dict[str, bytes]" = {}
        for model_index, layer in need:
            digest = hashes[model_index][layer]
            if digest not in fetched_chunks:
                fetched_chunks[digest] = bytes(values[(model_index, layer)])
        self.chunks.put_many(fetched_chunks)

        entries = schema.entries

        def build_state(model_index: int) -> "OrderedDict[str, np.ndarray]":
            state: "OrderedDict[str, np.ndarray]" = OrderedDict()
            for layer, (name, shape) in enumerate(entries):
                raw = values[(model_index, layer)]
                size = int(np.prod(shape)) if shape else 1
                state[name] = (
                    np.frombuffer(raw, dtype=np.float32, count=size)
                    .reshape(shape)
                    .copy()
                )
            return state

        if _trace.active():

            def build_traced(model_index: int):
                with _trace.span("model", key=model_index, kind="decode"):
                    return build_state(model_index)

            with _trace.span("decode", kind="decode"):
                states = parallel_map(build_traced, range(num_models), workers)
        else:
            states = parallel_map(build_state, range(num_models), workers)
        architecture = str(
            base_doc["architecture"] if deltas else top_doc["architecture"]
        )
        return ModelSet(architecture, states), frozenset(unique)


def apply_serving(
    context: "SaveContext",
    config,
    chunk_cache: "ChunkCache | None" = None,
) -> "ServingCache | None":
    """Wire a context's serving cache according to its config.

    Shared by :meth:`SaveContext.create`,
    :func:`repro.storage.persistent.open_context`, and the fleet engine
    (which passes one shared ``chunk_cache`` so tier 2 spans shards).
    Returns the installed cache, or ``None`` when serving is disabled.
    """
    settings = config.serving
    if not settings.enabled:
        return None
    cache = ServingCache(context, settings, chunk_cache=chunk_cache)
    context.serving = cache
    if context.metrics is not None:
        cache.register_metrics(context.metrics)
    return cache


__all__ = ["ServingCache", "apply_serving"]
