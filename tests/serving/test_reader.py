"""Serving read path: byte-identity, accounting, and invalidation.

The contract under test: routing recovery through the tiered cache
never changes a single byte of any result, charges *zero* simulated
store time on a tier-1 hit, mirrors the oracle's charges exactly on a
cold chunked miss, and never serves a chunk that delete/GC/scrub has
quarantined or collected.
"""

import numpy as np
import pytest

from repro.config import ArchiveConfig, ServingConfig
from repro.core.approach import SETS_COLLECTION
from repro.core.manager import MultiModelManager
from repro.core.model_set import ModelSet
from repro.core.recovery import HASH_COLLECTION
from repro.core.retention import RetentionManager
from repro.errors import ChunkCorruptionError, QuorumError, ReplicaUnavailableError
from repro.storage.faults import FaultInjector, inject_replica_faults
from repro.storage.hashing import DIGESTS
from repro.storage.hardware import SERVER_PROFILE


def serving_manager(approach="update", dedup=True, **serving_kwargs):
    config = ArchiveConfig(
        dedup=dedup,
        serving=ServingConfig(enabled=True, **serving_kwargs),
    )
    return MultiModelManager.with_approach(approach, config)


def perturbed(model_set, model=0, layer=0, delta=1.0):
    derived = model_set.copy()
    state = derived.state(model)
    name = list(state)[layer]
    state[name] = (state[name] + np.float32(delta)).astype(np.float32)
    return derived


class TestByteIdentity:
    @pytest.mark.parametrize("approach", ["baseline", "update", "pas-delta"])
    @pytest.mark.parametrize("dedup", [False, True])
    def test_cached_recovery_matches_oracle(self, approach, dedup):
        manager = serving_manager(approach, dedup=dedup)
        base = ModelSet.build("FFNN-48", num_models=3, seed=0)
        base_id = manager.save_set(base)
        derived = perturbed(base)
        derived_id = manager.save_set(derived, base_set_id=base_id)
        for set_id in (base_id, derived_id):
            oracle = manager.approach.recover(set_id)
            cold = manager.recover_set(set_id)
            warm = manager.recover_set(set_id)
            assert cold.equals(oracle)
            assert warm.equals(oracle)

    @pytest.mark.parametrize("approach", ["baseline", "update", "pas-delta"])
    def test_cached_recover_model_matches_oracle(self, approach):
        manager = serving_manager(approach, dedup=(approach != "pas-delta"))
        base = ModelSet.build("FFNN-48", num_models=3, seed=1)
        base_id = manager.save_set(base)
        derived = perturbed(base, model=2)
        derived_id = manager.save_set(derived, base_set_id=base_id)
        oracle = manager.approach.recover_model(derived_id, 2)
        for _ in range(2):  # cold then warm
            state = manager.recover_model(derived_id, 2)
            assert set(state) == set(oracle)
            for name in oracle:
                assert state[name].tobytes() == oracle[name].tobytes()

    def test_caller_mutation_cannot_poison_the_cache(self):
        manager = serving_manager()
        base = ModelSet.build("FFNN-48", num_models=2, seed=2)
        set_id = manager.save_set(base)
        first = manager.recover_set(set_id)
        name = list(first.state(0))[0]
        first.state(0)[name][:] = 0.0  # caller scribbles over the result
        again = manager.recover_set(set_id)
        assert again.equals(base)

    def test_mutating_a_model_sliced_from_a_cached_set_cannot_poison_it(self):
        manager = serving_manager()
        base = ModelSet.build("FFNN-48", num_models=2, seed=2)
        set_id = manager.save_set(base)
        manager.recover_set(set_id)  # caches the full set
        hit = manager.recover_model(set_id, 1)
        assert manager.context.serving.stats.set_hits == 1
        name = list(hit)[0]
        hit[name][:] = 0.0  # scribble through the view ...
        hit[name] = np.ones_like(hit[name])  # ... and through assignment
        assert manager.recover_set(set_id).equals(base)
        again = manager.recover_model(set_id, 1)
        for layer, values in base.state(1).items():
            assert again[layer].tobytes() == values.tobytes()

    def test_recover_model_slices_a_cached_full_set(self):
        manager = serving_manager()
        base = ModelSet.build("FFNN-48", num_models=3, seed=3)
        set_id = manager.save_set(base)
        manager.recover_set(set_id)  # caches the full set
        before = manager.context.file_store.stats.snapshot()
        state = manager.recover_model(set_id, 1)
        delta = manager.context.file_store.stats.delta_since(before)
        assert delta.reads == 0
        for name, values in base.state(1).items():
            assert state[name].tobytes() == values.tobytes()

    def test_out_of_range_model_index_raises(self):
        manager = serving_manager()
        set_id = manager.save_set(ModelSet.build("FFNN-48", num_models=2, seed=4))
        with pytest.raises(IndexError):
            manager.recover_model(set_id, 5)


class TestDispatchPeek:
    """The miss path's format peek must not turn an outage into a wrong
    recovery path: only a single store's own outage reads as "unknown"."""

    def test_quorum_loss_surfaces_instead_of_misrouting(self):
        config = ArchiveConfig(
            dedup=True, replicas=3, serving=ServingConfig(enabled=True)
        )
        manager = MultiModelManager.with_approach("update", config)
        set_id = manager.save_set(ModelSet.build("FFNN-48", num_models=2, seed=5))
        for index in (0, 1):
            inject_replica_faults(
                manager.context, index, FaultInjector(down_at=0, down_mode="before")
            )
        with pytest.raises(QuorumError):
            manager.save_set(ModelSet.build("FFNN-48", num_models=2, seed=6))
        for read in (manager.recover_set, lambda sid: manager.recover_model(sid, 0)):
            with pytest.raises(QuorumError):
                read(set_id)

    @pytest.mark.parametrize("dedup", [True, False])
    def test_one_descriptor_peek_per_miss(self, monkeypatch, dedup):
        manager = serving_manager(dedup=dedup)
        base = ModelSet.build("FFNN-48", num_models=2, seed=8)
        base_id = manager.save_set(base)
        derived_id = manager.save_set(perturbed(base), base_set_id=base_id)
        store = manager.context.document_store
        peek, peeked = store.peek, []

        def counting(collection, doc_id):
            if collection == SETS_COLLECTION:
                peeked.append(doc_id)
            return peek(collection, doc_id)

        monkeypatch.setattr(store, "peek", counting)
        misses = [derived_id, base_id]
        if dedup:
            # Only a chunked model read misses through the plan; a plain
            # Update model read takes the approach's own path.
            manager.recover_model(derived_id, 1)
            misses.append(derived_id)
        manager.recover_set(base_id)
        manager.recover_set(derived_id)
        assert manager.context.serving.stats.set_misses == len(misses)
        assert sorted(peeked) == sorted(misses)

    def test_a_failed_peek_leaves_the_format_to_resolve(self, monkeypatch):
        # The store is down for the miss path's peek and back for the
        # plan's: a chunked Update set read whole still takes the chunked
        # path instead of the artifact chain.
        manager = serving_manager(dedup=True)
        base = ModelSet.build("FFNN-48", num_models=2, seed=9)
        set_id = manager.save_set(base)
        store = manager.context.document_store
        peek, peeked = store.peek, []

        def down_once(collection, doc_id):
            if collection == SETS_COLLECTION:
                peeked.append(doc_id)
                if len(peeked) == 1:
                    raise ReplicaUnavailableError("down for one peek")
            return peek(collection, doc_id)

        monkeypatch.setattr(store, "peek", down_once)
        assert manager.recover_set(set_id).equals(base)
        assert peeked == [set_id, set_id]

    def test_programming_errors_are_not_swallowed(self, monkeypatch):
        manager = serving_manager()
        set_id = manager.save_set(ModelSet.build("FFNN-48", num_models=2, seed=7))

        def broken(_collection, _doc_id):
            raise RuntimeError("bug in peek")

        monkeypatch.setattr(manager.context.document_store, "peek", broken)
        with pytest.raises(RuntimeError, match="bug in peek"):
            manager.recover_set(set_id)

        # Nor is a failing hash-info read: only a *missing* document
        # means "no tier-2 filter".
        manager = serving_manager(dedup=False)
        set_id = manager.save_set(ModelSet.build("FFNN-48", num_models=2, seed=7))
        store = manager.context.document_store
        get = store.get

        def broken_hash_info(collection, doc_id):
            if collection == HASH_COLLECTION:
                raise RuntimeError("bug in hash-info read")
            return get(collection, doc_id)

        monkeypatch.setattr(store, "get", broken_hash_info)
        with pytest.raises(RuntimeError, match="bug in hash-info read"):
            manager.recover_set(set_id)
        monkeypatch.setattr(store, "get", get)
        store.delete(HASH_COLLECTION, set_id)
        assert manager.recover_set(set_id).equals(manager.approach.recover(set_id))


class TestAccounting:
    def test_tier1_hit_charges_zero_store_time(self):
        manager = serving_manager()
        base = ModelSet.build("FFNN-48", num_models=2, seed=5)
        set_id = manager.save_set(base)
        manager.recover_set(set_id)
        file_before = manager.context.file_store.stats.snapshot()
        doc_before = manager.context.document_store.stats.snapshot()
        result = manager.recover_set(set_id)
        file_delta = manager.context.file_store.stats.delta_since(file_before)
        doc_delta = manager.context.document_store.stats.delta_since(doc_before)
        assert result.equals(base)
        assert file_delta.reads == 0
        assert file_delta.simulated_read_s == 0.0
        assert doc_delta.reads == 0
        counters = manager.context.serving.counters()
        assert counters["set_hits"] == 1
        # ... but the logical bytes served are still counted.
        assert counters["logical_bytes_served"] >= 2 * base.parameter_bytes

    def test_reads_do_not_drift_stored_byte_accounting(self):
        manager = serving_manager()
        base = ModelSet.build("FFNN-48", num_models=2, seed=6)
        set_id = manager.save_set(base)
        stored = dict(
            manager.context.file_store.stats.snapshot().bytes_by_category
        )
        for _ in range(3):
            manager.recover_set(set_id)
        after = dict(manager.context.file_store.stats.snapshot().bytes_by_category)
        assert after == stored

    def test_differential_recovery_fetches_only_missing_chunks(self):
        manager = serving_manager()
        base = ModelSet.build("FFNN-48", num_models=2, seed=7)
        base_id = manager.save_set(base)
        derived = perturbed(base)
        derived_id = manager.save_set(derived, base_set_id=base_id)
        manager.recover_set(base_id)  # tier 2 now holds every base chunk
        before = manager.context.serving.stats.counters()
        result = manager.recover_set(derived_id)
        after = manager.context.serving.stats.counters()
        assert result.equals(derived)
        assert after["chunk_misses"] - before["chunk_misses"] == 1
        assert after["bytes_saved"] > before["bytes_saved"]

    def test_non_chunked_update_differential(self):
        manager = serving_manager(dedup=False)
        base = ModelSet.build("FFNN-48", num_models=2, seed=8)
        base_id = manager.save_set(base)
        derived = perturbed(base, model=1)
        derived_id = manager.save_set(derived, base_set_id=base_id)
        manager.recover_set(base_id)
        before = manager.context.serving.stats.counters()
        result = manager.recover_set(derived_id)
        after = manager.context.serving.stats.counters()
        assert result.equals(manager.approach.recover(derived_id))
        assert after["chunk_misses"] - before["chunk_misses"] == 1


class TestChargeParity:
    """A cold serving read is charged what the uncached read is charged,
    at every worker count (``ServingConfig``'s documented contract)."""

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("shape", ["full", "chain", "zlib-chain", "chunked"])
    @pytest.mark.parametrize("model_index", [None, 5])
    def test_cold_miss_charges_what_the_uncached_read_charges(
        self, workers, shape, model_index
    ):
        config = ArchiveConfig(
            profile=SERVER_PROFILE,
            workers=workers,
            dedup=shape == "chunked",
            serving=ServingConfig(enabled=True),
        )
        manager = MultiModelManager.with_approach(
            "update", config, codec="zlib" if shape == "zlib-chain" else "none"
        )
        models = ModelSet.build("FFNN-48", num_models=8, seed=18)
        set_id = manager.save_set(models)
        for cycle in range(0 if shape == "full" else 3):
            models = perturbed(models, model=cycle + 4, layer=cycle)
            set_id = manager.save_set(models, base_set_id=set_id)
        if model_index is None:
            uncached, serving = manager.approach.recover, manager.recover_set
        else:
            uncached = lambda sid: manager.approach.recover_model(sid, model_index)
            serving = lambda sid: manager.recover_model(sid, model_index)

        stats = manager.context.file_store.stats
        charges = []
        for read in (uncached, serving):
            before = stats.snapshot()
            read(set_id)
            delta = stats.delta_since(before)
            charges.append((delta.reads, delta.bytes_read, delta.simulated_read_s))
        # (Deltas of a running float total: equal to the last ulp or so.)
        assert charges[0] == pytest.approx(charges[1], rel=1e-9)
        assert charges[0][0] > 0


class TestInvalidation:
    def test_gc_drops_deleted_sets_from_the_cache(self):
        manager = serving_manager()
        base = ModelSet.build("FFNN-48", num_models=2, seed=10)
        base_id = manager.save_set(base)
        derived = perturbed(base)
        derived_id = manager.save_set(derived, base_set_id=base_id)
        manager.recover_set(base_id)
        manager.recover_set(derived_id)
        RetentionManager(manager.context).collect(keep=[derived_id])
        serving = manager.context.serving
        assert (base_id, None) not in [
            key for key in serving.sets.keys() if key[0] == base_id
        ] or not serving.sets.keys()
        assert manager.recover_set(derived_id).equals(derived)

    def test_compact_invalidates_the_rewritten_set(self):
        # Non-chunked: chunked deltas compact to a no-op (and keep their
        # cache entries), so only the rewritten case must invalidate.
        manager = serving_manager(dedup=False)
        base = ModelSet.build("FFNN-48", num_models=2, seed=11)
        base_id = manager.save_set(base)
        derived = perturbed(base)
        derived_id = manager.save_set(derived, base_set_id=base_id)
        manager.recover_set(derived_id)
        RetentionManager(manager.context).compact(derived_id)
        assert all(key[0] != derived_id for key in manager.context.serving.sets.keys())
        assert manager.recover_set(derived_id).equals(derived)

    def test_quarantined_chunk_is_never_served_from_tier2(self):
        manager = serving_manager()
        base = ModelSet.build("FFNN-48", num_models=2, seed=12)
        set_id = manager.save_set(base)
        manager.recover_set(set_id)
        serving = manager.context.serving
        store = manager.context.chunk_store()
        doomed = next(iter(store))
        serving.evict()  # keep tier 2, drop tier 1
        store.quarantine([doomed])
        assert DIGESTS.intern_many([doomed])[0] not in serving.chunks
        counters = serving.counters()
        assert counters["invalidations"] >= 1

    def test_quarantined_digest_still_in_tier2_is_not_served_from_it(self):
        # Tier 2 can hold a digest the store has quarantined (a fleet's
        # shared tier 2 refilled by another shard): the miss must take the
        # store path and surface the uncached read's error.
        manager = serving_manager()
        set_id = manager.save_set(ModelSet.build("FFNN-48", num_models=2, seed=12))
        serving = manager.context.serving
        manager.recover_set(set_id)
        keys = serving.chunks.keys()
        _held, data, _nbytes = serving.chunks.get_many(keys)
        held = dict(zip(keys.tolist(), data.tolist()))
        store = manager.context.chunk_store()
        doomed = next(iter(held))
        store.quarantine(DIGESTS.hexes([doomed]))
        serving.chunks.put_many(held)  # back in tier 2, still quarantined
        assert doomed in serving.chunks
        with pytest.raises(ChunkCorruptionError):
            manager.recover_set(set_id)
        with pytest.raises(ChunkCorruptionError):
            manager.approach.recover(set_id)

    def test_sweep_drops_collected_chunks_from_tier2(self):
        manager = serving_manager()
        base = ModelSet.build("FFNN-48", num_models=2, seed=13)
        base_id = manager.save_set(base)
        derived_id = manager.save_set(perturbed(base), base_set_id=base_id)
        manager.recover_set(base_id)
        manager.recover_set(derived_id)
        serving = manager.context.serving
        populated = len(serving.chunks)
        RetentionManager(manager.context).collect(keep=[derived_id])
        # The derived set's chunks survive; collected ones are gone.
        assert len(serving.chunks) <= populated
        store = manager.context.chunk_store()
        for digest in DIGESTS.hexes(serving.chunks.keys().tolist()):
            assert digest in store

    def test_quarantine_drops_tier1_sets_built_from_the_chunk(self):
        manager = serving_manager()
        base = ModelSet.build("FFNN-48", num_models=2, seed=14)
        set_id = manager.save_set(base)
        manager.recover_set(set_id)  # tier-1 entry remembers its digests
        store = manager.context.chunk_store()
        doomed = next(iter(store))
        store.quarantine([doomed])
        serving = manager.context.serving
        assert all(key[0] != set_id for key in serving.sets.keys())


class TestMetricsAndWarm:
    def test_counters_flow_through_metrics_registry(self):
        from repro.config import ObservabilityConfig

        config = ArchiveConfig(
            dedup=True,
            serving=ServingConfig(enabled=True),
            observability=ObservabilityConfig(metrics=True),
        )
        manager = MultiModelManager.with_approach("update", config)
        set_id = manager.save_set(ModelSet.build("FFNN-48", num_models=2, seed=15))
        manager.recover_set(set_id)
        values = manager.context.metrics.collect()
        assert values["serving_requests"] == 1
        assert values["serving_set_misses"] == 1

    def test_warm_prematerializes_and_evict_drops(self):
        manager = serving_manager()
        base = ModelSet.build("FFNN-48", num_models=2, seed=16)
        set_id = manager.save_set(base)
        serving = manager.context.serving
        summary = serving.warm([set_id], manager.approach)
        assert summary["warmed"] == [set_id]
        before = manager.context.file_store.stats.snapshot()
        manager.recover_set(set_id)  # warm: zero store reads
        assert manager.context.file_store.stats.delta_since(before).reads == 0
        dropped = serving.evict(chunks=True)
        assert dropped["evicted_sets"] == 1
        assert dropped["evicted_chunks"] > 0

    def test_trace_spans_mark_tiers(self):
        from repro.config import ObservabilityConfig

        config = ArchiveConfig(
            dedup=True,
            serving=ServingConfig(enabled=True),
            observability=ObservabilityConfig(tracing=True),
        )
        manager = MultiModelManager.with_approach("update", config)
        set_id = manager.save_set(ModelSet.build("FFNN-48", num_models=2, seed=17))
        manager.context.tracer.clear()
        manager.recover_set(set_id)  # miss: tier-2 lookup + tier-3 fetch
        manager.recover_set(set_id)  # hit
        names = {
            span.name
            for root in manager.context.tracer.roots
            for span in root.walk()
        }
        assert "tier2-lookup" in names
        assert "tier3-fetch" in names
        assert "tier1-hit" in names
