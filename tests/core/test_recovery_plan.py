"""Properties of the recovery plan (resolve → fetch → assemble).

Over random chains — depth 0–6, random per-cycle diff patterns
(including fully superseded deltas, empty cycles and untouched models),
codec none/zlib, dedup off/on, whole-set and single-model selectors —
the executor returns the bytes the paper's replay recovery returns,
resolves from metadata alone, reads one set's worth of parameter bytes at
any depth, fetches exactly what a warm tier 2 lacks, and salvage loses
exactly the models whose rows reference a corrupt chunk.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import ArchiveConfig, ServingConfig
from repro.core.manager import MultiModelManager
from repro.core.model_set import ModelSet
from repro.core.recovery import digest_matrix, layer_nbytes, resolve
from repro.core.update import UpdateApproach
from repro.storage.faults import corrupt_artifact

NUM_MODELS = 4
NUM_LAYERS = len(ModelSet.build("FFNN-48", num_models=1, seed=0).schema.entries)

#: One cycle: the (model, layers) entries it rewrites; a chain: 0–6 cycles.
cycle = st.dictionaries(
    st.integers(0, NUM_MODELS - 1),
    st.sets(st.integers(0, NUM_LAYERS - 1), min_size=1, max_size=NUM_LAYERS),
    max_size=3,
)
chains = st.lists(cycle, max_size=6)
property_settings = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def build_chain(cycles, codec="none", dedup=False, serving=False):
    """Save U1 plus one derived set per cycle; returns manager, ids, sets."""
    config = ArchiveConfig(dedup=dedup, serving=ServingConfig(enabled=serving))
    manager = MultiModelManager.with_approach("update", config, codec=codec)
    sets = [ModelSet.build("FFNN-48", num_models=NUM_MODELS, seed=0)]
    ids = [manager.save_set(sets[0])]
    names = sets[0].schema.layer_names()
    for number, pattern in enumerate(cycles, start=1):
        derived = sets[-1].copy()
        for model, layers in pattern.items():
            state = derived.state(model)
            for layer in layers:
                name = names[layer]
                state[name] = (state[name] + np.float32(number)).astype(np.float32)
        ids.append(manager.save_set(derived, base_set_id=ids[-1]))
        sets.append(derived)
    return manager, ids, sets


def read_delta(manager, operation):
    stats = manager.context.file_store.stats
    before = stats.snapshot()
    result = operation()
    return result, stats.delta_since(before)


def same_state(state, expected) -> bool:
    return list(state) == list(expected) and all(
        state[name].tobytes() == expected[name].tobytes() for name in expected
    )


class TestExecutor:
    @given(cycles=chains, codec=st.sampled_from(["none", "zlib"]), dedup=st.booleans())
    @property_settings
    def test_bytes_equal_the_replay_oracle(self, cycles, codec, dedup):
        manager, ids, sets = build_chain(cycles, codec, dedup)
        replay = UpdateApproach(manager.context, codec=codec, recovery="replay")
        for set_id, expected in zip(ids, sets):
            oracle = replay.recover(set_id)
            assert oracle.equals(expected)
            assert manager.approach.recover(set_id).equals(oracle)
        for model in range(NUM_MODELS):
            state = manager.approach.recover_model(ids[-1], model)
            assert same_state(state, replay.recover_model(ids[-1], model))

    @given(cycles=chains, codec=st.sampled_from(["none", "zlib"]), dedup=st.booleans())
    @property_settings
    def test_resolve_reads_no_parameter_bytes(self, cycles, codec, dedup):
        manager, ids, _sets = build_chain(cycles, codec, dedup)
        for selector in (None, *range(NUM_MODELS)):
            plan, delta = read_delta(
                manager, lambda: resolve(manager.approach, ids[-1], selector)
            )
            assert delta.reads == 0
            assert plan.models == (
                list(range(NUM_MODELS)) if selector is None else [selector]
            )

    @given(cycles=chains)
    @property_settings
    def test_one_sets_worth_of_bytes_at_any_depth(self, cycles):
        manager, ids, sets = build_chain(cycles)
        per_model = sets[0].schema.num_bytes
        _set, delta = read_delta(manager, lambda: manager.approach.recover(ids[-1]))
        assert delta.bytes_read == NUM_MODELS * per_model
        for model in range(NUM_MODELS):
            _state, delta = read_delta(
                manager, lambda: manager.approach.recover_model(ids[-1], model)
            )
            assert delta.bytes_read == per_model


class TestTierTwoFilter:
    @given(cycles=chains.filter(len), dedup=st.booleans())
    @property_settings
    def test_warm_tier2_fetches_exactly_the_lacking_slots(self, cycles, dedup):
        manager, ids, sets = build_chain(cycles, dedup=dedup, serving=True)
        serving = manager.context.serving
        manager.recover_set(ids[-2])  # the parent version warms tier 2
        serving.evict()  # drop tier 1, keep the decoded chunks
        held = set(serving.chunks.keys())
        plan = resolve(manager.approach, ids[-1], hash_info=True)
        sizes = layer_nbytes(plan.schema) * NUM_MODELS
        lacking = {
            digest: size for digest, size in zip(plan.digests, sizes)
            if digest not in held
        }
        if dedup:
            expected_bytes = sum(lacking.values())  # each unique chunk once
        else:
            expected_bytes = sum(
                size for digest, size in zip(plan.digests, sizes) if digest in lacking
            )
        misses = serving.stats.counters()["chunk_misses"]
        recovered, delta = read_delta(manager, lambda: manager.recover_set(ids[-1]))
        assert recovered.equals(sets[-1])
        assert serving.stats.counters()["chunk_misses"] - misses == len(lacking)
        assert delta.bytes_read == expected_bytes


class TestSalvage:
    @given(cycles=chains, slot=st.integers(0, NUM_MODELS * NUM_LAYERS - 1))
    @property_settings
    def test_corrupt_chunk_loses_exactly_the_rows_referencing_it(self, cycles, slot):
        manager, ids, sets = build_chain(cycles, dedup=True)
        context = manager.context
        matrix = digest_matrix(context, manager.set_info(ids[-1]), ids[-1])
        victim = matrix[slot // NUM_LAYERS][slot % NUM_LAYERS]
        chunk = context.chunk_store()._chunks[victim]
        corrupt_artifact(context.file_store, chunk.artifact_id, offset=chunk.offset)
        context._invalidate_chunk_store()

        report = manager.recover_set(ids[-1], salvage=True)
        lost = [index for index, row in enumerate(matrix) if victim in row]
        assert report.failed_indices == lost
        assert report.corrupt_chunks == [victim]
        assert report.recovered_indices == [
            index for index in range(NUM_MODELS) if index not in lost
        ]
        for index, state in report.models.items():
            assert same_state(state, sets[-1].state(index))
