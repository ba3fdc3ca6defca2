"""Properties of the recovery plan (resolve → fetch → assemble).

Over random chains — depth 0–6, random per-cycle diff patterns
(including fully superseded deltas, empty cycles and untouched models),
codec none/zlib, dedup off/on, whole-set and single-model selectors —
the executor returns the bytes the paper's replay recovery returns,
resolves from metadata alone, reads one set's worth of parameter bytes at
any depth, fetches exactly what a warm tier 2 lacks, and salvage loses
exactly the models whose rows reference a corrupt chunk.  A plan built
from the diff columns memoized on held descriptors equals one built from
thawed (plain) descriptors, across compaction and a reopen, and a
replaced descriptor never serves its predecessor's columns.  A chain
head's single-model plans gather from one chain table, kept while the
walk returns the same descriptors and rebuilt after a compaction, and a
warm read is charged exactly what the cold one was.  pas-delta's
whole-set XOR chains (codec none/zlib/shuffle-zlib, with and without
snapshots, 1 and 4 workers) recover every set and model that was saved,
resolve from metadata alone, and are charged what pas-delta's own
readers were charged.
"""

import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import ArchiveConfig, ServingConfig
from repro.core.manager import MultiModelManager
from repro.core.model_set import ModelSet
from repro.core.approach import SETS_COLLECTION
from repro.core.recovery import (
    ChainMemo,
    chain_documents,
    diff_columns,
    layer_nbytes,
    resolve,
    resolve_chain,
    stored_digests,
)
from repro.core.retention import RetentionManager
from repro.core.update import UpdateApproach
from repro.errors import RecoveryError
from repro.storage.document_store import thaw
from repro.storage.faults import corrupt_artifact
from repro.storage.hardware import SERVER_PROFILE

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


def build_chain(
    cycles, codec="none", dedup=False, serving=False, directory=None,
    approach="update", snapshot_interval=None, **knobs,
):
    """Save U1 plus one derived set per cycle; returns manager, ids, sets.

    In memory, or on disk under ``directory``; ``knobs`` are further
    :class:`ArchiveConfig` fields."""
    config = ArchiveConfig(dedup=dedup, serving=ServingConfig(enabled=serving), **knobs)
    if directory is None:
        manager = MultiModelManager.with_approach(
            approach, config, codec=codec, snapshot_interval=snapshot_interval
        )
    else:
        manager = MultiModelManager.open(directory, "update", config)
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
        matrix = stored_digests(context, manager.set_info(ids[-1]), ids[-1]).rows
        victim = matrix[slot // NUM_LAYERS][slot % NUM_LAYERS]
        chunk = context.chunk_store().locate(victim)
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


def plan_fields(plan) -> tuple:
    """A plan as plain values, for equality."""
    return (
        plan.architecture, plan.schema, plan.dtype, plan.models, plan.digests,
        [
            (source.artifact, source.codec, source.depth, source.total, source.whole,
             source.xor, source.offsets.tolist(), source.nbytes.tolist(), source.slots.tolist())
            for source in plan.sources
        ],
    )


def thawed_plan(approach, set_id, selector):
    """The oracle: ``resolve_chain`` over plain copies of the chain."""
    base_doc, _base_id, deltas = chain_documents(approach, set_id)
    return resolve_chain(
        thaw(base_doc), [thaw(document) for document in deltas], set_id, selector
    )


def chain_table_of(manager, set_id):
    """The chain table kept on ``set_id``'s held descriptor, or ``None``."""
    memo = manager.context.document_store.peek(SETS_COLLECTION, set_id).derived(ChainMemo)
    return None if memo is None else memo.table


def assert_memo_matches_thawed(manager, ids):
    for set_id in ids:
        for selector in (None, *range(NUM_MODELS)):
            tables = []
            for _ in range(2):  # the second resolve serves memoized columns
                memoized = resolve(manager.approach, set_id, selector)
                assert plan_fields(memoized) == plan_fields(
                    thawed_plan(manager.approach, set_id, selector)
                )
                tables.append(chain_table_of(manager, set_id))
            if selector is not None:  # ... and the head's chain table
                assert tables[0] is not None and tables[1] is tables[0]


#: A depth-4 Update chain whose head rewrites model 1 (read by the table tests).
WARM_CYCLES = [{0: {0, 1}, 1: {2}}, {1: {0}, 3: {1, 2}}, {0: {3}, 2: {0}}, {1: {1}}]


class TestMemoizedColumns:
    @given(cycles=chains.filter(len), compacted=st.integers(0, 6))
    @property_settings
    def test_memoized_plan_equals_the_thawed_plan(self, cycles, compacted):
        with tempfile.TemporaryDirectory() as directory:
            manager, ids, sets = build_chain(cycles, directory=directory)
            assert_memo_matches_thawed(manager, ids)
            RetentionManager(manager.context).compact(ids[compacted % len(ids)])
            assert_memo_matches_thawed(manager, ids)
            manager = MultiModelManager.open(directory, "update", ArchiveConfig())
            assert_memo_matches_thawed(manager, ids)
            for set_id, expected in zip(ids, sets):
                assert manager.recover_set(set_id).equals(expected)

    def test_a_replaced_descriptor_never_serves_stale_columns(self):
        cycles = [{0: {0, 1}, 1: {2}}, {1: {0}, 3: {1, 2}}, {0: {3}, 2: {0}}]
        manager, ids, sets = build_chain(cycles)
        store = manager.context.document_store
        assert_memo_matches_thawed(manager, ids)
        held = store.peek(SETS_COLLECTION, ids[2])
        assert diff_columns(held) is diff_columns(held)

        # Compaction replaces the delta by a snapshot: a new object, and
        # the chain above it now stops there.
        assert RetentionManager(manager.context).compact(ids[2])
        assert store.peek(SETS_COLLECTION, ids[2]) is not held
        assert_memo_matches_thawed(manager, ids)
        plan = resolve(manager.approach, ids[-1])
        assert [source.depth for source in plan.sources] == [0, None]
        assert manager.recover_set(ids[-1]).equals(sets[-1])

        # A descriptor replaced with a different diff gets its own columns.
        top = store.peek(SETS_COLLECTION, ids[-1])
        before = diff_columns(top)
        edited = thaw(top)
        edited["diff"] = edited["diff"][:1]
        store.replace(SETS_COLLECTION, ids[-1], edited)
        after = diff_columns(store.peek(SETS_COLLECTION, ids[-1]))
        assert len(after.writers) == 1 < len(before.writers)
        assert_memo_matches_thawed(manager, ids)

    def test_a_compaction_between_warm_reads_rebuilds_the_table(self, monkeypatch):
        manager, ids, sets = build_chain(WARM_CYCLES)
        approach, store = manager.approach, manager.context.file_store
        for _ in range(2):  # cold, then warm
            assert same_state(approach.recover_model(ids[-1], 1), sets[-1].state(1))
        warm = chain_table_of(manager, ids[-1])
        compacted = [manager.set_info(set_id)["params_artifact"] for set_id in ids[1:3]]
        assert RetentionManager(manager.context).compact(ids[2])

        read = []
        for name in ("get", "get_ranges", "size"):
            method = getattr(store, name)
            monkeypatch.setattr(
                store, name,
                lambda artifact, *args, method=method, **kwargs: (
                    read.append(artifact) or method(artifact, *args, **kwargs)
                ),
            )
        assert same_state(approach.recover_model(ids[-1], 1), sets[-1].state(1))
        assert chain_table_of(manager, ids[-1]) is not warm
        plan = resolve(approach, ids[-1], 1)
        assert [source.depth for source in plan.sources] == [0, 1, None]
        assert plan.sources[-1].artifact == manager.set_info(ids[2])["params_artifact"]
        assert read and not set(read) & set(compacted)

    @pytest.mark.parametrize("depth", [0, 1, 4])
    def test_a_warm_read_is_charged_what_the_cold_read_was(self, depth):
        manager, ids, sets = build_chain(WARM_CYCLES[:depth], profile=SERVER_PROFILE)
        stores = (manager.context.file_store.stats, manager.context.document_store.stats)
        charges = []
        for _ in range(2):  # cold, then warm
            before = [stats.snapshot() for stats in stores]
            state = manager.approach.recover_model(ids[-1], 1)
            assert same_state(state, sets[-1].state(1))
            charges.append([
                value
                for stats, snapshot in zip(stores, before)
                for delta in (stats.delta_since(snapshot),)
                for value in (delta.bytes_read, delta.reads, delta.simulated_read_s)
            ])
        assert chain_table_of(manager, ids[-1]) is not None
        # Deltas of running sums: equal up to rounding.
        assert charges[1] == pytest.approx(charges[0], rel=1e-12)
        assert charges[0][4] == depth + 1  # one descriptor per set of the chain


#: A depth-3 pas-delta chain with overlapping and untouched models.
PIN_CYCLES = [{0: {0}, 2: {1, 3}}, {1: {2}}, {0: {0, 1}, 3: {5}}]


class TestXorPlan:
    @given(
        cycles=chains,
        codec=st.sampled_from(["none", "zlib", "shuffle-zlib"]),
        interval=st.sampled_from([None, 2, 3]),
        workers=st.sampled_from([1, 4]),
    )
    @property_settings
    def test_every_set_and_model_recovers_what_was_saved(
        self, cycles, codec, interval, workers
    ):
        manager, ids, sets = build_chain(
            cycles, codec, approach="pas-delta", snapshot_interval=interval,
            workers=workers,
        )
        approach = manager.approach
        for set_id, expected in zip(ids, sets):
            for selector in (None, *range(NUM_MODELS)):
                plan, delta = read_delta(manager, lambda: resolve(approach, set_id, selector))
                assert delta.reads == 0
            depth = len(chain_documents(approach, set_id)[2])
            assert [source.xor for source in plan.sources] == [True] * depth + [False]
            assert approach.recover(set_id).equals(expected)
            for model in range(NUM_MODELS):
                assert same_state(approach.recover_model(set_id, model), expected.state(model))

    @pytest.mark.parametrize(
        "workers, selector, charges",
        # (bytes read, reads, simulated read seconds) of the readers the
        # plan replaced: one striped snapshot get plus one unstriped get
        # per delta, or one model-sized snapshot range plus one get per
        # delta.  Striping the delta gets makes 4 workers no dearer.
        [
            (1, None, (91_091, 4, 0.000_436_436_4)),
            (1, 1, (31_175, 4, 0.000_412_470)),
            (4, None, (91_091, 4, 0.000_412_470)),
            (4, 1, (31_175, 4, 0.000_412_470)),
        ],
    )
    def test_charges_equal_the_replaced_readers(self, workers, selector, charges):
        manager, ids, _sets = build_chain(
            PIN_CYCLES, "shuffle-zlib", approach="pas-delta", profile=SERVER_PROFILE,
            workers=workers,
        )
        approach = manager.approach
        if selector is None:
            _result, delta = read_delta(manager, lambda: approach.recover(ids[-1]))
        else:
            _result, delta = read_delta(manager, lambda: approach.recover_model(ids[-1], selector))
        assert (delta.bytes_read, delta.reads) == charges[:2]
        if workers == 1:
            assert delta.simulated_read_s == pytest.approx(charges[2], rel=1e-9)
        else:
            assert delta.simulated_read_s <= charges[2] * (1 + 1e-9)

    def test_a_chain_mixing_xor_and_replace_deltas_is_refused(self):
        manager, ids, _sets = build_chain(PIN_CYCLES[:1], approach="pas-delta")
        base_doc, _base_id, (xor_delta,) = chain_documents(manager.approach, ids[-1])
        replace_delta = {**thaw(xor_delta), "diff": [[0, [0]]]}
        with pytest.raises(RecoveryError, match="mixes XOR and replace"):
            resolve_chain(base_doc, [xor_delta, replace_delta], ids[-1])
