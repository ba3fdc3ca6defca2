"""Determinism of the parallel engine and of delta-chain compaction.

The engine's contract: ``workers`` changes only *how fast* work happens —
every artifact, document, and recovered parameter is byte-identical at
any worker count; and ``recovery="compact"`` recovers exactly what the
paper's recursive ``"replay"`` recovers while reading strictly fewer
parameter bytes on chains of depth >= 3.
"""

import numpy as np
import pytest

from repro.config import ArchiveConfig
from repro.core.approach import SaveContext
from repro.core.baseline import BaselineApproach
from repro.core.model_set import ModelSet
from repro.core.update import UpdateApproach
from repro.storage.hardware import ARCHIVE_PROFILE
from repro.workloads.scenario import MultiModelScenario, ScenarioConfig


def perturb(models, model_index, layer_names):
    derived = models.copy()
    for name in layer_names:
        derived.state(model_index)[name] = (
            derived.state(model_index)[name] + 0.5
        ).astype(np.float32)
    return derived


def build_chain_sets(num_models=12, seed=0):
    """An initial set plus four derived generations mixing full and
    partial updates, with overlapping writes so later deltas supersede
    earlier ones (the case compaction must resolve)."""
    sets = [ModelSet.build("FFNN-48", num_models=num_models, seed=seed)]
    plans = [
        [(1, ["0.weight", "0.bias"]), (3, None)],          # partial + full
        [(1, ["0.weight"]), (5, ["4.weight"])],            # overwrites model 1
        [(3, ["2.bias"]), (7, None)],                      # partial on a full
        [(1, ["6.weight"]), (3, ["2.bias"]), (9, None)],   # overwrites again
    ]
    for plan in plans:
        current = sets[-1]
        for model_index, layers in plan:
            if layers is None:
                layers = current.schema.layer_names()
            current = perturb(current, model_index, layers)
        sets.append(current)
    return sets


def save_chain(approach, sets):
    ids = [approach.save_initial(sets[0])]
    for model_set in sets[1:]:
        ids.append(approach.save_derived(model_set, ids[-1]))
    return ids


class TestParallelSaveDeterminism:
    @pytest.mark.parametrize("approach_cls", [BaselineApproach, UpdateApproach])
    def test_artifacts_and_documents_identical(self, approach_cls):
        sets = build_chain_sets()
        stores = {}
        for workers in (1, 4):
            context = SaveContext.create(ArchiveConfig(workers=workers))
            save_chain(approach_cls(context), sets)
            stores[workers] = context
        serial, parallel = stores[1], stores[4]
        assert serial.file_store._blobs == parallel.file_store._blobs
        assert (
            serial.document_store._collections
            == parallel.document_store._collections
        )

    @pytest.mark.parametrize("approach_cls", [BaselineApproach, UpdateApproach])
    def test_parallel_recovery_matches_serial(self, approach_cls):
        sets = build_chain_sets()
        context = SaveContext.create(ArchiveConfig(workers=1))
        ids = save_chain(approach_cls(context), sets)
        serial = approach_cls(context).recover(ids[-1])
        context.workers = 4
        parallel = approach_cls(context).recover(ids[-1])
        assert serial.equals(parallel)
        assert parallel.equals(sets[-1])


class TestCompactionEquivalence:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_compact_equals_replay_on_mixed_chain(self, workers):
        sets = build_chain_sets()
        context = SaveContext.create(ArchiveConfig(workers=workers))
        ids = save_chain(UpdateApproach(context), sets)
        replayer = UpdateApproach(context, recovery="replay")
        compactor = UpdateApproach(context, recovery="compact")
        for set_id, expected in zip(ids, sets):
            replayed = replayer.recover(set_id)
            compacted = compactor.recover(set_id)
            assert compacted.equals(replayed)
            assert compacted.equals(expected)

    def test_compact_equals_replay_with_snapshot_interval(self):
        sets = build_chain_sets()
        context = SaveContext.create()
        ids = save_chain(
            UpdateApproach(context, snapshot_interval=2), sets
        )
        replayer = UpdateApproach(
            context, snapshot_interval=2, recovery="replay"
        )
        compactor = UpdateApproach(
            context, snapshot_interval=2, recovery="compact"
        )
        for set_id, expected in zip(ids, sets):
            assert compactor.recover(set_id).equals(replayer.recover(set_id))
            assert compactor.recover(set_id).equals(expected)

    @pytest.mark.parametrize("codec", ["zlib", "shuffle-zlib"])
    def test_compact_equals_replay_with_compressed_deltas(self, codec):
        sets = build_chain_sets()
        context = SaveContext.create()
        ids = save_chain(UpdateApproach(context, codec=codec), sets)
        replayer = UpdateApproach(context, codec=codec, recovery="replay")
        compactor = UpdateApproach(context, codec=codec, recovery="compact")
        assert compactor.recover(ids[-1]).equals(replayer.recover(ids[-1]))
        assert compactor.recover(ids[-1]).equals(sets[-1])

    def test_single_model_recovery_matches(self):
        sets = build_chain_sets()
        context = SaveContext.create()
        ids = save_chain(UpdateApproach(context), sets)
        replayer = UpdateApproach(context, recovery="replay")
        compactor = UpdateApproach(context, recovery="compact")
        for model_index in range(len(sets[0])):
            replayed = replayer.recover_model(ids[-1], model_index)
            compacted = compactor.recover_model(ids[-1], model_index)
            assert list(replayed) == list(compacted)
            for name in replayed:
                np.testing.assert_array_equal(replayed[name], compacted[name])

    def test_compaction_reads_strictly_fewer_bytes(self):
        sets = build_chain_sets()  # chain depth 4 >= 3
        context = SaveContext.create()
        ids = save_chain(UpdateApproach(context), sets)
        file_stats = context.file_store.stats

        before = file_stats.snapshot()
        replayed = UpdateApproach(context, recovery="replay").recover(ids[-1])
        replay_bytes = file_stats.delta_since(before).bytes_read

        before = file_stats.snapshot()
        compacted = UpdateApproach(context, recovery="compact").recover(ids[-1])
        compact_bytes = file_stats.delta_since(before).bytes_read

        set_bytes = len(sets[-1]) * sets[-1].schema.num_bytes
        # Compaction reads each parameter exactly once: one full set.
        assert compact_bytes == set_bytes
        # Replay reads the base snapshot plus every delta along the chain.
        assert replay_bytes > set_bytes
        assert compact_bytes < replay_bytes
        assert compacted.equals(replayed)


def simulated_s(context, operation):
    """Simulated store seconds ``operation`` charges to both stores."""
    stores = (context.file_store, context.document_store)
    before = [store.stats.snapshot() for store in stores]
    result = operation()
    deltas = [store.stats.delta_since(snap) for store, snap in zip(stores, before)]
    return result, sum(d.simulated_write_s + d.simulated_read_s for d in deltas)


class TestLaneScaling:
    """Striped writes and vectored reads pay the makespan of their stripes
    across ``workers`` lanes, so transfer-bound simulated times fall."""

    def test_u1_save_of_1000_models_twice_as_fast_on_four_lanes(self):
        # Charges depend on byte and operation counts only, so one
        # model's state stands in for all 1000. Baseline's U1 is the
        # striped write_set alone; Update's adds a hash pass on top.
        state = ModelSet.build("FFNN-48", num_models=1, seed=0).state(0)
        models = ModelSet("FFNN-48", [state] * 1000)
        seconds = {}
        for workers in (1, 4):
            context = SaveContext.create(
                ArchiveConfig(profile=ARCHIVE_PROFILE, workers=workers)
            )
            _, seconds[workers] = simulated_s(
                context, lambda: BaselineApproach(context).save_initial(models)
            )
        assert seconds[1] >= 2.0 * seconds[4]

    def test_chain_recovery_twice_as_fast_on_four_lanes(self):
        config = ScenarioConfig(
            num_models=120, num_update_cycles=3, partial_update_fraction=0.10
        )
        context = SaveContext.create(ArchiveConfig(profile=ARCHIVE_PROFILE))
        approach = UpdateApproach(context)
        ids = []
        for case in MultiModelScenario(config).use_cases():
            if case.base_index is None:
                ids.append(approach.save_initial(case.model_set))
            else:
                ids.append(approach.save_derived(case.model_set, ids[case.base_index]))
        recovered, seconds = {}, {}
        for workers in (1, 4):
            context.workers = workers
            recovered[workers], seconds[workers] = simulated_s(
                context, lambda: UpdateApproach(context).recover(ids[-1])
            )
        assert seconds[1] >= 2.0 * seconds[4]
        assert recovered[1].equals(recovered[4])
