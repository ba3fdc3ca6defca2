"""Approach-level tests of content-addressed (dedup) storage.

Covers the acceptance criteria of the dedup layer: byte-identical
recovery with the knob on or off, storage reduction across derivation
chains, refcount protection of shared chunks, and exact reclamation.
"""

import numpy as np
import pytest

from repro.config import ArchiveConfig
from repro.core.approach import SETS_COLLECTION
from repro.core.lineage import LineageGraph
from repro.core.manager import MultiModelManager
from repro.core.model_set import ModelSet
from repro.core.recovery import set_owns
from repro.core.retention import RetentionManager
from repro.core.fsck import ArchiveFsck
from repro.errors import InvalidUpdatePlanError
from repro.storage.hardware import ARCHIVE_PROFILE
from repro.workloads.scenario import MultiModelScenario, ScenarioConfig

APPROACHES = ["baseline", "update", "baseline-fp16"]


def perturb(model_set: ModelSet, fraction: float, seed: int) -> ModelSet:
    """A partially updated copy: ``fraction`` of layers change per model."""
    rng = np.random.default_rng(seed)
    states = []
    for state in model_set.states:
        new = {}
        for name, values in state.items():
            if rng.random() < fraction:
                new[name] = (values + rng.normal(0, 0.01, values.shape)).astype(
                    np.float32
                )
            else:
                new[name] = np.asarray(values, dtype=np.float32).copy()
        states.append(new)
    return ModelSet(model_set.architecture, states)


def assert_states_equal(recovered: ModelSet, expected: ModelSet) -> None:
    assert len(recovered) == len(expected)
    for index in range(len(expected)):
        state_a, state_b = recovered.state(index), expected.state(index)
        assert list(state_a) == list(state_b)
        for name in state_a:
            assert np.array_equal(state_a[name], state_b[name]), name


@pytest.mark.parametrize("approach", APPROACHES)
class TestByteIdenticalRecovery:
    def test_initial_save_roundtrip(self, approach):
        models = ModelSet.build("FFNN-48", num_models=5, seed=3)
        on = MultiModelManager.with_approach(approach, ArchiveConfig(dedup=True))
        off = MultiModelManager.with_approach(approach, ArchiveConfig(dedup=False))
        recovered_on = on.recover_set(on.save_set(models))
        recovered_off = off.recover_set(off.save_set(models))
        assert_states_equal(recovered_on, recovered_off)

    def test_derived_chain_roundtrip(self, approach):
        # fp16 is lossy either way, so the invariant is recovery with
        # dedup on == recovery with dedup off, not == the original.
        base = ModelSet.build("FFNN-48", num_models=4, seed=4)
        updated = perturb(base, fraction=0.3, seed=5)
        recovered = {}
        for dedup in (True, False):
            manager = MultiModelManager.with_approach(approach, ArchiveConfig(dedup=dedup))
            base_id = manager.save_set(base)
            derived_id = manager.save_set(updated, base_set_id=base_id)
            recovered[dedup] = (
                manager.recover_set(base_id),
                manager.recover_set(derived_id),
            )
        assert_states_equal(recovered[True][0], recovered[False][0])
        assert_states_equal(recovered[True][1], recovered[False][1])

    def test_single_model_recovery(self, approach):
        models = ModelSet.build("FFNN-48", num_models=4, seed=6)
        on = MultiModelManager.with_approach(approach, ArchiveConfig(dedup=True))
        off = MultiModelManager.with_approach(approach, ArchiveConfig(dedup=False))
        id_on, id_off = on.save_set(models), off.save_set(models)
        for index in (0, 3):
            state_on = on.recover_model(id_on, index)
            state_off = off.recover_model(id_off, index)
            for name in state_on:
                assert np.array_equal(state_on[name], state_off[name])


class TestStorageReduction:
    def test_identical_resave_costs_no_parameter_bytes(self):
        models = ModelSet.build("FFNN-48", num_models=4, seed=7)
        manager = MultiModelManager.with_approach("baseline", ArchiveConfig(dedup=True))
        first = manager.save_set(models)
        bytes_after_first = manager.context.file_store.total_bytes()
        manager.save_set(models, base_set_id=first)
        assert manager.context.file_store.total_bytes() == bytes_after_first

    def test_derived_save_stores_only_changed_layers(self):
        base = ModelSet.build("FFNN-48", num_models=6, seed=8)
        updated = perturb(base, fraction=0.2, seed=9)
        manager = MultiModelManager.with_approach("baseline", ArchiveConfig(dedup=True))
        base_id = manager.save_set(base)
        full_bytes = manager.context.file_store.total_bytes()
        manager.save_set(updated, base_set_id=base_id)
        added = manager.context.file_store.total_bytes() - full_bytes
        assert 0 < added < full_bytes / 2

    def test_streaming_save_matches_materialized(self):
        models = ModelSet.build("FFNN-48", num_models=5, seed=10)
        streaming = MultiModelManager.with_approach("baseline", ArchiveConfig(dedup=True))
        materialized = MultiModelManager.with_approach("baseline", ArchiveConfig(dedup=True))
        stream_id = streaming.save_set_streaming(
            "FFNN-48", iter(models.states), len(models)
        )
        mat_id = materialized.save_set(models)
        assert_states_equal(
            streaming.recover_set(stream_id), materialized.recover_set(mat_id)
        )
        assert (
            streaming.context.file_store.total_bytes()
            == materialized.context.file_store.total_bytes()
        )


class TestRefcountGC:
    def make_chain(self, approach="update", cycles=2):
        manager = MultiModelManager.with_approach(approach, ArchiveConfig(dedup=True))
        current = ModelSet.build("FFNN-48", num_models=4, seed=11)
        ids = [manager.save_set(current)]
        sets = [current]
        for cycle in range(cycles):
            current = perturb(current, fraction=0.3, seed=20 + cycle)
            ids.append(manager.save_set(current, base_set_id=ids[-1]))
            sets.append(current)
        return manager, ids, sets

    def test_deleting_base_keeps_shared_chunks(self):
        manager, ids, sets = self.make_chain()
        retention = RetentionManager(manager.context)
        report = retention.collect(keep=[ids[-1]])
        assert set(report.deleted_sets) == set(ids[:-1])
        # The survivor still recovers byte-identically: shared chunks
        # were protected by its references.
        assert_states_equal(manager.recover_set(ids[-1]), sets[-1])
        assert manager.context.chunk_store().dead_bytes() == 0
        assert ArchiveFsck(manager.context).run(deep=True, recover=True).ok

    def test_gc_reclaims_exactly_zero_ref_bytes(self):
        for approach in APPROACHES:
            manager, ids, _sets = self.make_chain(approach)
            chunk_store = manager.context.chunk_store()
            # Predict: deleting everything but the leaf reclaims exactly
            # the chunks only the doomed sets reference.
            doomed_digests = set()
            keep_digests = set()
            for set_id in ids:
                doc = manager.context.document_store.peek(SETS_COLLECTION, set_id)
                matrix = set_owns(manager.context, set_id, doc).matrix
                target = keep_digests if set_id == ids[-1] else doomed_digests
                target.update(d for row in matrix for d in row)
            only_doomed = doomed_digests - keep_digests
            expected = sum(chunk_store.locate(d).length for d in only_doomed)
            survivor = manager.recover_set(ids[-1])
            chunk_bytes_before = chunk_store.stored_bytes()
            report = RetentionManager(manager.context).collect(keep=[ids[-1]])
            assert report.chunks_reclaimed == len(only_doomed), approach
            # Pack rewrites may add/remove artifact bytes, but the *chunk*
            # bytes fall by exactly the doomed-only chunks' length.
            assert chunk_store.stored_bytes() == chunk_bytes_before - expected, approach
            assert chunk_store.dead_bytes() == 0, approach
            assert report.bytes_reclaimed >= expected, approach
            assert manager.recover_set(ids[-1]).equals(survivor), approach

    def test_delete_everything_empties_the_store(self):
        manager, _ids, _sets = self.make_chain()
        report = RetentionManager(manager.context).collect(keep=[])
        assert manager.context.file_store.total_bytes() == 0
        assert len(manager.context.chunk_store()) == 0
        assert report.chunks_reclaimed > 0

    def test_keep_last_on_chunked_chain(self):
        manager, ids, sets = self.make_chain(cycles=3)
        report = RetentionManager(manager.context).keep_last(2)
        assert set(report.deleted_sets) == set(ids[:-2])
        assert_states_equal(manager.recover_set(ids[-1]), sets[-1])
        assert_states_equal(manager.recover_set(ids[-2]), sets[-2])


class TestPaperScenario:
    """The paper's default scenario on Baseline, dedup off vs on.

    U1 then three U3 cycles (5 % of models fully, 10 % partially
    updated) at 100 models on the archive profile. The time claim needs
    that scale: at 10 models the U3 saves are latency-bound and dedup
    makes them slower (0.83x); from about 20 models up it makes them
    faster.
    """

    @pytest.fixture(scope="class")
    def runs(self):
        config = ScenarioConfig(
            num_models=100, num_update_cycles=3, partial_update_fraction=0.10
        )
        cases = list(MultiModelScenario(config).use_cases())
        return {dedup: self.run(cases, dedup) for dedup in (False, True)}

    @staticmethod
    def run(cases, dedup):
        manager = MultiModelManager.with_approach(
            "baseline", ArchiveConfig(profile=ARCHIVE_PROFILE, dedup=dedup)
        )
        stores = (manager.context.file_store, manager.context.document_store)
        ids, u3_bytes, u3_simulated_s = [], 0, 0.0
        for case in cases:
            base_id = None if case.base_index is None else ids[case.base_index]
            bytes_before = stores[0].total_bytes()
            before = [store.stats.snapshot() for store in stores]
            ids.append(manager.save_set(case.model_set, base_set_id=base_id))
            if base_id is not None:
                u3_bytes += stores[0].total_bytes() - bytes_before
                for store, snapshot in zip(stores, before):
                    delta = store.stats.delta_since(snapshot)
                    u3_simulated_s += delta.simulated_write_s + delta.simulated_read_s
        return {
            "u3_bytes": u3_bytes,
            "total_bytes": stores[0].total_bytes(),
            "u3_simulated_s": u3_simulated_s,
            "recovered": manager.recover_set(ids[-1]),
        }

    def test_u3_parameter_bytes_fall_by_30_percent(self, runs):
        assert runs[True]["u3_bytes"] <= 0.7 * runs[False]["u3_bytes"]

    def test_archive_falls_by_30_percent(self, runs):
        assert runs[True]["total_bytes"] <= 0.7 * runs[False]["total_bytes"]

    def test_u3_simulated_tts_falls(self, runs):
        assert runs[True]["u3_simulated_s"] < runs[False]["u3_simulated_s"]

    def test_recovery_identical(self, runs):
        assert runs[True]["recovered"].equals(runs[False]["recovered"])


class TestChainSemantics:
    def test_chunked_sets_recover_in_one_hop(self):
        base = ModelSet.build("FFNN-48", num_models=3, seed=12)
        manager = MultiModelManager.with_approach("update", ArchiveConfig(dedup=True))
        base_id = manager.save_set(base)
        derived_id = manager.save_set(
            perturb(base, 0.3, seed=13), base_set_id=base_id
        )
        lineage = LineageGraph.from_context(manager.context)
        assert lineage.recovery_chain(derived_id) == [derived_id]
        assert lineage.chain_depth(derived_id) == 0
        # Lineage (provenance) is still recorded.
        assert lineage.base_of(derived_id) == base_id

    def test_compact_is_a_noop_for_chunked_sets(self):
        base = ModelSet.build("FFNN-48", num_models=3, seed=14)
        updated = perturb(base, 0.3, seed=15)
        manager = MultiModelManager.with_approach("update", ArchiveConfig(dedup=True))
        base_id = manager.save_set(base)
        derived_id = manager.save_set(updated, base_set_id=base_id)
        bytes_before = manager.context.file_store.total_bytes()
        RetentionManager(manager.context).compact(derived_id)
        assert manager.context.file_store.total_bytes() == bytes_before
        assert_states_equal(manager.recover_set(derived_id), updated)

    def test_non_dedup_derived_from_chunked_base_rejected(self):
        base = ModelSet.build("FFNN-48", num_models=3, seed=16)
        manager = MultiModelManager.with_approach("update", ArchiveConfig(dedup=True))
        base_id = manager.save_set(base)
        manager.context.dedup = False
        with pytest.raises(InvalidUpdatePlanError):
            manager.save_set(perturb(base, 0.3, seed=17), base_set_id=base_id)

    def test_update_dedup_hashes_double_as_digests(self):
        # Update's hash documents are the digest matrix: no chunk_digests
        # duplicate in the set descriptor.
        base = ModelSet.build("FFNN-48", num_models=3, seed=18)
        manager = MultiModelManager.with_approach("update", ArchiveConfig(dedup=True))
        set_id = manager.save_set(base)
        document = manager.set_info(set_id)
        assert document["storage"] == "chunked"
        assert "chunk_digests" not in document


class TestPersistentDedup:
    def test_reopened_archive_resumes_deduplicating(self, tmp_path):
        models = ModelSet.build("FFNN-48", num_models=4, seed=19)
        first = MultiModelManager.open(str(tmp_path), "baseline", ArchiveConfig(dedup=True))
        first_id = first.save_set(models)
        bytes_after_first = first.context.file_store.total_bytes()

        reopened = MultiModelManager.open(str(tmp_path), "baseline", ArchiveConfig(dedup=True))
        second_id = reopened.save_set(models)
        assert reopened.context.file_store.total_bytes() == bytes_after_first
        assert_states_equal(reopened.recover_set(second_id), models)
        assert_states_equal(reopened.recover_set(first_id), models)

    def test_stats_and_verifier_on_persistent_archive(self, tmp_path):
        models = ModelSet.build("FFNN-48", num_models=3, seed=20)
        manager = MultiModelManager.open(str(tmp_path), "baseline", ArchiveConfig(dedup=True))
        manager.save_set(models)
        manager.save_set(models)
        stats = manager.context.file_store.stats
        assert stats.chunks_deduped > 0
        assert 0.0 < stats.dedup_ratio < 1.0
        assert ArchiveFsck(manager.context).run(deep=True, recover=True).ok


class TestCli:
    def make_archive(self, tmp_path, cycles=2):
        manager = MultiModelManager.open(str(tmp_path), "baseline", ArchiveConfig(dedup=True))
        current = ModelSet.build("FFNN-48", num_models=3, seed=21)
        ids = [manager.save_set(current)]
        for cycle in range(cycles):
            current = perturb(current, fraction=0.3, seed=30 + cycle)
            ids.append(manager.save_set(current, base_set_id=ids[-1]))
        return ids

    def test_info_reports_chunk_stats(self, tmp_path, capsys):
        from repro.cli import main as archive_main

        self.make_archive(tmp_path)
        assert archive_main([str(tmp_path), "info"]) == 0
        out = capsys.readouterr().out
        assert "chunks:" in out and "dedup ratio" in out
        assert "reclaimable" in out

    def test_gc_reports_swept_chunks(self, tmp_path, capsys):
        from repro.cli import main as archive_main

        self.make_archive(tmp_path)
        assert archive_main([str(tmp_path), "gc", "--keep-last", "1"]) == 0
        out = capsys.readouterr().out
        assert "zero-reference chunks" in out
        assert archive_main([str(tmp_path), "verify", "--deep"]) == 0

    def test_migrate_dedup_flag(self, tmp_path, capsys):
        from repro.cli import main as archive_main

        source = tmp_path / "source"
        target = tmp_path / "target"
        manager = MultiModelManager.open(str(source), "baseline")
        models = ModelSet.build("FFNN-48", num_models=3, seed=22)
        first = manager.save_set(models)
        manager.save_set(models, base_set_id=first)
        assert (
            archive_main(
                [str(source), "migrate", str(target), "--target-approach",
                 "baseline", "--dedup"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "deduplicated" in out
        reopened = MultiModelManager.open(str(target), "baseline")
        recovered = reopened.recover_set(reopened.list_sets()[-1])
        assert_states_equal(recovered, models)
