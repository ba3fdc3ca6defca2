"""Acceptance matrix: kill or corrupt one replica at *every* operation.

With N=3 replicas and W=2/R=2 quorums, the archive must shrug off any
single-replica fault at any point: each sweep enumerates the mutating
operations one replica sees during a save (dry run), then replays the
save once per operation with that replica crashed (``down_at``) or its
write corrupted (``corrupt_at``) at exactly that point.  The save must
*succeed* — quorum semantics, not rollback — recovery must return the
saved bytes (failover reads), and after reviving the replica one
anti-entropy scrub must leave a deep fsck clean with every replica
byte-identical.

``REPRO_FAULT_SEED`` offsets the injector seeds (changing which outage
mode fires where) so CI sweeps more than one schedule.
"""

import json
import os
import shutil

import pytest

from repro.battery.datagen import CellDataConfig
from repro.config import ArchiveConfig
from repro.core.approach import SaveContext
from repro.core.fsck import ArchiveFsck, scrub_archive
from repro.core.manager import APPROACHES, MultiModelManager
from repro.core.model_set import ModelSet
from repro.core.save_info import ModelUpdate, UpdateInfo
from repro.datasets.battery import battery_dataset_ref
from repro.storage.faults import FaultInjector, inject_replica_faults
from repro.storage.hardware import SERVER_PROFILE
from repro.storage.journal import attach_journal
from repro.storage.replication import replicated_stores
from repro.training.pipeline import PipelineConfig, TrainingPipeline

NUM_MODELS = 3
NUM_REPLICAS = 3
FAULTY_REPLICA = 1
SEED_BASE = int(os.environ.get("REPRO_FAULT_SEED", "0"))
_DATA_CONFIG = CellDataConfig(seed=4, samples_per_cell=64, cycle_duration_s=64)
_PIPELINES = {
    "full": PipelineConfig(
        learning_rate=0.01, momentum=0.9, epochs=1, batch_size=32, shuffle_seed=8
    )
}


def base_models():
    return ModelSet.build("FFNN-48", num_models=NUM_MODELS, seed=0)


@pytest.fixture(scope="module")
def model_sets():
    """(base, derived-by-mutation, derived-by-training, update_info)."""
    models = base_models()
    mutated = models.copy()
    mutated.state(0)["0.bias"][:] += 1.0
    mutated.state(2)["4.weight"][:] *= 1.25

    info = UpdateInfo(
        pipelines=_PIPELINES,
        updates=(ModelUpdate(1, battery_dataset_ref(1, 1, _DATA_CONFIG), "full"),),
    )
    trained = models.copy()
    from repro.datasets.registry import default_registry

    registry = default_registry()
    for update in info.updates:
        model = trained.build_model(update.model_index)
        dataset = registry.resolve(update.dataset_ref)
        TrainingPipeline(info.pipelines[update.pipeline_key]).train(model, dataset)
        trained.states[update.model_index] = model.state_dict()
    return models, mutated, trained, info


def derived_args(approach, model_sets):
    """(derived set, update_info) appropriate for the approach."""
    _models, mutated, trained, info = model_sets
    if approach == "provenance":
        return trained, info
    return mutated, None


def make_manager(approach, dedup):
    context = SaveContext.create(ArchiveConfig(replicas=NUM_REPLICAS, dedup=dedup))
    attach_journal(context)
    return MultiModelManager.with_approach(approach, context=context)


def replica_document_trees(context):
    """Canonical encoding of each replica's whole document tree."""
    _file_rep, doc_rep = replicated_stores(context)
    return [
        json.dumps(state.store._collections, sort_keys=True)
        for state in doc_rep.replicas
    ]


def assert_replicas_identical(context):
    """Every replica holds the same artifacts and documents, byte for byte."""
    file_rep, _doc_rep = replicated_stores(context)
    reference = file_rep.replicas[0].store
    reference_ids = reference.ids()
    for state in file_rep.replicas[1:]:
        assert state.store.ids() == reference_ids, state.name
        for artifact in reference_ids:
            assert state.store.get(artifact) == reference.get(artifact), (
                state.name,
                artifact,
            )
    encoded = replica_document_trees(context)
    assert all(entry == encoded[0] for entry in encoded)


def count_faulty_replica_ops(approach, dedup, phase, model_sets):
    """Dry run: mutations the faulty replica sees during the target save."""
    models = model_sets[0]
    derived, info = derived_args(approach, model_sets)
    probe = make_manager(approach, dedup)
    probe_base = probe.save_set(models) if phase == "derived" else None
    injector = inject_replica_faults(
        probe.context, FAULTY_REPLICA, FaultInjector()
    )
    if phase == "initial":
        probe_id = probe.save_set(models)
    else:
        probe_id = probe.save_set(derived, base_set_id=probe_base, update_info=info)
    reference = probe.recover_set(probe_id)
    # Lossy approaches (fp16) don't round-trip the originals exactly, so
    # the oracle for the base set is a healthy-archive recovery, not the
    # in-memory models.
    base_reference = (
        probe.recover_set(probe_base) if probe_base is not None else None
    )
    return injector.ops, reference, base_reference


def run_sweep(approach, dedup, phase, model_sets, mode):
    """Fault replica-1 at every operation; each save must still land."""
    models = model_sets[0]
    derived, info = derived_args(approach, model_sets)
    ops, reference, base_reference = count_faulty_replica_ops(
        approach, dedup, phase, model_sets
    )
    assert ops > 0, f"{approach} {phase}: faulty replica saw no operations"

    for point in range(ops):
        manager = make_manager(approach, dedup)
        base_id = manager.save_set(models) if phase == "derived" else None
        fault = {mode: point}
        injector = inject_replica_faults(
            manager.context,
            FAULTY_REPLICA,
            FaultInjector(seed=SEED_BASE + point, **fault),
        )
        # The quorum absorbs the fault: the save SUCCEEDS.
        if phase == "initial":
            set_id = manager.save_set(models)
        else:
            set_id = manager.save_set(
                derived, base_set_id=base_id, update_info=info
            )
        # Recovery with the replica still faulty: reads fail over.
        assert manager.recover_set(set_id).equals(reference), (
            f"{mode} at op {point}: recovery diverged"
        )
        if base_id is not None:
            assert manager.recover_set(base_id).equals(base_reference)

        # Revive, scrub once, and demand full convergence.
        injector.revive()
        scrub = scrub_archive(manager.context, deep=True)
        assert scrub.exit_code in (0, 1) and scrub.converged, (
            f"{mode} at op {point}: {scrub.summary()}"
        )
        fsck = ArchiveFsck(manager.context).run(deep=True)
        assert fsck.ok, f"{mode} at op {point}: {fsck.summary()}"
        assert_replicas_identical(manager.context)
        assert manager.recover_set(set_id).equals(reference)


@pytest.mark.parametrize("approach", sorted(APPROACHES))
class TestReplicaDownMatrix:
    """One replica crashes (before/after/torn, seed-chosen) at every op."""

    def test_initial_save(self, approach, model_sets):
        run_sweep(approach, False, "initial", model_sets, mode="down_at")

    def test_derived_save(self, approach, model_sets):
        run_sweep(approach, False, "derived", model_sets, mode="down_at")


@pytest.mark.parametrize("approach", sorted(APPROACHES))
class TestReplicaCorruptionMatrix:
    """One replica's write is silently corrupted at every op."""

    def test_initial_save(self, approach, model_sets):
        run_sweep(approach, False, "initial", model_sets, mode="corrupt_at")


class TestDedupReplicaMatrix:
    """The chunked path (packs, refcounts) under the same single faults."""

    @pytest.mark.parametrize("mode", ["down_at", "corrupt_at"])
    def test_update_dedup_derived(self, model_sets, mode):
        run_sweep("update", True, "derived", model_sets, mode=mode)


class TestEveryReplicaIndex:
    """The fault tolerance is symmetric: killing any of the three
    replicas (including the preferred read replica 0) is absorbed."""

    @pytest.mark.parametrize("replica", range(NUM_REPLICAS))
    def test_kill_each_replica_mid_save(self, replica, model_sets):
        models = model_sets[0]
        manager = make_manager("baseline", False)
        injector = inject_replica_faults(
            manager.context,
            replica,
            FaultInjector(seed=SEED_BASE + replica, down_at=1),
        )
        set_id = manager.save_set(models)
        assert manager.recover_set(set_id).equals(models)
        injector.revive()
        assert scrub_archive(manager.context, deep=True).converged
        assert ArchiveFsck(manager.context).run(deep=True).ok
        assert_replicas_identical(manager.context)


    def test_degraded_save_lands_at_quorum_for_a_healthy_price(self, model_sets):
        """One replica down for a whole derived save: the save commits at
        W=2 and charges no more write time than a healthy save; reviving
        the replica, one deep scrub flushes its missed writes and a deep
        fsck is clean."""
        models, mutated = model_sets[0], model_sets[1]
        charges = []
        for down in (False, True):
            context = SaveContext.create(
                ArchiveConfig(profile=SERVER_PROFILE, replicas=NUM_REPLICAS)
            )
            attach_journal(context)
            manager = MultiModelManager.with_approach("update", context=context)
            base_id = manager.save_set(models)
            if down:
                injector = inject_replica_faults(
                    context, 1, FaultInjector(seed=SEED_BASE + 11, down_at=0)
                )
            file_rep, _ = replicated_stores(context)
            before = file_rep.stats.snapshot()
            set_id = manager.save_set(mutated, base_set_id=base_id)
            charges.append(file_rep.stats.delta_since(before).simulated_write_s)
            assert manager.recover_set(set_id).equals(mutated)
        assert charges[1] <= charges[0] * 1.01
        injector.revive()
        scrub = scrub_archive(context, deep=True)
        assert scrub.pending_flushed > 0 and scrub.converged
        assert ArchiveFsck(context).run(deep=True).ok


class TestPersistentReplicaMatrix:
    """Real process boundary: the degraded archive is reopened from disk
    (the topology auto-detected), recovered, scrubbed, and verified."""

    def test_down_replica_every_fault_point(self, tmp_path, model_sets):
        models, mutated = model_sets[0], model_sets[1]

        template = tmp_path / "template"
        manager = MultiModelManager.open(
            str(template), "update", ArchiveConfig(dedup=True, replicas=NUM_REPLICAS)
        )
        base_id = manager.save_set(models)

        probe_dir = tmp_path / "probe"
        shutil.copytree(template, probe_dir)
        probe = MultiModelManager.open(str(probe_dir), "update", ArchiveConfig(dedup=True))
        injector = inject_replica_faults(
            probe.context, FAULTY_REPLICA, FaultInjector()
        )
        probe_id = probe.save_set(mutated, base_set_id=base_id)
        reference = probe.recover_set(probe_id)
        ops = injector.ops
        assert ops > 0

        for point in range(ops):
            workdir = tmp_path / f"down-{point}"
            shutil.copytree(template, workdir)
            victim = MultiModelManager.open(str(workdir), "update", ArchiveConfig(dedup=True))
            inject_replica_faults(
                victim.context,
                FAULTY_REPLICA,
                FaultInjector(seed=SEED_BASE + point, down_at=point),
            )
            set_id = victim.save_set(mutated, base_set_id=base_id)
            assert victim.recover_set(set_id).equals(reference)

            # Reopen from disk: the revived replica is stale but present.
            reopened = MultiModelManager.open(str(workdir), "update", ArchiveConfig(dedup=True))
            assert sorted(reopened.list_sets()) == sorted([base_id, set_id])
            assert reopened.recover_set(set_id).equals(reference)
            assert reopened.recover_set(base_id).equals(models)
            scrub = scrub_archive(reopened.context, deep=True)
            assert scrub.converged, f"down at op {point}: {scrub.summary()}"
            fsck = ArchiveFsck(reopened.context).run(deep=True)
            assert fsck.ok, f"down at op {point}: {fsck.summary()}"
            assert_replicas_identical(reopened.context)
            shutil.rmtree(workdir)
