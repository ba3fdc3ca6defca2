"""Anti-entropy scrub tests plus the fsck/scrub CLI exit-code contract.

Exit codes are part of the operator interface: 0 clean, 1 repairable
issues (or issues that were just repaired), 2 unrecoverable loss.
"""

import pytest

from repro.cli import main as archive_main
from repro.config import ArchiveConfig
from repro.core.fsck import ArchiveFsck, scrub_archive
from repro.core.manager import MultiModelManager
from repro.core.model_set import ModelSet
from repro.storage.faults import (
    FaultInjector,
    corrupt_artifact,
    inject_replica_faults,
)
from repro.storage.replication import replicated_stores


def models(seed=0):
    return ModelSet.build("FFNN-48", num_models=2, seed=seed)


def open_replicated(directory, approach="baseline", **kwargs):
    return MultiModelManager.open(
        str(directory), approach, ArchiveConfig(replicas=3, **kwargs)
    )


class TestScrub:
    def test_non_replicated_context_is_clean_noop(self, tmp_path):
        manager = MultiModelManager.open(str(tmp_path), "baseline")
        manager.save_set(models())
        report = scrub_archive(manager.context)
        assert report.exit_code == 0 and not report.changed

    def test_converged_archive_scrubs_clean(self, tmp_path):
        manager = open_replicated(tmp_path)
        manager.save_set(models())
        report = scrub_archive(manager.context)
        assert report.exit_code == 0 and report.converged

    def test_scrub_converges_revived_replica(self, tmp_path):
        manager = open_replicated(tmp_path)
        set_id = manager.save_set(models())
        injector = inject_replica_faults(
            manager.context, 1, FaultInjector(seed=2, down_at=0)
        )
        second_id = manager.save_set(models(seed=1))
        injector.revive()
        report = scrub_archive(manager.context)
        assert report.exit_code == 1 and report.changed and report.converged
        # Idempotent: a second pass finds nothing.
        assert scrub_archive(manager.context).exit_code == 0
        fsck = ArchiveFsck(manager.context).run(deep=True)
        assert fsck.ok and fsck.exit_code == 0
        # Every replica now holds both sets, byte for byte.
        file_rep, _ = replicated_stores(manager.context)
        for state in file_rep.replicas:
            ids = state.store.ids()
            assert ids == file_rep.replicas[0].store.ids()
            for artifact in ids:
                assert state.store.verify_artifact(artifact)
        assert manager.recover_set(set_id).equals(models())
        assert manager.recover_set(second_id).equals(models(seed=1))

    def test_scrub_heals_single_corrupt_copy(self, tmp_path):
        manager = open_replicated(tmp_path)
        set_id = manager.save_set(models())
        file_rep, _ = replicated_stores(manager.context)
        artifact = file_rep.ids()[0]
        corrupt_artifact(file_rep.replicas[2].store, artifact)
        before = ArchiveFsck(manager.context).run(deep=True)
        assert before.exit_code == 1 and before.degraded_artifacts == [artifact]
        report = scrub_archive(manager.context)
        assert [(r, a) for r, a in report.artifacts_healed] == [
            ("replica-2", artifact)
        ]
        assert ArchiveFsck(manager.context).run(deep=True).exit_code == 0
        assert manager.recover_set(set_id).equals(models())

    def test_scrub_prunes_uncommitted_minority_write(self, tmp_path):
        manager = open_replicated(tmp_path)
        manager.save_set(models())
        file_rep, doc_rep = replicated_stores(manager.context)
        file_rep.replicas[0].store.put(b"junk", artifact_id="stray")
        doc_rep.replicas[0].store._write_raw("model_sets", "ghost", {"x": 1})
        report = scrub_archive(manager.context)
        assert ("replica-0", "stray") in report.artifacts_pruned
        assert report.documents_pruned == 1
        assert ArchiveFsck(manager.context).run(deep=True).exit_code == 0

    def test_scrub_reassembles_pack_from_complementary_damage(self, tmp_path):
        manager = open_replicated(tmp_path, approach="update", dedup=True)
        set_id = manager.save_set(models())
        file_rep, _ = replicated_stores(manager.context)
        chunk_store = manager.context.chunk_store()
        pack = chunk_store.locate(next(iter(chunk_store))).artifact_id
        # Damage every copy, but at different chunks: byte-complementary.
        length = file_rep.size(pack)
        corrupt_artifact(file_rep.replicas[0].store, pack, offset=0)
        corrupt_artifact(file_rep.replicas[1].store, pack, offset=length - 1)
        corrupt_artifact(file_rep.replicas[2].store, pack, offset=length - 1)
        report = scrub_archive(manager.context)
        assert report.packs_reassembled == [pack]
        assert report.exit_code == 1
        assert ArchiveFsck(manager.context).run(deep=True).exit_code == 0
        assert manager.recover_set(set_id).equals(models())

    def test_scrub_reports_unrecoverable_loss(self, tmp_path):
        manager = open_replicated(tmp_path)
        manager.save_set(models())
        file_rep, _ = replicated_stores(manager.context)
        artifact = file_rep.ids()[0]
        for state in file_rep.replicas:
            corrupt_artifact(state.store, artifact)
        report = scrub_archive(manager.context)
        assert report.exit_code == 2
        assert artifact in report.lost_artifacts

    def test_committed_state_survives_holder_outage_and_scrub(self, tmp_path):
        manager = open_replicated(tmp_path)
        # The save commits at W=2 on replicas 0 and 1: replica 2 is down.
        injector2 = inject_replica_faults(
            manager.context, 2, FaultInjector(seed=3, down_at=0, down_mode="before")
        )
        set_id = manager.save_set(models())
        injector2.revive()
        # Replica 2 revives from a transient blip (breaker closed, data
        # still divergent); replica 1 — an acker — goes down.
        file_rep, doc_rep = replicated_stores(manager.context)
        for state in (*file_rep.replicas, *doc_rep.replicas):
            state.breaker.open = False
            state.breaker.failures = 0
        injector1 = inject_replica_faults(
            manager.context, 1, FaultInjector(seed=4, down_at=0, down_mode="before")
        )
        second_id = manager.save_set(models(seed=1))  # trips the outage
        # W + R > N: the committed first set stays fully recoverable
        # from the surviving acker while replica 1 is down.
        assert manager.recover_set(set_id).equals(models())
        # Scrub in the degraded state must not mistake the committed
        # state for an uncommitted minority write: no pruning while any
        # replica is silent, and the data survives the pass.
        report = scrub_archive(manager.context)
        assert report.unreachable_replicas == ["replica-1"]
        assert report.documents_pruned == 0 and report.artifacts_pruned == []
        assert manager.recover_set(set_id).equals(models())
        # Once replica 1 is back, scrub converges everything — including
        # the revived replica's stale view — without losing either set.
        injector1.revive()
        assert scrub_archive(manager.context).exit_code == 1
        assert scrub_archive(manager.context).exit_code == 0
        assert ArchiveFsck(manager.context).run(deep=True).exit_code == 0
        assert manager.recover_set(set_id).equals(models())
        assert manager.recover_set(second_id).equals(models(seed=1))

    def test_lost_replica_directory_detected_and_healed(self, tmp_path):
        import shutil

        from repro.core.manager import MultiModelManager

        manager = open_replicated(tmp_path)
        set_id = manager.save_set(models())
        del manager
        # Lose replica-0 wholesale — the disk failure replication exists
        # to survive.  Auto-detection must still see the 3-way topology
        # (not reopen an empty single-backend archive) and report it
        # degraded until scrub restores the lost copies.
        shutil.rmtree(tmp_path / "replica-0")
        reopened = MultiModelManager.open(str(tmp_path), "baseline")
        assert ArchiveFsck(reopened.context).run(deep=True).exit_code == 1
        assert reopened.recover_set(set_id).equals(models())
        report = scrub_archive(reopened.context)
        assert report.exit_code == 1 and report.converged
        assert ArchiveFsck(reopened.context).run(deep=True).exit_code == 0
        assert reopened.recover_set(set_id).equals(models())

    def test_scrub_defers_while_replica_down(self, tmp_path):
        manager = open_replicated(tmp_path)
        manager.save_set(models())
        injector = inject_replica_faults(
            manager.context, 1, FaultInjector(seed=2, down_at=0)
        )
        manager.save_set(models(seed=1))
        report = scrub_archive(manager.context)
        assert report.exit_code == 1
        assert report.unreachable_replicas == ["replica-1"]
        injector.revive()
        assert scrub_archive(manager.context).exit_code == 1  # heals now
        assert scrub_archive(manager.context).exit_code == 0


class TestCliExitCodes:
    def test_fsck_clean_exits_zero(self, tmp_path):
        manager = open_replicated(tmp_path)
        manager.save_set(models())
        assert archive_main([str(tmp_path), "fsck", "--deep"]) == 0

    def test_fsck_degraded_exits_one(self, tmp_path, capsys):
        manager = open_replicated(tmp_path)
        manager.save_set(models())
        file_rep, _ = replicated_stores(manager.context)
        corrupt_artifact(file_rep.replicas[1].store, file_rep.ids()[0])
        assert archive_main([str(tmp_path), "fsck", "--deep"]) == 1
        assert "DEGRADED" in capsys.readouterr().out

    def test_fsck_loss_exits_two(self, tmp_path, capsys):
        manager = MultiModelManager.open(str(tmp_path), "baseline")
        manager.save_set(models())
        corrupt_artifact(
            manager.context.file_store, manager.context.file_store.ids()[0]
        )
        assert archive_main([str(tmp_path), "fsck", "--deep"]) == 2
        assert "CORRUPT" in capsys.readouterr().out

    def test_scrub_clean_exits_zero(self, tmp_path):
        manager = open_replicated(tmp_path)
        manager.save_set(models())
        assert archive_main([str(tmp_path), "scrub"]) == 0

    def test_scrub_repaired_exits_one_then_zero(self, tmp_path, capsys):
        manager = open_replicated(tmp_path)
        manager.save_set(models())
        file_rep, _ = replicated_stores(manager.context)
        corrupt_artifact(file_rep.replicas[0].store, file_rep.ids()[0])
        assert archive_main([str(tmp_path), "scrub"]) == 1
        assert "HEALED" in capsys.readouterr().out
        assert archive_main([str(tmp_path), "scrub"]) == 0
        assert archive_main([str(tmp_path), "fsck", "--deep"]) == 0

    def test_scrub_loss_exits_two(self, tmp_path, capsys):
        manager = open_replicated(tmp_path)
        manager.save_set(models())
        file_rep, _ = replicated_stores(manager.context)
        artifact = file_rep.ids()[0]
        for state in file_rep.replicas:
            corrupt_artifact(state.store, artifact)
        assert archive_main([str(tmp_path), "scrub"]) == 2
        assert "LOST" in capsys.readouterr().out

    def test_replicated_archive_autodetected_by_cli(self, tmp_path, capsys):
        manager = open_replicated(tmp_path)
        manager.save_set(models())
        # Topology is auto-detected from the replica-<i> layout; quorum
        # knobs are per-invocation flags.
        assert archive_main([str(tmp_path), "info"]) == 0
        assert "3 replicas, W=2 R=2" in capsys.readouterr().out
        assert archive_main([str(tmp_path), "--write-quorum", "3", "info"]) == 0
        assert "W=3" in capsys.readouterr().out
