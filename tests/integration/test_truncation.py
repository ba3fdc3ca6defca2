"""A chunk pack cut short is a typed failure, never a bare ``ValueError``.

A durable ``dedup=True`` archive holds one 3-model FFNN-48 set; its pack
is cut to half its size and the archive reopened.  Every entry point
then either returns the right bytes or raises a
:class:`~repro.errors.ReproError` subclass with the CLI's exit 2, and a
shallow ``fsck`` names the pack from sizes alone.  With three replicas
one short copy is served around; every copy short is the plain case.

Cut under the engine that wrote it (no reopen, so the store still
remembers the old size), a pack or delta fails its read with the same
:class:`~repro.errors.ArtifactTruncatedError`, one short replica is
served around with a repair queued and no breaker penalty, and a shallow
``fsck`` still names the pack from the sizes on disk.
"""

import contextlib
import io
import os
import shutil

import numpy as np
import pytest

from repro.config import ArchiveConfig
from repro.core.approach import SETS_COLLECTION
from repro.core.fsck import ArchiveFsck, salvage_recover
from repro.core.manager import MultiModelManager
from repro.core.model_set import ModelSet
from repro.core.recovery import ChainMemo
from repro.cli.archive import _print_audit
from repro.cli.main import main
from repro.errors import ArtifactTruncatedError, ReproError

PACK = "set-update-000000-chunks"


def build_archive(root, replicas):
    """Save the one set at ``root``; returns the engine and the models."""
    models = ModelSet.build("FFNN-48", num_models=3, seed=0)
    manager = MultiModelManager.open(root, "update", config(replicas))
    assert manager.save_set(models) == "set-update-000000"
    return manager, models


def config(replicas):
    return ArchiveConfig(dedup=True, replicas=replicas)


def cut(root, directories):
    for directory in directories:
        path = os.path.join(root, directory, "artifacts", f"{PACK}.bin")
        os.truncate(path, os.path.getsize(path) // 2)


def run_cli(*argv):
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(
        io.StringIO()
    ) as err:
        code = main([str(arg) for arg in argv])
    return code, out.getvalue() + err.getvalue()


@pytest.fixture(scope="module")
def short_plain(tmp_path_factory):
    root = tmp_path_factory.mktemp("short-plain")
    _manager, models = build_archive(root, replicas=1)
    cut(root, [""])
    return root, models


@pytest.fixture(scope="module")
def replicated(tmp_path_factory):
    """``{copies cut: root}`` of two replicas=3 archives."""
    roots = {}
    for copies in (1, 3):
        root = tmp_path_factory.mktemp(f"short-{copies}-of-3")
        _manager, models = build_archive(root, replicas=3)
        cut(root, [f"replica-{index}" for index in range(copies)])
        roots[copies] = root
    return roots, models


class TestShortPack:
    @pytest.mark.parametrize(
        "read",
        [
            lambda manager: manager.recover_set("set-update-000000"),
            lambda manager: manager.recover_model("set-update-000000", 2),
        ],
        ids=["recover_set", "recover_model"],
    )
    def test_reads_raise_the_typed_error(self, short_plain, read):
        root, _models = short_plain
        manager = MultiModelManager.open(root, "update", config(1))
        with pytest.raises(ArtifactTruncatedError, match=PACK) as info:
            read(manager)
        assert isinstance(info.value, ReproError)
        assert info.value.artifact_id == PACK and info.value.size < info.value.end

    def test_export_exits_2_naming_the_pack(self, short_plain, tmp_path):
        root, _models = short_plain
        code, output = run_cli(root, "export", "set-update-000000", tmp_path / "bundle")
        assert code == 2
        assert f"artifact {PACK!r} is truncated" in output

    def test_shallow_fsck_reports_the_short_pack(self, short_plain):
        root, _models = short_plain
        report = ArchiveFsck(MultiModelManager.open(root, "update", config(1)).context).run()
        [entry] = report.short_packs
        assert entry["artifact"] == PACK and entry["size"] * 2 == entry["needs"]
        assert report.exit_code == 2
        code, output = run_cli(root, "fsck")
        assert code == 2 and f"SHORT-PACK {PACK}" in output

    def test_salvage_keeps_the_model_before_the_cut(self, short_plain, tmp_path):
        root, models = short_plain
        shutil.copytree(root, tmp_path / "copy")  # salvage quarantines what it loses
        manager = MultiModelManager.open(tmp_path / "copy", "update", config(1))
        report = salvage_recover(manager.context, "set-update-000000")
        assert report.recovered_indices == [0] and report.failed_indices == [1, 2]
        for name, value in models.state(0).items():
            assert (report.models[0][name] == value).all()


class TestReplicatedShortPack:
    def test_one_short_copy_is_served_around(self, replicated):
        roots, models = replicated
        manager = MultiModelManager.open(roots[1], "update", config(3))
        assert manager.recover_set("set-update-000000").equals(models)
        state = manager.recover_model("set-update-000000", 2)
        for name, value in models.state(2).items():
            assert (state[name] == value).all()
        assert ArchiveFsck(manager.context).run().short_packs == []
        deep = ArchiveFsck(manager.context).run(deep=True)
        assert deep.degraded_artifacts == [PACK] and deep.exit_code == 1

    def test_every_copy_short_is_the_plain_failure(self, replicated):
        roots, _models = replicated
        manager = MultiModelManager.open(roots[3], "update", config(3))
        with pytest.raises(ReproError, match=PACK):
            manager.recover_set("set-update-000000")
        report = ArchiveFsck(manager.context).run()
        assert [entry["artifact"] for entry in report.short_packs] == [PACK]
        assert report.exit_code == 2


def same_state(state, expected) -> bool:
    return all((state[name] == value).all() for name, value in expected.items())


class TestCutUnderALiveEngine:
    """No reopen: the store still remembers each artifact's old size."""

    @pytest.mark.parametrize(
        "read",
        [
            lambda manager: manager.recover_set("set-update-000000"),
            lambda manager: manager.recover_model("set-update-000000", 2),
        ],
        ids=["recover_set", "recover_model"],
    )
    def test_a_cut_pack_raises_the_typed_error(self, tmp_path, read):
        manager, _models = build_archive(tmp_path, replicas=1)
        cut(tmp_path, [""])
        with pytest.raises(ArtifactTruncatedError, match=PACK) as info:
            read(manager)
        assert info.value.artifact_id == PACK and info.value.size < info.value.end

    def test_a_warm_model_read_of_a_cut_delta_raises_the_typed_error(self, tmp_path):
        manager = MultiModelManager.open(tmp_path, "update", ArchiveConfig())
        models = ModelSet.build("FFNN-48", num_models=3, seed=0)
        base_id = manager.save_set(models)
        derived = models.copy()
        for model in (1, 2):  # model 2's segments close the delta's blob
            state = derived.state(model)
            for name in state:
                state[name] = (state[name] + np.float32(1)).astype(np.float32)
        head = manager.save_set(derived, base_set_id=base_id)
        assert same_state(manager.recover_model(head, 2), derived.state(2))
        held = manager.context.document_store.peek(SETS_COLLECTION, head)
        assert held.derived(ChainMemo).table is not None  # the read is warm

        delta = held["params_artifact"]
        path = tmp_path / "artifacts" / f"{delta}.bin"
        os.truncate(path, os.path.getsize(path) // 2)
        with pytest.raises(ArtifactTruncatedError, match=delta) as info:
            manager.recover_model(head, 2)
        assert info.value.size == os.path.getsize(path) < info.value.end

    def test_one_cut_copy_is_served_around_and_repaired(self, tmp_path):
        manager, models = build_archive(tmp_path, replicas=3)
        cut(tmp_path, ["replica-0"])  # the copy a read tries first
        assert manager.recover_set("set-update-000000").equals(models)
        assert same_state(manager.recover_model("set-update-000000", 2), models.state(2))
        store = manager.context.file_store
        assert store.pending_repairs() == {"replica-0": {PACK: "put"}}
        assert store.replicas[0].breaker.failures == 0

    @pytest.mark.parametrize(
        "replicas, copies",
        [(1, [""]), (3, ["replica-0", "replica-1", "replica-2"])],
        ids=["plain", "every-copy"],
    )
    def test_shallow_fsck_sees_the_cut_without_a_reopen(self, tmp_path, replicas, copies):
        # The store's remembered sizes still say whole; the size rule
        # asks each backend what it holds now.
        manager, _models = build_archive(tmp_path, replicas)
        cut(tmp_path, copies)
        report = ArchiveFsck(manager.context).run()
        [entry] = report.short_packs
        assert entry["artifact"] == PACK and entry["size"] * 2 == entry["needs"]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = _print_audit(report, "clean")
        assert code == 2 and f"SHORT-PACK {PACK}" in out.getvalue()
        assert manager.context.file_store.size(PACK) == entry["needs"]  # reads: unchanged

    @pytest.mark.parametrize(
        "replicas, copies",
        [(1, [""]), (3, ["replica-0", "replica-1", "replica-2"])],
        ids=["plain", "every-copy"],
    )
    def test_shallow_fsck_sees_a_delta_cut_without_a_reopen(self, tmp_path, replicas, copies):
        # An uncompressed Update delta: its size rule reads the backends
        # as the short-pack rule does, not the size remembered at write.
        manager = MultiModelManager.open(tmp_path, "update", ArchiveConfig(replicas=replicas))
        models = ModelSet.build("FFNN-48", num_models=3, seed=0)
        base_id = manager.save_set(models)
        derived = models.copy()
        state = derived.state(1)
        for name in state:
            state[name] = (state[name] + np.float32(1)).astype(np.float32)
        head = manager.save_set(derived, base_set_id=base_id)
        delta = manager.set_info(head)["params_artifact"]
        whole = manager.context.file_store.size(delta)
        for directory in copies:
            os.truncate(os.path.join(tmp_path, directory, "artifacts", f"{delta}.bin"), whole // 2)
        report = ArchiveFsck(manager.context).run()
        [issue] = report.set_issues
        assert issue.set_id == head and issue.kind == "diff-mismatch"
        assert issue.detail.startswith(f"delta blob has {whole // 2} bytes")
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = _print_audit(report, "clean")
        assert code == 2 and "diff-mismatch" in out.getvalue()
        assert manager.context.file_store.size(delta) == whole  # reads: unchanged
