"""Tests of archive fsck and corruption-tolerant (salvage) recovery."""

import numpy as np
import pytest

from repro.config import ArchiveConfig
from repro.core.approach import SETS_COLLECTION, SaveContext
from repro.core.recovery import stored_digests
from repro.core.fsck import ArchiveFsck, SalvageReport, salvage_recover
from repro.core.manager import MultiModelManager
from repro.core.model_set import ModelSet
from repro.errors import DocumentNotFoundError, SimulatedCrashError
from repro.nn.serialization import StateSchema
from repro.storage.faults import corrupt_artifact
from repro.storage.document_store import thaw
from repro.storage.journal import JOURNAL_COLLECTION, attach_journal, innermost


def make_manager(approach, dedup=False):
    context = SaveContext.create(ArchiveConfig(dedup=dedup))
    return MultiModelManager.with_approach(approach, context=context)


def models_fixture(num=4):
    return ModelSet.build("FFNN-48", num_models=num, seed=0)


def unique_digest_of_model(context, set_id, model_index):
    """A chunk digest referenced only by one model of one chunked set."""
    store = context.document_store
    matrices = {
        sid: stored_digests(context, doc, sid).rows
        for sid, doc in store._collections[SETS_COLLECTION].items()
        if doc.get("storage") == "chunked"
    }
    others = {
        digest
        for sid, matrix in matrices.items()
        for row_index, row in enumerate(matrix)
        for digest in row
        if not (sid == set_id and row_index == model_index)
    }
    candidates = [
        digest
        for digest in matrices[set_id][model_index]
        if digest not in others
    ]
    assert candidates, "no chunk unique to the target model"
    return candidates[0]


def corrupt_chunk(context, digest):
    chunk = context.chunk_store().locate(digest)
    corrupt_artifact(context.file_store, chunk.artifact_id, offset=chunk.offset)
    context._invalidate_chunk_store()


class TestFsckClean:
    @pytest.mark.parametrize("dedup", [False, True])
    def test_clean_archive_is_ok(self, dedup):
        manager = make_manager("update", dedup=dedup)
        models = models_fixture()
        base = manager.save_set(models)
        derived = models.copy()
        derived.state(0)["0.bias"][:] += 1.0
        manager.save_set(derived, base_set_id=base)
        report = ArchiveFsck(manager.context).run(deep=True)
        assert report.ok
        assert report.sets_checked == 2
        assert report.artifacts_checked > 0
        assert report.summary().startswith("clean")

    @pytest.mark.parametrize("replicas", [None, 3])
    def test_audits_charge_no_document_read(self, replicas):
        """fsck peeks: what a chunked set owns, and every set's own
        checks, are read uncharged like the rest of the audit."""

        manager = MultiModelManager.with_approach(
            "update", ArchiveConfig(dedup=True, replicas=replicas)
        )
        models = models_fixture()
        base = manager.save_set(models)
        derived = models.copy()
        derived.state(0)["0.bias"][:] += 1.0
        manager.save_set(derived, base_set_id=base)
        stats = manager.context.document_store.stats
        before = stats.snapshot()
        assert ArchiveFsck(manager.context).run(deep=True).ok
        assert stats.snapshot() == before


class TestFsckFindings:
    def test_orphan_artifact(self):
        manager = make_manager("baseline")
        manager.save_set(models_fixture())
        manager.context.file_store.put(b"\x00" * 64, artifact_id="stray")
        report = ArchiveFsck(manager.context).run()
        assert report.orphan_artifacts == ["stray"]
        assert not report.ok
        assert "orphan" in report.summary()

    def test_missing_artifact(self):
        manager = make_manager("baseline")
        set_id = manager.save_set(models_fixture())
        artifact = manager.set_info(set_id)["params_artifact"]
        innermost(manager.context.file_store).delete(artifact)
        report = ArchiveFsck(manager.context).run()
        assert report.missing_artifacts == [
            {"set_id": set_id, "artifact": artifact}
        ]

    def test_pending_journal_entry(self):
        manager = make_manager("baseline")
        manager.save_set(models_fixture())
        innermost(manager.context.document_store)._write_raw(
            JOURNAL_COLLECTION, "txn-000042", {"status": "pending", "ops": []}
        )
        report = ArchiveFsck(manager.context).run()
        assert report.pending_journal == ["txn-000042"]

    def test_pending_journal_lists_entries_not_op_records(self):
        context = SaveContext.create()
        attach_journal(context)
        manager = MultiModelManager.with_approach("baseline", context=context)
        manager.save_set(models_fixture())
        with pytest.raises(SimulatedCrashError):
            with manager.context.save_transaction("save", "baseline"):
                manager.context.file_store.put(b"a", artifact_id="torn-a")
                manager.context.file_store.put(b"b", artifact_id="torn-b")
                raise SimulatedCrashError("kill -9")
        report = ArchiveFsck(manager.context).run()
        assert report.pending_journal == ["txn-000001"]

    def test_refcount_mismatch(self):
        manager = make_manager("update", dedup=True)
        set_id = manager.save_set(models_fixture())
        digest = unique_digest_of_model(manager.context, set_id, 0)
        manager.context.chunk_store().release([digest])
        report = ArchiveFsck(manager.context).run()
        assert any(
            entry["digest"] == digest and entry["actual"] == entry["expected"] - 1
            for entry in report.refcount_mismatches
        )

    def test_deep_scan_flags_corrupt_artifact(self):
        manager = make_manager("baseline")
        set_id = manager.save_set(models_fixture())
        artifact = manager.set_info(set_id)["params_artifact"]
        corrupt_artifact(manager.context.file_store, artifact, offset=10)
        assert ArchiveFsck(manager.context).run().ok  # shallow: undetected
        report = ArchiveFsck(manager.context).run(deep=True)
        assert report.corrupt_artifacts == [artifact]

    def test_deep_scan_flags_corrupt_chunk(self):
        manager = make_manager("update", dedup=True)
        set_id = manager.save_set(models_fixture())
        digest = unique_digest_of_model(manager.context, set_id, 1)
        corrupt_chunk(manager.context, digest)
        report = ArchiveFsck(manager.context).run(deep=True)
        assert report.corrupt_chunks == [digest]
        # The deep scan only reports; nothing was quarantined.
        assert report.quarantined_chunks == []

    def test_quarantined_chunks_reported(self):
        manager = make_manager("update", dedup=True)
        set_id = manager.save_set(models_fixture())
        digest = unique_digest_of_model(manager.context, set_id, 1)
        manager.context.chunk_store().quarantine([digest])
        report = ArchiveFsck(manager.context).run()
        assert report.quarantined_chunks == [digest]


class TestTruncatedPack:
    """A pack cut short before a reopen on a plain durable dedup archive:
    its ranges past the end are unreadable chunks, reported, not raised."""

    def test_deep_fsck_and_salvage_report_the_lost_half(self, tmp_path):
        root = str(tmp_path / "archive")
        manager = MultiModelManager.open(root, "update", ArchiveConfig(dedup=True))
        models = models_fixture(3)
        set_id = manager.save_set(models)
        chunk_store = manager.context.chunk_store()
        located = {digest: chunk_store.locate(digest) for digest in chunk_store}
        [pack] = {location.artifact_id for location in located.values()}
        path = tmp_path / "archive" / "artifacts" / f"{pack}.bin"
        cut = path.stat().st_size // 2
        with open(path, "r+b") as handle:
            handle.truncate(cut)
        lost = sorted(d for d, (_, offset, length) in located.items() if offset + length > cut)
        assert 0 < len(lost) < len(located)

        reopened = MultiModelManager.open(root, "update", ArchiveConfig(dedup=True))
        report = ArchiveFsck(reopened.context).run(deep=True)
        assert report.corrupt_chunks == lost
        salvage = salvage_recover(reopened.context, set_id)
        assert salvage.corrupt_chunks == lost
        # Models are packed in order: the first lies wholly before the cut.
        assert 0 in salvage.recovered_indices and salvage.failed_indices
        for index in salvage.recovered_indices:
            for name, value in models.state(index).items():
                assert np.array_equal(salvage.models[index][name], value)


def edit_descriptor(manager, set_id, **fields):
    store = manager.context.document_store
    document = thaw(store.peek(SETS_COLLECTION, set_id))
    document.update(fields)
    store.replace(SETS_COLLECTION, set_id, document)


def edit_artifact(manager, set_id, change):
    artifact = manager.set_info(set_id)["params_artifact"]
    blobs = innermost(manager.context.file_store)._blobs
    blobs[artifact] = change(blobs[artifact])


def truncate_full(manager, ids):
    edit_artifact(manager, ids[0], lambda blob: blob[:-100])


def pad_delta(manager, ids):
    edit_artifact(manager, ids[1], lambda blob: blob + b"\0" * 4)


def flip_byte(manager, ids):
    edit_artifact(manager, ids[0], lambda blob: blob[:64] + bytes([blob[64] ^ 0xFF]) + blob[65:])


def drop_base(manager, ids):
    manager.context.document_store.delete(SETS_COLLECTION, ids[0])


def forget_model_document(manager, ids):
    model_id = manager.set_info(ids[0])["model_ids"][0]
    manager.context.document_store.delete("mmlib_models", model_id)


def drop_chunk_digests(manager, ids):
    document = thaw(manager.context.document_store.peek(SETS_COLLECTION, ids[0]))
    del document["chunk_digests"]
    manager.context.document_store.replace(SETS_COLLECTION, ids[0], document)


def miscount(manager, ids):
    edit_descriptor(manager, ids[0], num_models=99)


def unknown_chunk(manager, ids):
    matrix = [list(row) for row in manager.set_info(ids[0])["chunk_digests"]]
    matrix[0][0] = "f" * 64
    edit_descriptor(manager, ids[0], chunk_digests=matrix)


def unknown_type(manager, ids):
    edit_descriptor(manager, ids[0], type="bogus")


#: (kind, approach, dedup, damage, recover): each per-set kind of the audit.
SET_ISSUE_CASES = [
    ("length-mismatch", "update", False, truncate_full, False),
    ("diff-mismatch", "update", False, pad_delta, False),
    ("broken-chain", "update", False, drop_base, False),
    ("missing-model-doc", "mmlib-base", False, forget_model_document, False),
    ("missing-chunk-digests", "baseline", True, drop_chunk_digests, False),
    ("count-mismatch", "baseline", True, miscount, False),
    ("missing-chunk", "baseline", True, unknown_chunk, False),
    ("unknown-approach", "baseline", False, unknown_type, False),
    ("unrecoverable", "update", False, drop_base, True),
    ("hash-mismatch", "update", False, flip_byte, True),
]


class TestSetIssues:
    @pytest.mark.parametrize(
        "kind, approach, dedup, damage, recover",
        SET_ISSUE_CASES,
        ids=[case[0] for case in SET_ISSUE_CASES],
    )
    def test_each_kind_is_loss(self, kind, approach, dedup, damage, recover):
        manager = make_manager(approach, dedup=dedup)
        models = models_fixture()
        ids = [manager.save_set(models)]
        derived = models.copy()
        derived.state(0)["0.bias"][:] += 1.0
        ids.append(manager.save_set(derived, base_set_id=ids[0]))
        assert ArchiveFsck(manager.context).run(recover=True).ok
        damage(manager, ids)
        report = ArchiveFsck(manager.context).run(recover=recover)
        assert kind in {issue.kind for issue in report.set_issues}
        assert report.exit_code == 2
        assert "set issues" in report.summary()
        if recover:
            shallow = ArchiveFsck(manager.context).run()
            assert kind not in {issue.kind for issue in shallow.set_issues}

    def test_salvage_and_recover_share_the_hash_check(self):
        manager = make_manager("update")
        set_id = manager.save_set(models_fixture())
        flip_byte(manager, [set_id])
        (issue,) = ArchiveFsck(manager.context).run(recover=True).set_issues
        salvage = salvage_recover(manager.context, set_id)
        assert issue.detail.startswith(f"model(s) {salvage.failed_indices[0]}:")
        assert salvage.recovered_indices == [1, 2, 3]

    def test_a_wide_digest_row_is_a_finding(self):
        # Indexed layer by layer, a row longer than the schema raised IndexError.
        manager = make_manager("baseline", dedup=True)
        set_id = manager.save_set(models_fixture(3))
        matrix = [list(row) for row in manager.set_info(set_id)["chunk_digests"]]
        matrix[0].append(matrix[0][0])
        edit_descriptor(manager, set_id, chunk_digests=matrix)
        report = ArchiveFsck(manager.context).run()
        (issue,) = report.set_issues
        assert issue.kind == "count-mismatch" and "widths [8, 9]" in issue.detail
        assert report.exit_code == 2

    def test_a_short_hash_matrix_verifies_no_model(self):
        # Indexed row by row, a matrix short of a model raised IndexError.
        manager = make_manager("update")
        set_id = manager.save_set(models_fixture())
        store = manager.context.document_store
        hash_info = thaw(store.peek("hash_info", set_id))
        hash_info["hashes"].pop()
        store.replace("hash_info", set_id, hash_info)
        (issue,) = ArchiveFsck(manager.context).run(recover=True).set_issues
        assert issue.kind == "hash-mismatch" and issue.detail.startswith("model(s) 0, 1, 2, 3:")
        assert salvage_recover(manager.context, set_id).failed_indices == [0, 1, 2, 3]


class TestSalvageChunked:
    def test_single_corrupt_chunk_loses_exactly_one_model(self):
        manager = make_manager("update", dedup=True)
        models = models_fixture()
        base = manager.save_set(models)
        derived = models.copy()
        derived.state(1)["0.weight"][:] *= 1.5
        derived_id = manager.save_set(derived, base_set_id=base)

        digest = unique_digest_of_model(manager.context, derived_id, 1)
        corrupt_chunk(manager.context, digest)

        report = manager.recover_set(derived_id, salvage=True)
        assert isinstance(report, SalvageReport)
        assert report.failed_indices == [1]
        assert report.failed[0]["reason"] == "1 corrupt chunk(s)"
        assert report.failed[0]["digests"] == [digest[:16]]
        assert report.recovered_indices == [0, 2, 3]
        assert report.corrupt_chunks == [digest]
        for index in report.recovered_indices:
            for name, value in derived.state(index).items():
                assert np.array_equal(report.models[index][name], value)
        # The damage was confined to the derived set: the base still
        # recovers completely (its chunks predate the mutation).
        base_report = manager.recover_set(base, salvage=True)
        assert base_report.complete

    def test_corrupt_chunk_is_quarantined_for_fsck(self):
        manager = make_manager("update", dedup=True)
        set_id = manager.save_set(models_fixture())
        digest = unique_digest_of_model(manager.context, set_id, 2)
        corrupt_chunk(manager.context, digest)
        manager.recover_set(set_id, salvage=True)
        report = ArchiveFsck(manager.context).run()
        assert report.quarantined_chunks == [digest]

    def test_repair_from_full_replica(self):
        # The same layer bytes live both as a chunk (dedup save) and
        # inside a full artifact with hash info (plain Update save):
        # salvage heals the chunk from the replica instead of failing.
        context = SaveContext.create(ArchiveConfig(dedup=True))
        manager = MultiModelManager.with_approach("update", context=context)
        models = models_fixture()
        chunked_id = manager.save_set(models)
        context.dedup = False
        full_id = manager.save_set(models.copy())

        digest = unique_digest_of_model(context, chunked_id, 1)
        corrupt_chunk(context, digest)

        report = manager.recover_set(chunked_id, salvage=True)
        assert report.complete
        assert report.repaired_chunks == [digest]
        assert report.corrupt_chunks == []
        for index in range(len(models)):
            for name, value in models.state(index).items():
                assert np.array_equal(report.models[index][name], value)
        # After the repair the plain recovery path works again too.
        assert manager.recover_set(chunked_id).equals(models)
        assert manager.recover_set(full_id).equals(models)
        assert ArchiveFsck(context).run(deep=True).ok

    def test_unknown_set_raises(self):
        manager = make_manager("update", dedup=True)
        with pytest.raises(DocumentNotFoundError):
            manager.recover_set("set-update-000099", salvage=True)


class TestSalvageMMlib:
    def test_damage_is_isolated_per_model(self):
        manager = make_manager("mmlib-base")
        models = models_fixture(num=3)
        set_id = manager.save_set(models)
        document = manager.set_info(set_id)
        victim = document["model_ids"][1]
        artifact = manager.context.document_store.get("mmlib_models", victim)[
            "params_artifact"
        ]
        corrupt_artifact(manager.context.file_store, artifact, offset=40)

        report = manager.recover_set(set_id, salvage=True)
        assert report.failed_indices == [1]
        assert "checksum" in report.failed[0]["reason"]
        assert report.recovered_indices == [0, 2]
        for index in report.recovered_indices:
            for name, value in models.state(index).items():
                assert np.array_equal(report.models[index][name], value)


class TestSalvageArtifactBased:
    def test_update_hash_info_isolates_the_damaged_model(self):
        manager = make_manager("update")
        models = models_fixture()
        set_id = manager.save_set(models)
        document = manager.set_info(set_id)
        schema = StateSchema.from_json(document["schema"])
        corrupt_artifact(
            manager.context.file_store,
            document["params_artifact"],
            offset=1 * schema.num_bytes + 8,  # inside model 1's region
        )
        report = manager.recover_set(set_id, salvage=True)
        assert report.failed_indices == [1]
        assert "hash info" in report.failed[0]["reason"]
        assert report.recovered_indices == [0, 2, 3]

    def test_baseline_without_hashes_fails_conservatively(self):
        manager = make_manager("baseline")
        models = models_fixture(num=3)
        set_id = manager.save_set(models)
        corrupt_artifact(
            manager.context.file_store,
            manager.set_info(set_id)["params_artifact"],
            offset=5,
        )
        report = manager.recover_set(set_id, salvage=True)
        assert report.failed_indices == [0, 1, 2]
        assert report.models == {}
        assert "no per-model hashes" in report.failed[0]["reason"]

    def test_clean_set_salvages_completely(self):
        manager = make_manager("baseline")
        models = models_fixture(num=3)
        set_id = manager.save_set(models)
        report = salvage_recover(manager.context, set_id)
        assert report.complete
        assert report.recovered_indices == [0, 1, 2]


class TestCLI:
    def _build_archive(self, directory, approach="mmlib-base"):
        manager = MultiModelManager.open(str(directory), approach)
        models = models_fixture(num=3)
        set_id = manager.save_set(models)
        return manager, models, set_id

    def test_fsck_clean_exits_zero(self, tmp_path, capsys):
        from repro.cli import main

        self._build_archive(tmp_path)
        assert main([str(tmp_path), "fsck", "--deep"]) == 0
        assert "archive is consistent" in capsys.readouterr().out

    def test_fsck_reports_corruption(self, tmp_path, capsys):
        from repro.cli import main

        manager, _models, set_id = self._build_archive(tmp_path)
        victim = manager.set_info(set_id)["model_ids"][0]
        artifact = manager.context.document_store.get("mmlib_models", victim)[
            "params_artifact"
        ]
        corrupt_artifact(manager.context.file_store, artifact, offset=16)
        # Corruption with no intact replica is unrecoverable loss: exit 2.
        assert main([str(tmp_path), "fsck", "--deep"]) == 2
        assert "CORRUPT" in capsys.readouterr().out

    def test_set_issue_lines_and_verify_exit(self, tmp_path, capsys):
        from pathlib import Path

        from repro.cli import main

        manager = MultiModelManager.open(str(tmp_path), "update")
        models = models_fixture()
        base = manager.save_set(models)
        derived = models.copy()
        derived.state(0)["0.bias"][:] += 1.0
        delta = manager.save_set(derived, base_set_id=base)
        (blob,) = Path(tmp_path, "artifacts").glob(f"{delta}-*.bin")
        blob.write_bytes(blob.read_bytes() + b"\0" * 4)
        assert main([str(tmp_path), "fsck"]) == 2
        out = capsys.readouterr().out
        assert "ISSUES: 1 set issues" in out
        assert f"ISSUE [diff-mismatch] {delta}: delta blob has" in out
        # verify prints the same report and keeps its 0/1 exit.
        assert main([str(tmp_path), "verify"]) == 1
        assert capsys.readouterr().out == out

    def test_fsck_reports_orphans(self, tmp_path, capsys):
        from repro.cli import main

        manager, _models, _set_id = self._build_archive(tmp_path)
        manager.context.file_store.put(b"\x00" * 32, artifact_id="stray")
        assert main([str(tmp_path), "fsck"]) == 1
        assert "ORPHAN stray" in capsys.readouterr().out

    def test_export_salvage_skips_damaged_models(self, tmp_path, capsys):
        from repro.cli import main
        from repro.core.export import import_models

        archive = tmp_path / "archive"
        bundle = tmp_path / "bundle"
        manager, models, set_id = self._build_archive(archive)
        victim = manager.set_info(set_id)["model_ids"][1]
        artifact = manager.context.document_store.get("mmlib_models", victim)[
            "params_artifact"
        ]
        corrupt_artifact(manager.context.file_store, artifact, offset=16)

        # Plain export aborts; salvage export ships what survives.
        assert main([str(archive), "export", set_id, str(bundle)]) in (1, 2)
        code = main([str(archive), "export", set_id, str(bundle), "--salvage"])
        assert code == 1
        out = capsys.readouterr().out
        assert "SKIPPED model 1" in out

        recovered, manifest = import_models(bundle)
        assert sorted(manifest["models"]) == ["0", "2"]
        assert manifest["salvage"]["skipped"][0]["model"] == 1
        for state, index in zip(recovered.states, (0, 2)):
            for name, value in models.state(index).items():
                assert np.array_equal(state[name], value)
