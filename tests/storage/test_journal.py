"""Unit tests of the write-ahead save journal."""

import hashlib
import json
import os
import shutil

import pytest

from repro.config import ArchiveConfig
from repro.core.approach import SETS_COLLECTION, SaveContext
from repro.core.fsck import ArchiveFsck, scrub_archive
from repro.core.manager import MultiModelManager
from repro.core.model_set import ModelSet
from repro.errors import (
    DuplicateArtifactError,
    SimulatedCrashError,
    StorageError,
)
from repro.storage.chunk_index import REFS_COLLECTION
from repro.storage.document_store import DocumentStore, compact_json
from repro.storage.faults import (
    FaultInjector,
    inject_faults,
    inject_replica_faults,
)
from repro.storage.journal import (
    JOURNAL_COLLECTION,
    JournaledDocumentStore,
    JournaledFileStore,
    SaveJournal,
    attach_journal,
    innermost,
)
from repro.storage.persistent import (
    PersistentDocumentStore,
    _decode_frames,
    _encode_frame,
)
from repro.storage.replication import replicated_stores

#: Offsets the replica-outage seed (CI runs two fault seeds).
SEED_BASE = int(os.environ.get("REPRO_FAULT_SEED", "0"))


def make_context(dedup=False):
    context = SaveContext.create(ArchiveConfig(dedup=dedup))
    attach_journal(context)
    return context


class TestAttachJournal:
    def test_wraps_both_stores(self):
        context = make_context()
        assert isinstance(context.file_store, JournaledFileStore)
        assert isinstance(context.document_store, JournaledDocumentStore)
        assert context.journal is not None

    def test_idempotent(self):
        context = make_context()
        journal = context.journal
        assert attach_journal(context) is journal
        assert isinstance(context.file_store, JournaledFileStore)
        assert not isinstance(context.file_store._inner, JournaledFileStore)

    def test_unjournaled_operations_pass_through(self):
        context = make_context()
        context.file_store.put(b"free", artifact_id="loose")
        assert context.file_store.exists("loose")
        assert context.journal.pending_entries() == []


class TestTransactionLifecycle:
    def test_successful_save_retires_the_entry(self):
        context = make_context()
        manager = MultiModelManager.with_approach("baseline", context=context)
        set_id = manager.save_set(ModelSet.build("FFNN-48", num_models=2, seed=0))
        assert context.journal.pending_entries() == []
        assert manager.list_sets() == [set_id]

    def test_entry_is_durable_before_first_mutation(self):
        context = make_context()
        with context.journal.begin("save", "baseline") as txn:
            raw = innermost(context.document_store)._read_raw(
                JOURNAL_COLLECTION, txn.txn_id
            )
            assert raw is not None and raw["status"] == "pending"

    def test_exception_rolls_back_every_mutation(self):
        context = make_context()
        context.document_store.insert(
            "notes", {"v": 1}, doc_id="kept"
        )
        with pytest.raises(RuntimeError):
            with context.save_transaction("save", "baseline"):
                context.file_store.put(b"data", artifact_id="torn")
                context.document_store.insert(
                    SETS_COLLECTION, {"type": "baseline"}, doc_id="set-x"
                )
                context.document_store.replace("notes", "kept", {"v": 2})
                raise RuntimeError("boom")
        assert not context.file_store.exists("torn")
        assert not context.document_store.exists(SETS_COLLECTION, "set-x")
        assert context.document_store.get("notes", "kept") == {"v": 1}
        assert context.journal.pending_entries() == []

    def test_nested_begin_joins_the_outer_transaction(self):
        context = make_context()
        with pytest.raises(RuntimeError):
            with context.save_transaction("save") as outer:
                with context.save_transaction("gc"):
                    # Still the same open transaction underneath.
                    assert context.journal.active_txn() is outer
                    context.file_store.put(b"inner", artifact_id="inner-blob")
                # The inner exit must not have committed anything.
                assert context.journal.active_txn() is outer
                raise RuntimeError("outer fails")
        assert not context.file_store.exists("inner-blob")

    def test_log_op_after_close_raises(self):
        context = make_context()
        with context.journal.begin() as txn:
            pass
        with pytest.raises(StorageError):
            txn.log_op({"op": "put_artifact", "artifact_id": "late"})

    def test_rollback_invalidates_chunk_store_cache(self):
        context = make_context(dedup=True)
        manager = MultiModelManager.with_approach("update", context=context)
        manager.save_set(ModelSet.build("FFNN-48", num_models=2, seed=0))
        cached = context.chunk_store()
        assert context._chunk_store is cached
        with pytest.raises(RuntimeError):
            with context.save_transaction():
                context.file_store.put(b"x", artifact_id="y")
                raise RuntimeError("boom")
        assert context._chunk_store is None


class TestCrashRecovery:
    def test_simulated_crash_leaves_the_entry_behind(self):
        context = make_context()
        with pytest.raises(SimulatedCrashError):
            with context.save_transaction("save", "baseline"):
                context.file_store.put(b"data", artifact_id="torn")
                raise SimulatedCrashError("kill -9")
        # No in-process cleanup: both the entry and the orphan persist,
        # exactly the state a reopened archive must repair.
        assert context.journal.pending_entries() == ["txn-000000"]
        assert context.file_store.exists("torn")

    def test_recover_rolls_back_a_pending_entry(self):
        context = make_context()
        context.document_store.insert("notes", {"v": 1}, doc_id="kept")
        with pytest.raises(SimulatedCrashError):
            with context.save_transaction("save", "baseline"):
                context.file_store.put(b"data", artifact_id="torn")
                context.document_store.insert(
                    SETS_COLLECTION, {"type": "baseline"}, doc_id="set-x"
                )
                context.document_store.replace("notes", "kept", {"v": 2})
                raise SimulatedCrashError("kill -9")
        report = context.journal.recover()
        assert not report.clean
        assert [entry["txn"] for entry in report.rolled_back] == ["txn-000000"]
        assert report.rolled_back[0]["set_id"] == "set-x"
        assert report.artifacts_removed == ["torn"]
        assert report.documents_restored == 1
        assert not context.file_store.exists("torn")
        assert not context.document_store.exists(SETS_COLLECTION, "set-x")
        assert context.document_store.get("notes", "kept") == {"v": 1}
        assert context.journal.pending_entries() == []

    def test_recover_redoes_deletes_of_a_committing_entry(self):
        context = make_context()
        context.file_store.put(b"old", artifact_id="victim")
        innermost(context.document_store)._write_raw(
            JOURNAL_COLLECTION,
            "txn-000007",
            {
                "status": "committing",
                "kind": "gc",
                "approach": None,
                "set_id": None,
                "ops": [],
                "deletes": ["victim"],
            },
        )
        report = context.journal.recover()
        assert report.redone == ["txn-000007"]
        assert not context.file_store.exists("victim")
        assert context.journal.pending_entries() == []

    def test_recover_on_clean_archive_reports_clean(self):
        context = make_context()
        report = context.journal.recover()
        assert report.clean
        assert report.rolled_back == [] and report.redone == []

    def test_crash_rolls_back_only_the_torn_save(self):
        context = make_context()
        manager = MultiModelManager.with_approach("update", context=context)
        models = ModelSet.build("FFNN-48", num_models=3, seed=0)
        base_id = manager.save_set(models)
        derived = models.copy()
        derived.state(1)["0.bias"][:] += 1.0
        inject_faults(context, FaultInjector(seed=3, crash_at=1))
        with pytest.raises(SimulatedCrashError):
            manager.save_set(derived, base_set_id=base_id)
        report = context.journal.recover()
        assert not report.clean
        assert manager.list_sets() == [base_id]
        assert manager.recover_set(base_id).equals(models)


class TestUndoSemantics:
    def test_preexisting_explicit_id_raises_and_survives_rollback(self):
        context = make_context()
        context.file_store.put(b"original", artifact_id="claimed")
        with pytest.raises(DuplicateArtifactError):
            with context.save_transaction():
                context.file_store.put(b"other", artifact_id="claimed")
        assert context.file_store.get("claimed") == b"original"

    def test_reput_succeeds_after_rollback_freed_the_id(self):
        # A put racing a journal rollback: the first transaction claims
        # the id and dies; recovery frees it; the retry must not see a
        # phantom duplicate.
        context = make_context()
        with pytest.raises(SimulatedCrashError):
            with context.save_transaction():
                context.file_store.put(b"first try", artifact_id="contested")
                raise SimulatedCrashError("kill -9")
        context.journal.recover()
        with context.save_transaction():
            context.file_store.put(b"second try", artifact_id="contested")
        assert context.file_store.get("contested") == b"second try"

    def test_delete_is_deferred_until_commit(self):
        context = make_context()
        context.file_store.put(b"bytes", artifact_id="doomed")
        with context.save_transaction():
            context.file_store.delete("doomed")
            # Physically still present: rollback may need to keep it.
            assert innermost(context.file_store).exists("doomed")
        assert not context.file_store.exists("doomed")

    def test_deferred_delete_survives_rollback(self):
        context = make_context()
        context.file_store.put(b"bytes", artifact_id="doomed")
        with pytest.raises(RuntimeError):
            with context.save_transaction():
                context.file_store.delete("doomed")
                raise RuntimeError("boom")
        assert context.file_store.get("doomed") == b"bytes"

    def test_document_delete_restores_prior_content(self):
        context = make_context()
        context.document_store.insert("notes", {"v": 1}, doc_id="kept")
        with pytest.raises(SimulatedCrashError):
            with context.save_transaction():
                context.document_store.delete("notes", "kept")
                raise SimulatedCrashError("kill -9")
        context.journal.recover()
        assert context.document_store.get("notes", "kept") == {"v": 1}

    def test_auto_document_ids_are_logged_write_ahead(self):
        context = make_context()
        with pytest.raises(SimulatedCrashError):
            with context.save_transaction():
                doc_id = context.document_store.insert("notes", {"v": 1})
                assert context.document_store.exists("notes", doc_id)
                raise SimulatedCrashError("kill -9")
        context.journal.recover()
        assert not context.document_store.exists("notes", doc_id)


class TestJournaledWriters:
    def test_explicit_id_writer_is_rolled_back(self):
        context = make_context()
        with pytest.raises(SimulatedCrashError):
            with context.save_transaction():
                writer = context.file_store.open_writer("streamed")
                writer.write(b"payload")
                writer.close()
                raise SimulatedCrashError("kill -9")
        context.journal.recover()
        assert not context.file_store.exists("streamed")


class TestAccountingNeutrality:
    def test_journal_records_are_uncharged(self):
        models = ModelSet.build("FFNN-48", num_models=3, seed=0)
        plain = SaveContext.create()
        MultiModelManager.with_approach("update", context=plain).save_set(models)
        journaled = make_context()
        MultiModelManager.with_approach("update", context=journaled).save_set(
            models
        )
        assert (
            journaled.file_store.stats.bytes_written
            == plain.file_store.stats.bytes_written
        )
        assert (
            journaled.document_store.stats.bytes_written
            == plain.document_store.stats.bytes_written
        )


def journal_ids(context) -> list[str]:
    """Every document id in the raw journal collection, headers and records."""
    return sorted(innermost(context.document_store).peek_collection(JOURNAL_COLLECTION))


class TestAppendOnlyLayout:
    def test_each_op_is_one_record_beside_a_small_header(self):
        context = make_context()
        with pytest.raises(SimulatedCrashError):
            with context.save_transaction("save", "baseline") as txn:
                context.file_store.put(b"a", artifact_id="blob")
                context.document_store.insert("notes", {"v": 1}, doc_id="n")
                context.file_store.delete("blob")
                raise SimulatedCrashError("kill -9")
        raw = innermost(context.document_store)
        assert journal_ids(context) == [txn.txn_id, f"{txn.txn_id}.0", f"{txn.txn_id}.1"]
        # A pending header never carries ops or the deferred deletes.
        assert raw.peek(JOURNAL_COLLECTION, txn.txn_id) == {
            "status": "pending", "kind": "save", "approach": "baseline",
        }
        assert raw.peek(JOURNAL_COLLECTION, f"{txn.txn_id}.1") == {
            "op": "insert_doc", "collection": "notes", "doc_id": "n",
        }

    def test_pending_entries_lists_headers_only(self):
        context = make_context()
        with pytest.raises(SimulatedCrashError):
            with context.save_transaction():
                context.file_store.put(b"a", artifact_id="blob")
                context.file_store.put(b"b", artifact_id="blob-2")
                raise SimulatedCrashError("kill -9")
        assert len(journal_ids(context)) == 3
        assert context.journal.pending_entries() == ["txn-000000"]

    def test_counter_resumes_past_orphan_record_ids(self):
        context = make_context()
        innermost(context.document_store)._write_raw(
            JOURNAL_COLLECTION, "txn-000009.0", {"op": "put_artifact", "artifact_id": "x"}
        )
        journal = SaveJournal(context.file_store, context.document_store)
        with journal.begin() as txn:
            assert txn.txn_id == "txn-000010"

    def test_commit_and_rollback_leave_no_journal_documents(self):
        context = make_context()
        context.file_store.put(b"old", artifact_id="doomed")
        with context.save_transaction():
            context.file_store.put(b"a", artifact_id="blob")
            context.file_store.delete("doomed")
        with pytest.raises(RuntimeError):
            with context.save_transaction():
                context.file_store.put(b"b", artifact_id="blob-2")
                raise RuntimeError("boom")
        assert journal_ids(context) == []


class TestNewCrashPoints:
    #: Four mutations of one transaction, each logging one record.
    MUTATIONS = (
        lambda ctx: ctx.file_store.put(b"a", artifact_id="blob-0"),
        lambda ctx: ctx.document_store.insert("notes", {"v": 1}, doc_id="added"),
        lambda ctx: ctx.document_store.replace("notes", "kept", {"v": 2}),
        lambda ctx: ctx.file_store.put(b"b", artifact_id="blob-3"),
    )

    @pytest.mark.parametrize("k", range(len(MUTATIONS) + 1))
    def test_killed_after_k_records_undoes_exactly_those_ops(
        self, tmp_path, monkeypatch, k
    ):
        manager = MultiModelManager.open(str(tmp_path), "baseline")
        context = manager.context
        context.document_store.insert("notes", {"v": 0}, doc_id="kept")
        written = []
        real_write = SaveJournal._write

        def write(journal, doc_id, document):
            if "." in doc_id:
                if len(written) == k:
                    raise SimulatedCrashError(f"killed before record {k}")
                written.append(doc_id)
            real_write(journal, doc_id, document)

        monkeypatch.setattr(SaveJournal, "_write", write)
        with pytest.raises(SimulatedCrashError):
            with context.save_transaction("save"):
                for mutate in self.MUTATIONS:
                    mutate(context)
                raise SimulatedCrashError("killed after the last record")
        monkeypatch.undo()
        assert len(journal_ids(context)) == 1 + k

        reopened = MultiModelManager.open(str(tmp_path), "baseline")
        report = reopened.recovery_report
        assert [entry["txn"] for entry in report.rolled_back] == ["txn-000000"]
        # Puts are ops 0 and 3; undo runs newest first.
        assert report.artifacts_removed == [
            artifact for seq, artifact in ((3, "blob-3"), (0, "blob-0")) if seq < k
        ]
        assert report.documents_restored == (1 if k > 2 else 0)
        store = reopened.context.document_store
        assert not reopened.context.file_store.exists("blob-0")
        assert not reopened.context.file_store.exists("blob-3")
        assert not store.exists("notes", "added")
        assert store.get("notes", "kept") == {"v": 0}
        assert journal_ids(reopened.context) == []

    def test_killed_between_header_and_record_deletes_keeps_the_save(
        self, tmp_path, monkeypatch
    ):
        manager = MultiModelManager.open(str(tmp_path), "update")
        base_id = manager.save_set(ModelSet.build("FFNN-48", num_models=2, seed=0))
        models = ModelSet.build("FFNN-48", num_models=2, seed=1)
        raw = innermost(manager.context.document_store)
        real_delete = raw._delete_raw

        def delete(collection, doc_id):
            if collection == JOURNAL_COLLECTION and "." in doc_id:
                raise SimulatedCrashError("killed after the commit point")
            real_delete(collection, doc_id)

        monkeypatch.setattr(raw, "_delete_raw", delete)
        with pytest.raises(SimulatedCrashError):
            manager.save_set(models)
        monkeypatch.undo()
        assert manager.context.journal.pending_entries() == []
        orphans = journal_ids(manager.context)
        assert orphans and all("." in doc_id for doc_id in orphans)

        reopened = MultiModelManager.open(str(tmp_path), "update")
        assert reopened.recovery_report.clean
        assert journal_ids(reopened.context) == []
        new_id = [s for s in reopened.list_sets() if s != base_id]
        assert len(new_id) == 1
        assert reopened.recover_set(new_id[0]).equals(models)
        assert not (tmp_path / "documents" / JOURNAL_COLLECTION).exists()
        assert ArchiveFsck(reopened.context).run().ok

    def test_replica_down_at_commit_keeps_stale_records_hidden_until_scrub(
        self, tmp_path
    ):
        config = ArchiveConfig(replicas=3)
        manager = MultiModelManager.open(str(tmp_path), "baseline", config)
        base = ModelSet.build("FFNN-48", num_models=2, seed=0)
        manager.save_set(base)
        probe = inject_replica_faults(manager.context, 1, FaultInjector())
        manager.save_set(ModelSet.build("FFNN-48", num_models=2, seed=1))
        # The outage hits the replica at the save's last mutation: it holds
        # the header and records, then misses every retirement at commit.
        injector = FaultInjector(seed=SEED_BASE, down_at=probe.ops - 1)
        inject_replica_faults(manager.context, 1, injector)
        models = ModelSet.build("FFNN-48", num_models=2, seed=2)
        set_id = manager.save_set(models)
        assert injector.down
        injector.revive()

        _file_rep, doc_rep = replicated_stores(manager.context)
        stale = innermost(doc_rep.replicas[1].store).peek_collection(JOURNAL_COLLECTION)
        assert any("." in doc_id for doc_id in stale)
        assert manager.context.journal.pending_entries() == []
        assert ArchiveFsck(manager.context).run().pending_journal == []

        assert scrub_archive(manager.context).exit_code == 1
        for state in doc_rep.replicas:
            assert innermost(state.store).peek_collection(JOURNAL_COLLECTION) == {}
        assert scrub_archive(manager.context).exit_code == 0
        assert manager.recover_set(set_id).equals(models)

    def test_replica_that_missed_a_retirement_keeps_its_log_bounded(
        self, tmp_path, monkeypatch
    ):
        manager = MultiModelManager.open(
            str(tmp_path), "baseline", ArchiveConfig(replicas=3)
        )
        manager.save_set(ModelSet.build("FFNN-48", num_models=2, seed=0))
        _file_rep, doc_rep = replicated_stores(manager.context)
        stale = innermost(doc_rep.replicas[1].store)
        real_delete = stale._delete_raw
        missed = []

        def delete(collection, doc_id):
            if collection == JOURNAL_COLLECTION and "." in doc_id and not missed:
                missed.append(doc_id)
                raise StorageError("replica-1 misses one record's retirement")
            real_delete(collection, doc_id)

        monkeypatch.setattr(stale, "_delete_raw", delete)
        manager.save_set(ModelSet.build("FFNN-48", num_models=2, seed=1))
        monkeypatch.undo()
        assert missed

        log = tmp_path / "replica-1" / "documents" / f"{JOURNAL_COLLECTION}.log"

        def live_frame_bytes():
            return sum(
                len(_encode_frame(doc_id, compact_json(document)))
                for doc_id, document in stale.peek_collection(JOURNAL_COLLECTION).items()
            )

        for seed in range(2, 22):
            models = ModelSet.build("FFNN-48", num_models=2, seed=seed)
            set_id = manager.save_set(models)
            # The rule is checked at every document frame: a header is one.
            with manager.context.journal.begin("probe"):
                assert log.stat().st_size <= 2 * live_frame_bytes()
        assert list(stale.peek_collection(JOURNAL_COLLECTION)) == missed
        assert manager.context.document_store.peek(JOURNAL_COLLECTION, missed[0]) is None
        assert manager.context.journal.pending_entries() == []
        assert ArchiveFsck(manager.context).run().pending_journal == []

        assert scrub_archive(manager.context).exit_code == 1
        assert stale.peek_collection(JOURNAL_COLLECTION) == {}
        assert log.stat().st_size == 0
        assert scrub_archive(manager.context).exit_code == 0
        assert manager.recover_set(set_id).equals(models)


def tree_digests(root) -> dict:
    """``{relative path: SHA-256}`` of every file under ``root``."""
    return {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


class TestTornTail:
    def test_every_cut_of_the_last_frame_recovers_the_pre_save_archive(
        self, tmp_path, monkeypatch
    ):
        crashed = tmp_path / "crashed"
        manager = MultiModelManager.open(str(crashed), "update")
        models = ModelSet.build("FFNN-48", num_models=2, seed=0)
        base_id = manager.save_set(models)
        pre_save = tree_digests(crashed)
        derived = models.copy()
        derived.state(1)["0.bias"][:] += 1.0
        # The process dies right after appending record k, before its
        # mutation: cutting that frame is a death mid-append.
        k = 1 + SEED_BASE % 3
        real_write = SaveJournal._write

        def write(journal, doc_id, document):
            real_write(journal, doc_id, document)
            if doc_id.endswith(f".{k}"):
                raise SimulatedCrashError(f"killed after record {k}")

        monkeypatch.setattr(SaveJournal, "_write", write)
        with pytest.raises(SimulatedCrashError):
            manager.save_set(derived, base_set_id=base_id)
        monkeypatch.undo()
        del manager
        data = (crashed / "documents" / f"{JOURNAL_COLLECTION}.log").read_bytes()
        frame_sizes = [size for size, _doc_id, _encoded in _decode_frames(data)]
        assert sum(frame_sizes) == len(data) and len(frame_sizes) > 1
        last = len(data) - frame_sizes[-1]

        for cut in range(last, len(data)):
            archive = tmp_path / f"cut-{cut}"
            shutil.copytree(crashed, archive)
            log = archive / "documents" / f"{JOURNAL_COLLECTION}.log"
            log.write_bytes(data[:cut])
            # Open cuts the torn tail at the last whole frame; the next
            # write lands right after it.
            store = PersistentDocumentStore(archive / "documents")
            assert log.stat().st_size == last
            store._write_raw(JOURNAL_COLLECTION, "probe", {"v": 1})
            assert log.read_bytes() == data[:last] + _encode_frame("probe", '{"v":1}')
            store._delete_raw(JOURNAL_COLLECTION, "probe")
            del store

            reopened = MultiModelManager.open(str(archive), "update")
            report = reopened.recovery_report
            assert [entry["txn"] for entry in report.rolled_back] == ["txn-000001"]
            assert tree_digests(archive) == pre_save
            assert ArchiveFsck(reopened.context).run().ok
            assert reopened.list_sets() == [base_id]
            set_id = reopened.save_set(derived, base_set_id=base_id)
            assert MultiModelManager.open(str(archive), "update").recover_set(
                set_id
            ).equals(derived)
            shutil.rmtree(archive)


class TestLegacyLayout:
    """Journals written by older code: one ``save_journal/<id>.json`` file
    per header and record."""

    @staticmethod
    def write_legacy(root, doc_id, document):
        directory = root / "documents" / JOURNAL_COLLECTION
        directory.mkdir(parents=True, exist_ok=True)
        (directory / f"{doc_id}.json").write_text(json.dumps(document))

    @staticmethod
    def archive_with_loose_state(root):
        manager = MultiModelManager.open(str(root), "baseline")
        set_id = manager.save_set(ModelSet.build("FFNN-48", num_models=2, seed=0))
        context = manager.context
        context.document_store.insert("notes", {"v": 1}, doc_id="kept")
        context.file_store.put(b"torn", artifact_id="torn")
        context.document_store.insert("notes", {"v": 9}, doc_id="added")
        context.document_store.replace("notes", "kept", {"v": 2})
        context.file_store.put(b"old", artifact_id="victim")
        return set_id

    def test_pending_entry_rolls_back_and_committing_entry_is_redone(self, tmp_path):
        set_id = self.archive_with_loose_state(tmp_path)
        self.write_legacy(tmp_path, "txn-000040", {
            "status": "pending", "kind": "save", "approach": "baseline",
        })
        for seq, op in enumerate([
            {"op": "put_artifact", "artifact_id": "torn"},
            {"op": "insert_doc", "collection": "notes", "doc_id": "added"},
            {"op": "replace_doc", "collection": "notes", "doc_id": "kept",
             "prior": {"v": 1}},
        ]):
            self.write_legacy(tmp_path, f"txn-000040.{seq}", op)
        self.write_legacy(tmp_path, "txn-000041", {
            "status": "committing", "kind": "gc", "approach": None,
            "deletes": ["victim"],
        })

        reopened = MultiModelManager.open(str(tmp_path), "baseline")
        report = reopened.recovery_report
        assert report.redone == ["txn-000041"]
        assert [entry["txn"] for entry in report.rolled_back] == ["txn-000040"]
        assert report.artifacts_removed == ["torn"]
        assert report.documents_restored == 1
        store = reopened.context.document_store
        assert store.get("notes", "kept") == {"v": 1}
        assert not store.exists("notes", "added")
        assert not reopened.context.file_store.exists("torn")
        assert not reopened.context.file_store.exists("victim")
        assert reopened.list_sets() == [set_id]
        assert not (tmp_path / "documents" / JOURNAL_COLLECTION).exists()
        assert (tmp_path / "documents" / f"{JOURNAL_COLLECTION}.log").stat().st_size == 0

    def test_single_legacy_document_without_a_log(self, tmp_path):
        self.archive_with_loose_state(tmp_path)
        log = tmp_path / "documents" / f"{JOURNAL_COLLECTION}.log"
        log.unlink()
        self.write_legacy(tmp_path, "txn-000007", {
            "status": "committing", "kind": "gc", "approach": None,
            "deletes": ["victim"],
        })

        reopened = MultiModelManager.open(str(tmp_path), "baseline")
        assert reopened.recovery_report.redone == ["txn-000007"]
        assert not reopened.context.file_store.exists("victim")
        assert not (tmp_path / "documents" / JOURNAL_COLLECTION).exists()
        # Retiring legacy files writes no frame: the log comes with the
        # first journal record.
        assert not log.exists()
        reopened.save_set(ModelSet.build("FFNN-48", num_models=2, seed=1))
        assert log.stat().st_size == 0
        assert journal_ids(reopened.context) == []


class TestPreChangeEntries:
    def test_single_document_entries_recover_as_before(self, tmp_path):
        manager = MultiModelManager.open(str(tmp_path), "baseline")
        context = manager.context
        set_id = manager.save_set(ModelSet.build("FFNN-48", num_models=2, seed=0))
        context.document_store.insert("notes", {"v": 1}, doc_id="kept")
        context.file_store.put(b"torn", artifact_id="torn")
        context.document_store.insert("notes", {"v": 9}, doc_id="added")
        context.document_store.replace("notes", "kept", {"v": 2})
        context.file_store.put(b"old", artifact_id="victim")
        raw = innermost(context.document_store)
        raw._write_raw(JOURNAL_COLLECTION, "txn-000040", {
            "status": "pending", "kind": "save", "approach": "baseline",
            "set_id": "added",
            "ops": [
                {"op": "put_artifact", "artifact_id": "torn"},
                {"op": "insert_doc", "collection": "notes", "doc_id": "added"},
                {"op": "replace_doc", "collection": "notes", "doc_id": "kept",
                 "prior": {"v": 1}},
            ],
            "deletes": [],
        })
        raw._write_raw(JOURNAL_COLLECTION, "txn-000041", {
            "status": "committing", "kind": "gc", "approach": None,
            "set_id": None, "ops": [], "deletes": ["victim"],
        })

        reopened = MultiModelManager.open(str(tmp_path), "baseline")
        report = reopened.recovery_report
        assert report.redone == ["txn-000041"]
        assert [entry["txn"] for entry in report.rolled_back] == ["txn-000040"]
        assert report.artifacts_removed == ["torn"]
        assert report.documents_restored == 1
        store = reopened.context.document_store
        assert store.get("notes", "kept") == {"v": 1}
        assert not store.exists("notes", "added")
        assert not reopened.context.file_store.exists("victim")
        assert not reopened.context.file_store.exists("torn")
        assert reopened.list_sets() == [set_id]
        assert journal_ids(reopened.context) == []


class TestWriteVolume:
    """Deterministic counts of journal document writes (not timings)."""

    @staticmethod
    def count_journal_writes(monkeypatch):
        writes = []
        real_write = DocumentStore._write_raw

        def write(store, collection, doc_id, document):
            if collection == JOURNAL_COLLECTION:
                writes.append((id(store), doc_id, document))
            real_write(store, collection, doc_id, document)

        monkeypatch.setattr(DocumentStore, "_write_raw", write)
        return writes

    def test_refs_prior_image_is_written_once_per_replica(self, monkeypatch):
        context = SaveContext.create(ArchiveConfig(dedup=True, replicas=3))
        attach_journal(context)
        manager = MultiModelManager.with_approach("update", context=context)
        models = ModelSet.build("FFNN-48", num_models=3, seed=0)
        base_id = manager.save_set(models)
        derived = models.copy()
        derived.state(1)["0.bias"][:] += 1.0
        writes = self.count_journal_writes(monkeypatch)
        manager.save_set(derived, base_set_id=base_id)

        def carries_refs_prior(document):
            # A journal document carries ops inline or is one op itself.
            return any(
                op.get("collection") == REFS_COLLECTION and "prior" in op
                for op in document.get("ops", [document])
            )

        per_replica: dict[int, int] = {}
        for store, _doc_id, document in writes:
            if carries_refs_prior(document):
                per_replica[store] = per_replica.get(store, 0) + 1
        assert sorted(per_replica.values()) == [1, 1, 1]

    @pytest.mark.parametrize("deletes", [1, 8])
    def test_header_is_written_at_most_twice(self, monkeypatch, deletes):
        context = make_context()
        for index in range(deletes):
            context.file_store.put(b"x%d" % index, artifact_id=f"doomed-{index}")
        writes = self.count_journal_writes(monkeypatch)
        with context.save_transaction("gc") as txn:
            for index in range(deletes):
                context.file_store.delete(f"doomed-{index}")
        headers = [doc_id for _store, doc_id, _doc in writes if doc_id == txn.txn_id]
        assert len(headers) == 2
