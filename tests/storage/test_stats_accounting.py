"""Delete/replace byte accounting: ``bytes_by_category`` tracks what is
*currently stored*, under the stats lock, on single-backend and
replicated stores alike — relative to the session: what a reopened store
found on disk was never categorised and returns its bytes to no bucket."""

import pytest

from repro.config import ArchiveConfig
from repro.core.approach import SaveContext
from repro.storage.document_store import DocumentStore, document_num_bytes
from repro.storage.file_store import FileStore
from repro.storage.persistent import open_archive_stores


class TestFileStoreAccounting:
    def test_delete_returns_bytes_and_pops_empty_category(self):
        store = FileStore()
        artifact_id = store.put(b"x" * 128, artifact_id="x", category="parameters")
        assert store.stats.bytes_by_category == {"parameters": 128}
        store.delete(artifact_id)
        assert store.stats.bytes_by_category == {}
        assert store.stats.deletes == 1
        assert store.stats.bytes_deleted == 128

    def test_partial_delete_keeps_remainder(self):
        store = FileStore()
        keep = store.put(b"a" * 100, artifact_id="keep", category="parameters")
        drop = store.put(b"b" * 28, artifact_id="drop", category="parameters")
        store.delete(drop)
        assert store.stats.bytes_by_category == {"parameters": 100}
        assert store.exists(keep)


class TestDocumentStoreAccounting:
    def test_delete_returns_bytes(self):
        store = DocumentStore()
        doc_id = store.insert("sets", {"k": "v"})
        stored = store.stats.bytes_by_category["metadata"]
        store.delete("sets", doc_id)
        assert store.stats.bytes_by_category == {}
        assert store.stats.deletes == 1
        assert store.stats.bytes_deleted == stored

    def test_replace_swaps_bytes_without_counting_a_delete(self):
        store = DocumentStore()
        doc_id = store.insert("sets", {"k": "v"})
        replacement = {"k": "a much longer value than before"}
        store.replace("sets", doc_id, replacement)
        assert store.stats.deletes == 0
        assert store.stats.bytes_by_category == {
            "metadata": document_num_bytes(store.get("sets", doc_id))
        }


@pytest.fixture
def replicated_context():
    return SaveContext.create(ArchiveConfig(replicas=3))


class TestReplicatedAccounting:
    def test_file_delete_uses_put_category(self, replicated_context):
        store = replicated_context.file_store
        artifact_id = store.put(b"y" * 64, artifact_id="y", category="parameters")
        assert store.stats.bytes_by_category == {"parameters": 64}
        store.delete(artifact_id)
        assert store.stats.bytes_by_category == {}
        assert store.stats.deletes == 1
        assert store.stats.bytes_deleted == 64

    def test_doc_replace_and_delete(self, replicated_context):
        store = replicated_context.document_store
        doc_id = store.insert("sets", {"k": "v"})
        store.replace("sets", doc_id, {"k": "longer value entirely"})
        assert store.stats.deletes == 0
        assert store.stats.bytes_by_category == {
            "metadata": document_num_bytes(store.get("sets", doc_id))
        }
        store.delete("sets", doc_id)
        assert store.stats.bytes_by_category == {}
        assert store.stats.deletes == 1


def reopened_pair(tmp_path, replicas):
    """A store pair holding one artifact and one document written by an
    earlier session, reopened fresh."""
    config = ArchiveConfig(replicas=replicas)
    roots = [tmp_path / f"replica-{index}" for index in range(replicas)]
    file_store, document_store = open_archive_stores(roots, config)
    file_store.put(b"z" * 50, artifact_id="old", category="parameters")
    document_store.insert("sets", {"k": "v"}, doc_id="old", category="hash-info")
    return open_archive_stores(roots, config)


@pytest.mark.parametrize("replicas", [1, 3])
class TestSessionRelativeCategories:
    def test_deleting_what_reopen_found_leaves_no_negative_bucket(
        self, tmp_path, replicas
    ):
        file_store, document_store = reopened_pair(tmp_path, replicas)
        file_store.delete("old")
        document_store.delete("sets", "old")
        size = document_num_bytes({"k": "v"})
        for stats, deleted in ((file_store.stats, 50), (document_store.stats, size)):
            assert stats.bytes_by_category == {}
            assert (stats.deletes, stats.bytes_deleted) == (1, deleted)

    def test_replacing_what_reopen_found_counts_only_the_new_bytes(
        self, tmp_path, replicas
    ):
        _file_store, document_store = reopened_pair(tmp_path, replicas)
        replacement = {"k": "a much longer value than before"}
        document_store.replace("sets", "old", replacement)
        stats = document_store.stats
        assert stats.bytes_by_category == {"metadata": document_num_bytes(replacement)}
        assert (stats.deletes, stats.bytes_deleted) == (0, document_num_bytes({"k": "v"}))
        document_store.delete("sets", "old")
        assert stats.bytes_by_category == {}
