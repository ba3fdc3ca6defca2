"""Collection and document ids are checked before they reach a store.

Durable stores lay documents out as ``<collection>/<doc_id>.json`` and
the registry writes caller-supplied family and tag names as document
ids, so a bad name is refused by every write entry point of every
document store — before anything is mutated or charged, identically on
in-memory, durable and replicated archives — and can neither escape the
archive root nor count as a replica failure.
"""

import pytest

from repro.config import ArchiveConfig
from repro.core.approach import SaveContext
from repro.core.fsck import ArchiveFsck
from repro.core.manager import MultiModelManager
from repro.core.model_set import ModelSet
from repro.core.save_info import SetMetadata
from repro.errors import StorageError
from repro.storage.document_store import DocumentStore, check_document_key
from repro.storage.journal import attach_journal
from repro.storage.persistent import PersistentDocumentStore
from repro.storage.replication import ReplicatedDocumentStore, replicated_stores

BAD_NAMES = ["a/b", "a\\b", ".hidden", "", "../../../escaped"]


def tree(root):
    """Every path under ``root``, for before/after comparison."""
    return sorted(str(path.relative_to(root)) for path in root.rglob("*"))


def make_store(kind, root):
    if kind == "memory":
        return DocumentStore()
    if kind == "durable":
        return PersistentDocumentStore(root / "documents")
    return ReplicatedDocumentStore(
        [PersistentDocumentStore(root / f"replica-{i}" / "documents") for i in range(3)]
    )


def test_the_rule():
    for collection, doc_id in [("c", "family:tag"), ("c", "v1.2"), ("c", None)]:
        check_document_key(collection, doc_id)
    for bad in BAD_NAMES:
        with pytest.raises(StorageError):
            check_document_key("c", bad)
        with pytest.raises(StorageError):
            check_document_key(bad, "d")


@pytest.mark.parametrize("kind", ["memory", "durable", "replicated"])
@pytest.mark.parametrize("bad", BAD_NAMES)
def test_every_write_entry_point_refuses_before_mutating(tmp_path, kind, bad):
    store = make_store(kind, tmp_path)
    store.insert("c", {"v": 1}, doc_id="good")
    before_tree = tree(tmp_path)
    before_stats = store.stats.snapshot()
    before_docs = dict(store.peek_collection("c"))
    for collection, doc_id in (("c", bad), (bad, "good")):
        for attempt in (
            lambda: store.insert(collection, {"v": 2}, doc_id=doc_id),
            lambda: store.replace(collection, doc_id, {"v": 2}),
            lambda: store.delete(collection, doc_id),
            lambda: store._write_raw(collection, doc_id, {"v": 2}),
            lambda: store._delete_raw(collection, doc_id),
        ):
            with pytest.raises(StorageError, match="invalid document key"):
                attempt()
    assert store.stats.snapshot() == before_stats  # nothing charged
    assert dict(store.peek_collection("c")) == before_docs
    assert store.collections() == ["c"]
    assert tree(tmp_path) == before_tree
    if kind == "replicated":
        # A bad name is the caller's error, not three replica failures.
        assert store.pending_repairs() == {}
        for state in store.replicas:
            assert (state.breaker.failures, state.breaker.open) == (0, False)


def open_manager(kind, root):
    if kind == "memory":
        context = SaveContext.create(ArchiveConfig())
        attach_journal(context)
        return MultiModelManager.with_approach("update", context=context)
    replicas = 3 if kind == "replicated" else None
    return MultiModelManager.open(
        str(root / "archive"), "update", ArchiveConfig(replicas=replicas)
    )


@pytest.mark.parametrize("kind", ["memory", "durable", "replicated"])
@pytest.mark.parametrize("family", ["../../../escaped", "a/b"])
def test_save_under_a_bad_family_name_rolls_back(tmp_path, kind, family):
    manager = open_manager(kind, tmp_path)
    models = ModelSet.build("FFNN-48", num_models=2, seed=0)
    kept = manager.save_set(models)
    before = tree(tmp_path)
    with pytest.raises(StorageError, match="invalid document key"):
        manager.save_set(models, metadata=SetMetadata(extra={"family": family}))
    # Nothing escaped the archive root, nothing new stayed inside it ...
    assert tree(tmp_path) == before
    # ... the save rolled back as one transaction ...
    assert manager.list_sets() == [kept]
    assert manager.context.registry.families() == [kept]
    assert ArchiveFsck(manager.context).run(deep=True).exit_code == 0
    assert manager.recover_set(kept).equals(models)
    # ... and no replica was blamed for the caller's bad name.
    for layer in replicated_stores(manager.context):
        if layer is not None:
            assert layer.pending_repairs() == {}
            assert all(not entry["breaker_open"] for entry in layer.health())
            assert all(
                entry["consecutive_failures"] == 0 for entry in layer.health()
            )
