"""Held documents never change in place.

Every document store holds each document as one read-only tree and hands
that tree to every read (DESIGN.md §13), so what recovery derives from a
held descriptor — its memoized diff columns — stays valid for as long as
the store holds that object.  This runs the crash matrix's save /
recover / gc / compact sequence on Update (plain, dedup, three replicas,
and on disk across a reopen) and digests every document every backend
holds before and after each op: a document the op did not write is the
same object with the same bytes.
"""

import hashlib

import pytest

from repro.config import ArchiveConfig
from repro.core.approach import SaveContext
from repro.core.manager import MultiModelManager
from repro.core.model_set import ModelSet
from repro.core.retention import RetentionManager
from repro.storage.document_store import DocumentStore, compact_json
from repro.storage.journal import attach_journal, innermost
from repro.storage.replication import ReplicatedDocumentStore

NUM_MODELS = 3


def backends(context):
    """The plain stores that hold the documents: one, or one per replica."""
    store = innermost(context.document_store)
    if isinstance(store, ReplicatedDocumentStore):
        return [innermost(state.store) for state in store.replicas]
    return [store]


def held(context) -> dict:
    """``(backend, collection, doc id) -> (object, digest)`` of every held
    document, read uncharged."""
    return {
        (index, collection, doc_id): (
            document,
            hashlib.sha256(compact_json(document).encode()).hexdigest(),
        )
        for index, backend in enumerate(backends(context))
        for collection in backend.collections()
        for doc_id, document in backend.peek_collection(collection).items()
    }


@pytest.fixture
def writes(monkeypatch):
    """``(store id, collection, doc id)`` of every document a plain store
    held anew or dropped since the set was last cleared."""
    keys: set = set()
    hold, drop_raw, drop = (
        DocumentStore._hold, DocumentStore._delete_raw, DocumentStore.delete,
    )

    def record(original):
        def wrapper(self, collection, doc_id, *args):
            keys.add((id(self), collection, doc_id))
            return original(self, collection, doc_id, *args)

        return wrapper

    monkeypatch.setattr(DocumentStore, "_hold", record(hold))
    monkeypatch.setattr(DocumentStore, "_delete_raw", record(drop_raw))
    monkeypatch.setattr(DocumentStore, "delete", record(drop))
    return keys


def assert_only_writes_changed(context, before: dict, writes: set, op: str):
    stores = [id(backend) for backend in backends(context)]
    after = held(context)
    for key in before.keys() | after.keys():
        index, collection, doc_id = key
        if (stores[index], collection, doc_id) in writes:
            continue
        assert key in before and key in after, f"{op}: {key} came or went unwritten"
        (old, old_digest), (new, new_digest) = before[key], after[key]
        assert new is old, f"{op}: {key} is a new object but was not written"
        assert new_digest == old_digest, f"{op}: {key} changed in place"


def generations():
    """A base set and three derived sets, each changing one layer."""
    sets = [ModelSet.build("FFNN-48", num_models=NUM_MODELS, seed=0)]
    for step, (model, layer) in enumerate([(0, "0.bias"), (2, "4.weight"), (0, "4.bias")]):
        derived = sets[-1].copy()
        derived.state(model)[layer][:] += 1.0 + step
        sets.append(derived)
    return sets


def in_memory(config):
    def open_manager(_root):
        context = SaveContext.create(config)
        attach_journal(context)
        return MultiModelManager.with_approach("update", context=context)

    return open_manager


def on_disk(config):
    return lambda root: MultiModelManager.open(str(root), "update", config)


CONFIGS = {
    "plain": in_memory(ArchiveConfig()),
    "dedup": in_memory(ArchiveConfig(dedup=True)),
    "replicas": in_memory(ArchiveConfig(replicas=3)),
    "dedup-replicas-durable": on_disk(ArchiveConfig(dedup=True, replicas=3)),
    "durable": on_disk(ArchiveConfig()),
}


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_an_op_changes_only_the_documents_it_writes(config, tmp_path, writes):
    open_manager = CONFIGS[config]
    manager = open_manager(tmp_path)
    sets, ids = generations(), []

    def step(op, run):
        before = held(manager.context)
        writes.clear()
        result = run()
        assert_only_writes_changed(manager.context, before, writes, op)
        return result

    ids.append(step("save initial", lambda: manager.save_set(sets[0])))
    for index, model_set in enumerate(sets[1:]):
        ids.append(
            step(f"save derived {index}", lambda: manager.save_set(model_set, base_set_id=ids[-1]))
        )
    if config.endswith("durable"):
        manager = open_manager(tmp_path)
    for set_id, model_set in zip(ids, sets):
        assert step(f"recover {set_id}", lambda: manager.recover_set(set_id)).equals(model_set)
    step("recover model", lambda: manager.recover_model(ids[-1], 0))
    retention = RetentionManager(manager.context)
    step("compact", lambda: retention.compact(ids[2]))
    assert step("recover after compact", lambda: manager.recover_set(ids[-1])).equals(sets[-1])
    step("gc", lambda: retention.keep_last(2))
    assert manager.list_sets() == ids[-2:]
    for set_id, model_set in zip(ids[-2:], sets[-2:]):
        assert step(f"recover {set_id}", lambda: manager.recover_set(set_id)).equals(model_set)
        state = step("recover model", lambda: manager.recover_model(set_id, 2))
        assert all(
            (state[name] == value).all() for name, value in model_set.state(2).items()
        )
