"""Remembered document sizes: a read is charged what the write encoded.

Every document store remembers each stored document's compact-JSON byte
size from the one encoding its write does (DESIGN.md §13).  An op
sequence over the three store shapes — memory, on disk, and three
replicas on disk — checks after every step that each remembered size is
the document's compact encoding and that ``total_bytes`` is their sum;
a charged or raw read hands out the held document, which refuses every
edit; and a document found at reopen is remembered at its compact size
whatever the file's spelling.
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.errors import DocumentNotFoundError
from repro.storage.document_store import DocumentStore, thaw
from repro.storage.file_store import FileStore
from repro.storage.journal import innermost, open_journal
from repro.storage.persistent import PersistentDocumentStore
from repro.storage.replication import ReplicatedDocumentStore

from tests.storage.test_replication import take_down

COLLECTIONS = ("sets", "hash_info")
DOC_IDS = ("a", "b", "c")


def compact_size(document) -> int:
    return len(json.dumps(document, separators=(",", ":")))


def open_shape(shape: str, root: "Path | None"):
    """A store of ``shape``; reopening one on disk passes the same root."""
    if shape == "memory":
        return DocumentStore()
    if shape == "persistent":
        return PersistentDocumentStore(root / "documents")
    return ReplicatedDocumentStore(
        [PersistentDocumentStore(root / f"replica-{index}") for index in range(3)]
    )


def backends(store):
    """The plain stores that remember sizes: the store, or every replica."""
    if isinstance(store, ReplicatedDocumentStore):
        return [innermost(state.store) for state in store.replicas]
    return [store]


def check_sizes(store) -> None:
    """Each remembered size is the compact encoding; totals are sums; a
    charged read costs the compact encoding of what it returned."""
    for backend in backends(store):
        held = 0
        for collection in backend.collections():
            for doc_id, document in backend.peek_collection(collection).items():
                assert backend.stored_size(collection, doc_id) == compact_size(document)
                held += compact_size(document)
        assert backend.total_bytes() == held
        for collection in COLLECTIONS:
            for doc_id in DOC_IDS:
                if not backend.exists(collection, doc_id):
                    assert backend.stored_size(collection, doc_id) is None
    view = [
        (collection, doc_id, document)
        for collection in store.collections()
        for doc_id, document in store.peek_collection(collection).items()
    ]
    assert store.total_bytes() == sum(compact_size(doc) for _c, _d, doc in view)
    for collection, doc_id, document in view:
        before = store.stats.snapshot()
        fetched = store.get(collection, doc_id)
        assert fetched == document
        assert store.stats.delta_since(before).bytes_read == compact_size(fetched)


# -- the op sequence --------------------------------------------------------
scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=False)
    | st.text(max_size=6)
)
documents = st.dictionaries(
    st.text(max_size=4),
    st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=3), inner, max_size=3),
        max_leaves=8,
    ),
    max_size=4,
)
keys = st.tuples(st.sampled_from(COLLECTIONS), st.sampled_from(DOC_IDS))
mutations = st.one_of(
    st.tuples(st.just("insert"), keys, documents),
    st.tuples(st.just("replace"), keys, documents),
    st.tuples(st.just("delete"), keys),
)
ops = st.one_of(
    mutations,
    st.tuples(st.just("write_raw"), keys, documents),
    st.tuples(st.just("delete_raw"), keys),
    st.tuples(st.just("reopen")),
    st.tuples(st.just("rollback"), st.lists(mutations, min_size=1, max_size=3)),
    st.tuples(st.just("outage"), st.integers(0, 2)),
    st.tuples(st.just("revive")),
    st.tuples(st.just("repair"), st.booleans()),
)


def mutate(store, op) -> None:
    """One charged mutation; a replace/delete of a missing id refuses."""
    kind, (collection, doc_id) = op[0], op[1]
    try:
        if kind == "insert":
            store.insert(collection, op[2], doc_id=doc_id)
        elif kind == "replace":
            store.replace(collection, doc_id, op[2])
        else:
            store.delete(collection, doc_id)
    except DocumentNotFoundError:
        assert kind != "insert"


def apply(store, op, root, shape, outages):
    """Run one op; returns the store (a reopen makes a new one)."""
    kind = op[0]
    if kind in ("insert", "replace", "delete"):
        mutate(store, op)
    elif kind == "write_raw":
        store._write_raw(*op[1], op[2])
    elif kind == "delete_raw":
        store._delete_raw(*op[1])
    elif kind == "reopen" and root is not None:
        outages.clear()
        return open_shape(shape, root)
    elif kind == "rollback":
        journal, _files, journaled, _report = open_journal(FileStore(), store)
        txn = journal.begin()
        for mutation in op[1]:
            mutate(journaled, mutation)
        journal.rollback(txn)
    elif kind == "outage" and shape == "replicated" and not outages:
        # One of three replicas down: W=2 writes still commit, and the
        # replica misses them — stale once revived, until a repair.
        outages.append(take_down(store, op[1]))
    elif kind == "revive" and outages:
        outages.pop().revive()
    elif kind == "repair" and shape == "replicated" and not outages:
        if op[1]:
            store.repair_pending()
        else:
            store.converge(prune=True)
    return store


@pytest.mark.parametrize("shape", ["memory", "persistent", "replicated"])
@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(sequence=st.lists(ops, max_size=12))
# A second outage while the revived replica's breaker is still open: the
# write probes it rather than settle for one ack of W=2.
@example(
    sequence=[("outage", 1)]
    + [("insert", ("sets", doc_id), {}) for doc_id in DOC_IDS]
    + [("revive",), ("outage", 0), ("insert", ("hash_info", "a"), {})]
)
def test_remembered_sizes_are_the_compact_encoding(shape, sequence):
    with tempfile.TemporaryDirectory() as directory:
        root = None if shape == "memory" else Path(directory)
        store, outages = open_shape(shape, root), []
        for op in sequence:
            store = apply(store, op, root, shape, outages)
            check_sizes(store)


# -- read-only reads --------------------------------------------------------
DOC = {"type": "update", "diff": [[0, [1, 2]], [3, [4]]], "meta": {"tags": ["x"]}}


@pytest.fixture(params=["memory", "persistent", "replicated"])
def store(request, tmp_path):
    return open_shape(request.param, tmp_path)


@pytest.mark.parametrize(
    "read",
    [
        pytest.param(lambda store: store.get("sets", "s1"), id="get"),
        pytest.param(lambda store: store.find("sets", type="update")[0][1], id="find"),
        pytest.param(lambda store: store._read_raw("sets", "s1"), id="_read_raw"),
    ],
)
def test_mutating_a_read_leaves_the_store_unchanged(store, read):
    store.insert("sets", DOC, doc_id="s1")
    document = read(store)
    assert document == DOC
    edits = (
        lambda: document["diff"][0][1].append(99),
        lambda: document["meta"]["tags"].clear(),
        lambda: document.__setitem__("type", "mutated"),
    )
    for edit in edits:
        with pytest.raises(TypeError, match="thaw"):
            edit()
    assert store.peek("sets", "s1") == DOC
    assert read(store) is document == DOC
    editable = thaw(document)
    editable["diff"][0][1].append(99)
    assert editable != DOC and read(store) == DOC
    check_sizes(store)


def test_get_charges_the_remembered_size(store):
    store.insert("sets", DOC, doc_id="s1")
    before = store.stats.snapshot()
    store.get("sets", "s1")
    assert store.stats.delta_since(before).bytes_read == compact_size(DOC)
    assert store.stored_size("sets", "s1") == compact_size(DOC)
    assert store.stored_size("sets", "missing") is None


# -- documents found at reopen ----------------------------------------------
def test_hand_indented_file_is_charged_its_compact_size(tmp_path):
    document = {"name": "café", "layers": [1, 2.5, None], "nested": {"ok": True}}
    path = tmp_path / "documents" / "sets" / "s1.json"
    path.parent.mkdir(parents=True)
    path.write_text(json.dumps(document, indent=4, ensure_ascii=False), encoding="utf-8")
    assert path.stat().st_size != compact_size(document)
    store = PersistentDocumentStore(tmp_path / "documents")
    assert store.stored_size("sets", "s1") == compact_size(document)
    assert store.total_bytes() == compact_size(document)
    before = store.stats.snapshot()
    assert store.get("sets", "s1") == document
    assert store.stats.delta_since(before).bytes_read == compact_size(document)
