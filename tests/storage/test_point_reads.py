"""The document inspection plane: ``peek`` / ``peek_collection``.

``peek`` is ``get`` minus the charge, on every store shape; a charged
``get`` costs exactly the document's compact encoding and hands back the
held document; every read is read-only — each mutator raises, the store
is unchanged, and ``thaw`` is the editable copy; and the replicated
store's unanimous-vote fast path elects the same ballot as its
canonical-encoding path.
"""

import pytest

from repro.errors import QuorumError, ReplicaUnavailableError
from repro.storage.document_store import (
    DocumentStore,
    compact_json,
    document_num_bytes,
    thaw,
)
from repro.storage.faults import (
    FaultInjector,
    FaultyDocumentStore,
    RetryingDocumentStore,
    RetryPolicy,
)
from repro.storage.file_store import FileStore
from repro.storage.journal import JournaledDocumentStore, SaveJournal
from repro.storage.persistent import PersistentDocumentStore
from repro.storage.replication import _encode

from tests.storage.test_replication import make_doc_rep, take_down

DOC = {"type": "update", "nested": {"b": [1, 2.5, None], "a": "é"}, "n": 3}


def journaled(inner):
    return JournaledDocumentStore(inner, SaveJournal(FileStore(), inner))


STORES = {
    "plain": lambda tmp: DocumentStore(),
    "persistent": lambda tmp: PersistentDocumentStore(tmp / "docs"),
    "faulty": lambda tmp: FaultyDocumentStore(DocumentStore(), FaultInjector()),
    "retrying": lambda tmp: RetryingDocumentStore(DocumentStore(), RetryPolicy()),
    "journaled": lambda tmp: journaled(DocumentStore()),
    "replicated": lambda tmp: make_doc_rep(),
}


@pytest.fixture(params=sorted(STORES))
def store(request, tmp_path):
    return STORES[request.param](tmp_path)


def counters(store):
    """Every charge a read or write could move."""
    stats = store.stats.snapshot()
    return (
        stats.reads, stats.bytes_read, stats.simulated_read_s,
        stats.writes, stats.bytes_written, stats.simulated_write_s,
    )


class TestPeekIsGetMinusTheCharge:
    def test_peek_equals_get_and_charges_nothing(self, store):
        store.insert("sets", DOC, doc_id="s1")
        before = counters(store)
        assert store.peek("sets", "s1") == DOC
        assert store.peek_collection("sets") == {"s1": DOC}
        assert store.peek("sets", "missing") is None
        assert store.peek("no-such-collection", "s1") is None
        assert store.peek_collection("no-such-collection") == {}
        assert counters(store) == before
        assert store.get("sets", "s1") == store.peek("sets", "s1")

    def test_peek_does_not_copy(self, store):
        store.insert("sets", DOC, doc_id="s1")
        assert store.peek("sets", "s1") is store.peek("sets", "s1")
        assert store.peek_collection("sets")["s1"] is store.peek("sets", "s1")

    def test_get_charges_the_compact_encoding_and_returns_the_held_document(
        self, store
    ):
        store.insert("sets", DOC, doc_id="s1")
        before = store.stats.snapshot()
        fetched = store.get("sets", "s1")
        delta = store.stats.delta_since(before)
        assert (delta.reads, delta.bytes_read) == (1, document_num_bytes(DOC))
        assert fetched is store.peek("sets", "s1")
        [(found_id, found)] = store.find("sets", type="update")
        delta = store.stats.delta_since(before)
        assert (delta.reads, delta.bytes_read) == (2, 2 * document_num_bytes(DOC))
        assert (found_id, found) == ("s1", DOC)
        assert found is fetched is store._read_raw("sets", "s1")

    def test_downed_faulty_store_refuses_peek(self):
        inner = DocumentStore()
        inner.insert("sets", DOC, doc_id="s1")
        faulty = FaultyDocumentStore(
            inner, FaultInjector(down_at=0, down_mode="before")
        )
        with pytest.raises(ReplicaUnavailableError):
            faulty.insert("trip", {"v": 0})
        with pytest.raises(ReplicaUnavailableError):
            faulty.peek("sets", "s1")
        with pytest.raises(ReplicaUnavailableError):
            faulty.peek_collection("sets")


def _raises(edit) -> bool:
    try:
        edit()
    except TypeError as error:
        return "thaw" in str(error)
    return False


#: Every mutator of a dict and of a list, as an edit of a read's part.
DICT_EDITS = {
    "setitem": lambda doc: doc.__setitem__("n", 4),
    "delitem": lambda doc: doc.__delitem__("n"),
    "ior": lambda doc: doc.__ior__({"n": 4}),
    "clear": lambda doc: doc.clear(),
    "pop": lambda doc: doc.pop("n"),
    "popitem": lambda doc: doc.popitem(),
    "setdefault": lambda doc: doc.setdefault("new", 1),
    "update": lambda doc: doc.update(n=4),
}
LIST_EDITS = {
    "setitem": lambda row: row.__setitem__(0, 9),
    "slice-setitem": lambda row: row.__setitem__(slice(0, 1), [9]),
    "delitem": lambda row: row.__delitem__(0),
    "iadd": lambda row: row.__iadd__([9]),
    "imul": lambda row: row.__imul__(2),
    "append": lambda row: row.append(9),
    "extend": lambda row: row.extend([9]),
    "insert": lambda row: row.insert(0, 9),
    "pop": lambda row: row.pop(),
    "remove": lambda row: row.remove(1),
    "reverse": lambda row: row.reverse(),
    "sort": lambda row: row.sort(),
    "clear": lambda row: row.clear(),
}
READS = {
    "get": lambda store: store.get("sets", "s1"),
    "find": lambda store: store.find("sets", type="update")[0][1],
    "_read_raw": lambda store: store._read_raw("sets", "s1"),
    "peek": lambda store: store.peek("sets", "s1"),
    "peek_collection": lambda store: store.peek_collection("sets")["s1"],
}


class TestReadsAreReadOnly:
    @pytest.mark.parametrize("read", sorted(READS))
    def test_every_mutator_raises_and_the_store_is_unchanged(self, store, read):
        store.insert("sets", DOC, doc_id="s1")
        before = counters(store)
        document = READS[read](store)
        charged = counters(store)
        refused = [
            f"{part}.{name}"
            for part, target, edits in (
                ("document", document, DICT_EDITS),
                ("nested", document["nested"], DICT_EDITS),
                ("row", document["nested"]["b"], LIST_EDITS),
            )
            for name, edit in edits.items()
            if _raises(lambda: edit(target))
        ]
        assert len(refused) == 2 * len(DICT_EDITS) + len(LIST_EDITS)
        assert counters(store) == charged
        assert READS[read](store) is document == DOC
        assert store.peek("sets", "s1") == DOC
        assert document == thaw(document)
        assert compact_json(document) == compact_json(thaw(document)) == compact_json(DOC)
        assert (charged == before) == (read in ("_read_raw", "peek", "peek_collection"))


class TestReplicatedPeek:
    def test_one_replica_down(self):
        rep = make_doc_rep()
        rep.insert("sets", DOC, doc_id="s1")
        take_down(rep, 0)
        before = counters(rep)
        assert rep.peek("sets", "s1") == DOC
        assert rep.peek_collection("sets") == {"s1": DOC}
        assert counters(rep) == before

    def test_stale_replica_is_outvoted(self):
        rep = make_doc_rep()
        rep.insert("sets", {"v": 1}, doc_id="s1")
        down = take_down(rep, 0)
        rep.replace("sets", "s1", {"v": 2})
        rep.insert("sets", {"v": 9}, doc_id="s2")
        down.revive()
        # Replica 0 missed both writes: stale s1, no s2.
        assert rep.replicas[0].store.peek("sets", "s1") == {"v": 1}
        assert rep.peek("sets", "s1") == {"v": 2} == rep.get("sets", "s1")
        assert rep.peek("sets", "s2") == {"v": 9}
        assert rep.peek_collection("sets") == {"s1": {"v": 2}, "s2": {"v": 9}}

    def test_below_read_quorum_raises(self):
        rep = make_doc_rep()
        rep.insert("sets", DOC, doc_id="s1")
        take_down(rep, 0)
        take_down(rep, 1)
        for read in (rep.peek, rep.get):
            with pytest.raises(QuorumError):
                read("sets", "s1")
        with pytest.raises(QuorumError):
            rep.peek_collection("sets")

    def test_ids_and_counts_come_from_the_uncopied_view(self):
        rep = make_doc_rep()
        rep.insert("sets", DOC, doc_id="s1")
        rep.insert("sets", DOC, doc_id="s0")
        assert rep.collection_ids("sets") == ["s0", "s1"]
        assert rep.count("sets") == 2 and rep.exists("sets", "s1")
        view = rep._collections
        assert view["sets"]["s1"] is rep.replicas[0].store.peek("sets", "s1")


def canonical_vote(rep, ballots):
    """The vote as the pre-fast-path code took it: group by encoding."""
    groups, samples = {}, {}
    for index, document in ballots:
        key = None if document is None else _encode(document)
        groups.setdefault(key, []).append(index)
        samples.setdefault(key, document)
    total = len(rep.replicas)

    def rank(item):
        key, indices = item
        absent = key is None
        return (
            len(indices),
            absent and 2 * len(indices) > total,
            not absent,
            -min(indices),
        )

    return samples[max(groups.items(), key=rank)[0]]


class TestVoteFastPath:
    @pytest.mark.parametrize(
        "ballots",
        [
            pytest.param([(0, DOC), (1, dict(DOC)), (2, dict(DOC))], id="unanimous"),
            pytest.param([(0, None), (1, None), (2, None)], id="unanimous-absent"),
            pytest.param(
                [(0, {"a": 1, "b": 2}), (1, {"b": 2, "a": 1}), (2, {"a": 1, "b": 2})],
                id="key-order",
            ),
            pytest.param(
                [(0, {"v": 1}), (1, {"v": 2}), (2, {"v": 2})], id="stale-minority"
            ),
            pytest.param([(0, None), (1, None), (2, {"v": 1})], id="absent-majority"),
            pytest.param([(0, {"v": 1}), (2, None)], id="tie-presence-wins"),
            pytest.param([(1, {"v": 1}), (2, {"v": 2})], id="tie-lowest-index"),
            pytest.param(
                [(0, {"v": 1}), (1, {"v": 1.0}), (2, {"v": True})], id="1-1.0-true"
            ),
            pytest.param([(1, {"v": 7})], id="single-ballot"),
        ],
    )
    def test_same_winner_as_the_canonical_path(self, ballots):
        rep = make_doc_rep()
        winner = rep._vote(ballots)[1]
        expected = canonical_vote(rep, ballots)
        assert winner is expected

    def test_equal_ballots_elect_the_lowest_replica_whatever_the_spelling(self):
        """The one place the paths part: ``1.0 == 1`` is unanimous to the
        fast path, a 1-vs-2 split to the encodings.  Equal either way."""
        ballots = [(0, {"v": 1.0}), (1, {"v": 1}), (2, {"v": 1})]
        rep = make_doc_rep()
        assert rep._vote(ballots) == ballots[0]
        assert rep._vote(ballots)[1] == canonical_vote(rep, ballots)

    def test_unanimous_vote_encodes_nothing(self, monkeypatch):
        rep = make_doc_rep()
        rep.insert("sets", DOC, doc_id="s1")

        def refuse(_document):
            raise AssertionError("unanimous vote must not encode")

        monkeypatch.setattr("repro.storage.replication._encode", refuse)
        assert rep.peek("sets", "s1") == DOC
        assert rep.exists("sets", "s1")
