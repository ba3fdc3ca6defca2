"""Tests for the JSON document store."""

import pytest

from repro.errors import DocumentNotFoundError
from repro.storage.document_store import (
    DocumentStore,
    FrozenDict,
    FrozenList,
    compact_json,
    document_num_bytes,
    load_frozen,
    thaw,
)
from repro.storage.hardware import SERVER_PROFILE


DOCUMENT = {
    "type": "update",
    "diff": [[0, [1, 2]], [3, [4]]],
    "schema": {"entries": [["0.weight", [48, 4]], ["0.bias", [48]]]},
    "hashes": [["aa", "bb"], ["cc", "dd"]],
    "metadata": {"tags": ["x"], "extra": {}, "note": "café", "score": 2.5, "ok": None},
    "rows": [],
}


def nodes(value):
    """Every dict and list in a JSON tree, the root first."""
    if isinstance(value, (dict, list)):
        yield value
        for child in value.values() if isinstance(value, dict) else value:
            yield from nodes(child)


class TestFrozenDocuments:
    @pytest.mark.parametrize(
        "document",
        [
            DOCUMENT,
            {"refs": {"aa": 1, "bb": 2}, "note": "[no array here]"},
            {"matrix": [[], ["a"], [{"deep": [1, [2]]}]]},
            {"rows": [[1, 2], [3]], "mixed": [0, [1, {"k": [[]]}]]},
        ],
        ids=["descriptor", "no-arrays", "objects-in-rows", "rows-and-mixed"],
    )
    def test_every_dict_and_list_is_frozen(self, document):
        frozen = load_frozen(compact_json(document))
        assert frozen == document
        assert compact_json(frozen) == compact_json(document)
        kinds = {type(node) for node in nodes(frozen)}
        assert kinds <= {FrozenDict, FrozenList} and FrozenDict in kinds

    def test_equal_to_and_encoded_like_the_plain_tree(self):
        frozen = load_frozen(compact_json(DOCUMENT))
        assert frozen == DOCUMENT and DOCUMENT == frozen
        assert list(frozen) == list(DOCUMENT)
        assert compact_json(frozen) == compact_json(DOCUMENT)

    def test_thaw_is_a_plain_editable_copy(self):
        frozen = load_frozen(compact_json(DOCUMENT))
        plain = thaw(frozen)
        assert plain == frozen
        assert {type(node) for node in nodes(plain)} == {dict, list}
        plain["diff"][0][1].append(9)
        assert frozen == DOCUMENT

    def test_copies_stay_equal(self):
        import copy
        import pickle

        frozen = load_frozen(compact_json(DOCUMENT))
        for clone in (copy.copy(frozen), copy.deepcopy(frozen),
                      pickle.loads(pickle.dumps(frozen))):
            assert clone == DOCUMENT
            assert compact_json(clone) == compact_json(DOCUMENT)

    def test_derive_builds_once_per_object(self):
        frozen = load_frozen(compact_json(DOCUMENT))
        calls = []

        def build(document):
            calls.append(document)
            return len(document["diff"])

        assert frozen.derive(build) == frozen.derive(build) == 2
        assert calls == [frozen]
        assert load_frozen(compact_json(DOCUMENT)).derive(build) == 2
        assert len(calls) == 2

    def test_concurrent_derive_returns_the_built_value(self):
        import sys
        import threading

        frozen = load_frozen(compact_json({"rows": [[i] * 8 for i in range(64)]}))
        expected = sum(map(sum, frozen["rows"]))
        results, interval = [], sys.getswitchinterval()

        def total(document):
            return sum(map(sum, document["rows"]))

        def worker():
            for _ in range(200):
                results.append(frozen.derive(total))

        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [expected] * 1600

    def test_replace_holds_a_new_object(self):
        store = DocumentStore()
        store.insert("c", {"v": 1}, doc_id="d")
        before = store.get("c", "d")
        store.replace("c", "d", {"v": 2})
        assert store.get("c", "d") is not before
        assert (before, store.get("c", "d")) == ({"v": 1}, {"v": 2})


class TestInsertGet:
    def test_roundtrip(self):
        store = DocumentStore()
        doc_id = store.insert("models", {"name": "m1", "params": 42})
        assert store.get("models", doc_id) == {"name": "m1", "params": 42}

    def test_explicit_doc_id(self):
        store = DocumentStore()
        assert store.insert("c", {"a": 1}, doc_id="chosen") == "chosen"
        assert store.get("c", "chosen") == {"a": 1}

    def test_generated_ids_are_unique(self):
        store = DocumentStore()
        ids = {store.insert("c", {"i": i}) for i in range(100)}
        assert len(ids) == 100

    def test_missing_document_raises(self):
        store = DocumentStore()
        store.insert("c", {})
        with pytest.raises(DocumentNotFoundError):
            store.get("c", "ghost")
        with pytest.raises(DocumentNotFoundError):
            store.get("other-collection", "ghost")

    def test_returned_document_is_read_only(self):
        store = DocumentStore()
        doc_id = store.insert("c", {"nested": {"x": 1}})
        fetched = store.get("c", doc_id)
        with pytest.raises(TypeError, match="thaw"):
            fetched["nested"]["x"] = 99
        assert store.get("c", doc_id) is fetched
        assert fetched["nested"]["x"] == 1
        editable = thaw(fetched)
        editable["nested"]["x"] = 99
        assert store.get("c", doc_id)["nested"]["x"] == 1

    def test_inserted_document_decoupled_from_caller(self):
        store = DocumentStore()
        document = {"values": [1, 2]}
        doc_id = store.insert("c", document)
        document["values"].append(3)
        assert store.get("c", doc_id)["values"] == [1, 2]

    def test_non_json_document_rejected(self):
        store = DocumentStore()
        with pytest.raises(TypeError):
            store.insert("c", {"bad": object()})


class TestInspection:
    def test_collections_and_counts(self):
        store = DocumentStore()
        store.insert("b", {}, doc_id="1")
        store.insert("a", {}, doc_id="2")
        store.insert("a", {}, doc_id="3")
        assert store.collections() == ["a", "b"]
        assert store.count("a") == 2
        assert store.collection_ids("a") == ["2", "3"]
        assert store.exists("b", "1") and not store.exists("b", "9")

    def test_total_bytes_matches_compact_json(self):
        store = DocumentStore()
        doc = {"k": "v", "n": 1}
        store.insert("c", doc)
        assert store.total_bytes() == document_num_bytes(doc)


class TestAccounting:
    def test_write_counts_compact_json_bytes(self):
        store = DocumentStore()
        doc = {"key": "value"}
        store.insert("c", doc, category="metadata")
        expected = document_num_bytes(doc)
        assert store.stats.bytes_written == expected
        assert store.stats.bytes_by_category == {"metadata": expected}

    def test_read_counts(self):
        store = DocumentStore()
        doc_id = store.insert("c", {"key": "value"})
        store.get("c", doc_id)
        assert store.stats.reads == 1
        assert store.stats.bytes_read == document_num_bytes({"key": "value"})

    def test_per_operation_latency(self):
        store = DocumentStore(profile=SERVER_PROFILE)
        for i in range(10):
            store.insert("c", {"i": i})
        # 10 round trips: the fixed per-op latency dominates tiny docs.
        assert store.stats.simulated_write_s >= 10 * SERVER_PROFILE.doc_write_latency_s

    def test_delta_since_snapshot(self):
        store = DocumentStore()
        store.insert("c", {"a": 1})
        before = store.stats.snapshot()
        store.insert("c", {"b": 2}, category="hash-info")
        delta = store.stats.delta_since(before)
        assert delta.writes == 1
        assert delta.bytes_written == document_num_bytes({"b": 2})
        assert delta.bytes_by_category == {"hash-info": document_num_bytes({"b": 2})}
