"""Unit tests of the content-addressed chunk layer."""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.config import ArchiveConfig
from repro.errors import StorageError
from repro.storage import chunk_index
from repro.storage.chunk_index import (
    PACKS_COLLECTION,
    REFS_COLLECTION,
    REFS_DOC_ID,
    ChunkStore,
)
from repro.storage.document_store import DocumentStore
from repro.storage.file_store import FileStore
from repro.storage.hashing import DIGESTS, hash_bytes, lookup


def make_store():
    return ChunkStore(FileStore(), DocumentStore())


def refs(payloads):
    """(digest, bytes) reference pairs for a list of payloads."""
    return [(hash_bytes(p), p) for p in payloads]


def key(payload):
    """The digest id of a payload: what ``fetch`` takes and returns."""
    return int(DIGESTS.intern_many([hash_bytes(payload)])[0])


def keys(*payloads):
    return [key(payload) for payload in payloads]


class TestIngest:
    def test_unique_chunks_stored_once(self):
        store = make_store()
        a, b = b"alpha" * 100, b"beta" * 100
        report = store.ingest(refs([a, b, a, a, b]), pack_id="p0")
        assert report.chunks_total == 5
        assert report.chunks_new == 2
        assert report.chunks_deduped == 3
        assert report.bytes_new == len(a) + len(b)
        assert report.bytes_deduped == 2 * len(a) + len(b)
        assert len(store) == 2
        assert store.total_references() == 5

    def test_cross_pack_dedup_elides_file_ops(self):
        store = make_store()
        a = b"shared" * 200
        store.ingest(refs([a]), pack_id="p0")
        writes_before = store.file_store.stats.writes
        report = store.ingest(refs([a, a]), pack_id="p1")
        # Fully deduplicated save: no pack artifact, no file write at all.
        assert report.pack_artifact is None
        assert store.file_store.stats.writes == writes_before
        assert store.references(key(a)) == 3

    def test_deferred_serialization_only_for_new_chunks(self):
        store = make_store()
        a = b"x" * 64
        store.ingest(refs([a]), pack_id="p0")
        calls = []

        def produce():
            calls.append(1)
            return a

        with store.open_ingest("p1") as session:
            session.add(hash_bytes(a), produce)
        assert not calls  # dedup hit: bytes never materialized

    def test_abort_leaves_no_trace(self):
        store = make_store()
        with pytest.raises(RuntimeError):
            with store.open_ingest("p0") as session:
                session.add(hash_bytes(b"data"), b"data")
                raise RuntimeError("boom")
        assert len(store) == 0
        assert store.file_store.total_bytes() == 0
        assert not store.document_store._collections.get(PACKS_COLLECTION)

    def test_stats_counters(self):
        store = make_store()
        a, b = b"one" * 50, b"two" * 50
        store.ingest(refs([a, b, a]), pack_id="p0")
        stats = store.file_store.stats
        assert stats.chunks_total == 3
        assert stats.chunks_deduped == 1
        assert stats.chunk_bytes_deduped == len(a)
        assert stats.dedup_ratio == pytest.approx(1 / 3)


class TestFetch:
    def test_roundtrip_and_single_read_per_pack(self):
        store = make_store()
        payloads = [bytes([i]) * (100 + i) for i in range(8)]
        store.ingest(refs(payloads), pack_id="p0")
        reads_before = store.file_store.stats.reads
        out = store.fetch(keys(*payloads))
        # All chunks of one pack are adjacent: one vectored read.
        assert store.file_store.stats.reads == reads_before + 1
        for p in payloads:
            assert out[key(p)] == p

    def test_duplicate_requests_fetched_once(self):
        store = make_store()
        a = b"dup" * 100
        store.ingest(refs([a]), pack_id="p0")
        bytes_before = store.file_store.stats.bytes_read
        out = store.fetch(keys(a) * 10)
        assert store.file_store.stats.bytes_read == bytes_before + len(a)
        assert out == {key(a): a}

    def test_unknown_digest_raises(self):
        store = make_store()
        with pytest.raises(StorageError):
            store.fetch(DIGESTS.intern_many(["0" * 64]))


class TestRefcountsAndSweep:
    def test_release_then_sweep_reclaims_exactly_dead_bytes(self):
        store = make_store()
        a, b, c = b"a" * 100, b"b" * 200, b"c" * 300
        store.ingest(refs([a, b]), pack_id="p0")
        store.ingest(refs([b, c]), pack_id="p1")
        # Drop the first save's references; b stays alive via the second.
        store.release([hash_bytes(a), hash_bytes(b)])
        assert store.dead_bytes() == len(a)
        report = store.sweep()
        assert report.chunks_reclaimed == 1
        assert report.bytes_reclaimed == len(a)
        assert store.dead_bytes() == 0
        assert hash_bytes(a) not in store
        # Survivors still fetch correctly after the pack rewrite.
        out = store.fetch(keys(b, c))
        assert out[key(b)] == b and out[key(c)] == c

    def test_sweep_deletes_fully_dead_packs(self):
        store = make_store()
        a, b = b"a" * 100, b"b" * 100
        r0 = store.ingest(refs([a]), pack_id="p0")
        r1 = store.ingest(refs([b]), pack_id="p1")
        store.release([hash_bytes(a)])
        report = store.sweep()
        assert report.packs_deleted == [r0.pack_artifact]
        assert not report.packs_rewritten
        assert not store.file_store.exists(r0.pack_artifact)
        assert store.file_store.exists(r1.pack_artifact)

    def test_sweep_rewrites_mixed_packs(self):
        store = make_store()
        a, b, c = b"a" * 100, b"b" * 100, b"c" * 100
        r0 = store.ingest(refs([a, b, c]), pack_id="p0")
        store.release([hash_bytes(b)])
        report = store.sweep()
        assert report.packs_rewritten == [f"{r0.pack_artifact}-gc"]
        assert not store.file_store.exists(r0.pack_artifact)
        assert store.file_store.total_bytes() == len(a) + len(c)
        out = store.fetch(keys(a, c))
        assert out[key(a)] == a and out[key(c)] == c

    def test_sweep_noop_when_everything_alive(self):
        store = make_store()
        store.ingest(refs([b"live" * 50]), pack_id="p0")
        report = store.sweep()
        assert report.chunks_reclaimed == 0
        assert not report.packs_deleted and not report.packs_rewritten

    def test_release_unknown_digest_raises(self):
        store = make_store()
        with pytest.raises(StorageError):
            store.release(["f" * 64])


class TestPersistence:
    def test_index_rebuilds_from_document_store(self):
        file_store, document_store = FileStore(), DocumentStore()
        store = ChunkStore(file_store, document_store)
        a, b = b"a" * 123, b"b" * 456
        store.ingest(refs([a, b, a]), pack_id="p0")
        # A second ChunkStore over the same substrates sees everything.
        reopened = ChunkStore(file_store, document_store)
        assert len(reopened) == 2
        assert reopened.references(key(a)) == 2
        assert reopened.references(key(b)) == 1
        out = reopened.fetch(keys(a, b))
        assert out[key(a)] == a and out[key(b)] == b
        # And continues deduplicating against the persisted index.
        report = reopened.ingest(refs([a]), pack_id="p1")
        assert report.chunks_new == 0 and report.chunks_deduped == 1

    def test_ledger_document_tracks_refcounts(self):
        store = make_store()
        a = b"a" * 100
        store.ingest(refs([a, a]), pack_id="p0")
        ledger = store.document_store._collections[REFS_COLLECTION][REFS_DOC_ID]
        assert ledger["refs"][hash_bytes(a)] == 2
        store.release([hash_bytes(a)])
        ledger = store.document_store._collections[REFS_COLLECTION][REFS_DOC_ID]
        assert ledger["refs"][hash_bytes(a)] == 1


class TestNumpyKeys:
    def test_float32_layer_digest_matches_hash_array(self):
        # The Update approach's full-length layer hashes double as chunk
        # keys: sha256(tobytes of the contiguous float32 array).
        from repro.storage.hashing import hash_array

        rng = np.random.default_rng(7)
        arr = rng.normal(size=(16, 3)).astype(np.float32)
        payload = np.ascontiguousarray(arr, dtype=np.float32).tobytes()
        assert hash_array(arr, length=64) == hash_bytes(payload)


class TestQuarantineAndRepair:
    def test_fetch_refuses_quarantined_chunks(self):
        from repro.errors import ChunkCorruptionError

        store = make_store()
        a = b"healthy" * 100
        store.ingest(refs([a]), pack_id="p0")
        store.quarantine([hash_bytes(a)])
        with pytest.raises(ChunkCorruptionError):
            store.fetch(keys(a))
        assert store.quarantined_digests() == [hash_bytes(a)]

    def test_quarantine_unknown_digest_raises(self):
        store = make_store()
        with pytest.raises(StorageError):
            store.quarantine(["0" * 64])

    def test_fetch_verified_detects_and_quarantines(self):
        from repro.storage.faults import corrupt_artifact

        store = make_store()
        a, b = b"alpha" * 100, b"beta" * 100
        report = store.ingest(refs([a, b]), pack_id="p0")
        chunk = store.locate(hash_bytes(a))
        corrupt_artifact(store.file_store, report.pack_artifact, offset=chunk.offset)
        values, corrupted = store.fetch_verified([hash_bytes(a), hash_bytes(b)])
        assert corrupted == {hash_bytes(a)}
        assert values == {hash_bytes(b): b}
        assert store.quarantined_digests() == [hash_bytes(a)]
        # Already-quarantined chunks are reported without a read.
        _values, again = store.fetch_verified([hash_bytes(a)])
        assert again == {hash_bytes(a)}

    def test_fetch_verified_survives_a_missing_pack(self):
        store = make_store()
        a, b = b"alpha" * 100, b"beta" * 100
        r0 = store.ingest(refs([a]), pack_id="p0")
        store.ingest(refs([b]), pack_id="p1")
        store.file_store.delete(r0.pack_artifact)
        values, corrupted = store.fetch_verified([hash_bytes(a), hash_bytes(b)])
        # Only the chunks of the lost pack are damaged.
        assert corrupted == {hash_bytes(a)}
        assert values == {hash_bytes(b): b}

    def test_quarantine_survives_index_rebuild(self):
        file_store, document_store = FileStore(), DocumentStore()
        store = ChunkStore(file_store, document_store)
        a = b"alpha" * 100
        store.ingest(refs([a]), pack_id="p0")
        store.quarantine([hash_bytes(a)])
        reopened = ChunkStore(file_store, document_store)
        assert reopened.quarantined_digests() == [hash_bytes(a)]

    def test_reingest_heals_a_quarantined_chunk(self):
        store = make_store()
        a = b"alpha" * 100
        store.ingest(refs([a, a]), pack_id="p0")
        store.quarantine([hash_bytes(a)])
        report = store.ingest(refs([a]), pack_id="p1")
        # The quarantined copy counts as absent: the bytes are re-stored.
        assert report.chunks_new == 1
        assert store.quarantined_digests() == []
        assert store.references(key(a)) == 3  # prior refs preserved
        assert store.fetch(keys(a))[key(a)] == a

    def test_healed_chunk_survives_index_rebuild(self):
        # The old pack's entry is marked superseded, so a rebuild must
        # resolve the digest to the healthy replacement copy — not
        # resurrect the corrupt location.
        from repro.storage.faults import corrupt_artifact

        file_store, document_store = FileStore(), DocumentStore()
        store = ChunkStore(file_store, document_store)
        a, b = b"alpha" * 100, b"beta" * 100
        r0 = store.ingest(refs([a, b]), pack_id="p0")
        chunk = store.locate(hash_bytes(a))
        corrupt_artifact(file_store, r0.pack_artifact, offset=chunk.offset)
        store.quarantine([hash_bytes(a)])
        store.ingest(refs([a]), pack_id="p1")
        reopened = ChunkStore(file_store, document_store)
        assert reopened.quarantined_digests() == []
        out = reopened.fetch(keys(a, b))
        assert out[key(a)] == a and out[key(b)] == b

    def test_repair_replaces_the_bytes_in_place(self):
        from repro.storage.faults import corrupt_artifact

        file_store, document_store = FileStore(), DocumentStore()
        store = ChunkStore(file_store, document_store)
        a = b"alpha" * 100
        r0 = store.ingest(refs([a, a, a]), pack_id="p0")
        corrupt_artifact(file_store, r0.pack_artifact)
        store.quarantine([hash_bytes(a)])
        store.repair(hash_bytes(a), a)
        assert store.quarantined_digests() == []
        assert store.references(key(a)) == 3
        assert store.fetch(keys(a))[key(a)] == a
        # And the repair wins over the superseded pack after a rebuild.
        reopened = ChunkStore(file_store, document_store)
        assert reopened.fetch(keys(a))[key(a)] == a

    def test_repair_rejects_wrong_bytes(self):
        from repro.errors import ChunkCorruptionError

        store = make_store()
        a = b"alpha" * 100
        store.ingest(refs([a]), pack_id="p0")
        with pytest.raises(ChunkCorruptionError):
            store.repair(hash_bytes(a), b"not the content")

    def test_sweep_preserves_quarantine_flags(self):
        store = make_store()
        a, b, c = b"a" * 100, b"b" * 100, b"c" * 100
        store.ingest(refs([a, b, c]), pack_id="p0")
        store.quarantine([hash_bytes(a)])
        store.release([hash_bytes(b)])
        store.sweep()
        assert store.quarantined_digests() == [hash_bytes(a)]


class TestGCCrashConsistency:
    """Satellite: a crash mid-GC (even mid-sweep) must neither leak
    zero-reference chunks nor delete chunks a surviving set still uses."""

    def _build_archive(self, directory):
        from repro.core.manager import MultiModelManager
        from repro.core.model_set import ModelSet

        manager = MultiModelManager.open(str(directory), "update", ArchiveConfig(dedup=True))
        models = ModelSet.build("FFNN-48", num_models=3, seed=0)
        base = manager.save_set(models)
        derived = models.copy()
        derived.state(0)["0.bias"][:] += 1.0
        derived.state(2)["4.weight"][:] *= 1.5
        second = manager.save_set(derived, base_set_id=base)
        return base, second, models, derived

    def test_crash_at_every_gc_fault_point_recovers_consistent(self, tmp_path):
        import shutil

        from repro.core.fsck import ArchiveFsck
        from repro.core.manager import MultiModelManager
        from repro.core.retention import RetentionManager
        from repro.errors import SimulatedCrashError
        from repro.storage.faults import FaultInjector, inject_faults

        template = tmp_path / "template"
        base, second, models, derived = self._build_archive(template)

        # Dry run: count the pass's fault points without firing any.
        probe = tmp_path / "probe"
        shutil.copytree(template, probe)
        probe_manager = MultiModelManager.open(str(probe), "update", ArchiveConfig(dedup=True))
        injector = inject_faults(probe_manager.context, FaultInjector())
        RetentionManager(probe_manager.context).keep_last(1)
        ops = injector.ops
        assert ops > 0

        for point in range(ops):
            workdir = tmp_path / f"crash-{point}"
            shutil.copytree(template, workdir)
            manager = MultiModelManager.open(str(workdir), "update", ArchiveConfig(dedup=True))
            inject_faults(
                manager.context, FaultInjector(seed=point, crash_at=point)
            )
            with pytest.raises(SimulatedCrashError):
                RetentionManager(manager.context).keep_last(1)

            reopened = MultiModelManager.open(str(workdir), "update", ArchiveConfig(dedup=True))
            assert not reopened.recovery_report.clean
            # Both sets survive (the GC never half-applies) and recover
            # byte-identically; the chunk ledger balances exactly.
            assert reopened.list_sets() == [base, second]
            assert reopened.recover_set(base).equals(models)
            assert reopened.recover_set(second).equals(derived)
            report = ArchiveFsck(reopened.context).run()
            assert report.ok, f"crash at op {point}: {report.summary()}"

    def test_completed_gc_passes_fsck(self, tmp_path):
        from repro.core.fsck import ArchiveFsck
        from repro.core.manager import MultiModelManager
        from repro.core.retention import RetentionManager

        base, second, _models, derived = self._build_archive(tmp_path)
        manager = MultiModelManager.open(str(tmp_path), "update", ArchiveConfig(dedup=True))
        RetentionManager(manager.context).keep_last(1)
        reopened = MultiModelManager.open(str(tmp_path), "update", ArchiveConfig(dedup=True))
        assert reopened.list_sets() == [second]
        assert reopened.recover_set(second).equals(derived)
        report = ArchiveFsck(reopened.context).run()
        assert report.ok, report.summary()


#: Chunk payloads the column property draws from (the last is never stored).
PAYLOADS = [bytes([index]) * (40 + index) for index in range(6)]

#: One step: (operation, payload index or indices).
column_steps = st.lists(
    st.one_of(
        st.tuples(st.just("ingest"), st.lists(st.integers(0, 4), min_size=1, max_size=6)),
        st.tuples(st.sampled_from(["quarantine", "repair", "release"]), st.integers(0, 4)),
        st.tuples(st.sampled_from(["sweep", "rebuild"]), st.just(0)),
    ),
    max_size=14,
)


def assert_columns_match_model(store, model):
    """The id columns hold exactly ``model`` (digest -> [refs,
    quarantined]); the inspection methods agree with it; a fetch by the
    location columns returns every servable chunk's bytes; and a store
    rebuilt from the same documents has equal columns."""
    every = np.arange(len(DIGESTS), dtype=np.int64)
    stored = {hash_bytes(payload): payload for payload in PAYLOADS}
    held = np.zeros(len(DIGESTS), dtype=bool)
    quarantined = np.zeros(len(DIGESTS), dtype=bool)
    counts = np.zeros(len(DIGESTS), dtype=np.int64)
    length = np.zeros(len(DIGESTS), dtype=np.int64)
    for digest, (count, flagged) in model.items():
        ident = DIGESTS.intern(digest)
        held[ident], quarantined[ident], counts[ident] = True, flagged, count
        length[ident] = len(stored[digest])
    assert (store.held(every) == held).all()
    assert (lookup(store._quarantined, every) == quarantined).all()
    assert (store.references(every) == counts).all()
    assert (lookup(store._length, every) == length).all()
    assert len(store) == len(model) and set(store) == set(model)
    assert store.quarantined_digests() == sorted(d for d, (_, q) in model.items() if q)
    assert store.total_references() == sum(count for count, _ in model.values())
    assert store.live_bytes() == int(length[counts > 0].sum())
    assert store.dead_bytes() == int(length[held & (counts <= 0)].sum())
    assert store.stored_bytes() == int(length.sum())
    servable = [digest for digest, (_, flagged) in model.items() if not flagged]
    assert store.servable(every).tolist() == (held & ~quarantined).tolist()
    fetched = store.fetch(DIGESTS.ids(servable))
    assert {ident: bytes(data) for ident, data in fetched.items()} == {
        DIGESTS.intern(digest): stored[digest] for digest in servable
    }
    for digest in model:
        assert store.locate(digest).length == len(stored[digest])
    rebuilt = ChunkStore(store.file_store, store.document_store)
    for name in ("_held", "_quarantined", "_offset", "_length", "_refs"):
        assert (lookup(getattr(rebuilt, name), every) == lookup(getattr(store, name), every)).all()
    assert [rebuilt.locate(d) for d in model] == [store.locate(d) for d in model]
    ids = DIGESTS.intern_many(stored)
    assert DIGESTS.hexes(ids.tolist()) == list(stored)


def apply_to_model(model, kind, arg):
    """The chunk store's rules, kept as a plain dict: digest -> [refs, quarantined]."""
    if kind == "ingest":
        for index in arg:
            entry = model.setdefault(hash_bytes(PAYLOADS[index]), [0, False])
            entry[0] += 1
            entry[1] = False  # a re-stored chunk is clean again
    elif kind == "sweep":
        for digest in [d for d, (count, _) in model.items() if count <= 0]:
            del model[digest]
    elif kind != "rebuild" and hash_bytes(PAYLOADS[arg]) in model:
        entry = model[hash_bytes(PAYLOADS[arg])]
        if kind == "quarantine":
            entry[1] = True
        elif kind == "repair":
            entry[1] = False
        else:  # release: its sets are gone
            entry[0] = 0


class TestIdColumns:
    @given(steps=column_steps)
    @example(steps=[("ingest", [0, 1]), ("release", 0), ("sweep", 0)])
    @example(steps=[("ingest", [0]), ("quarantine", 0), ("repair", 0), ("rebuild", 0)])
    @example(steps=[("ingest", [0]), ("quarantine", 0), ("ingest", [0])])
    @example(steps=[("ingest", [0, 1, 2]), ("quarantine", 1), ("release", 0), ("sweep", 0)])
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_columns_equal_a_dict_model_after_any_sequence(self, steps):
        store, model = make_store(), {}
        assert_columns_match_model(store, model)
        for number, (kind, arg) in enumerate(steps):
            single = kind in ("quarantine", "repair", "release")
            digest = hash_bytes(PAYLOADS[arg]) if single else None
            entry = model.get(digest)
            if kind == "ingest":
                store.ingest(refs([PAYLOADS[i] for i in arg]), pack_id=f"p{number}")
            elif kind == "rebuild":
                store = ChunkStore(store.file_store, store.document_store)
            elif kind == "sweep":
                store.sweep()
            elif kind == "quarantine" and entry is not None:
                store.quarantine([digest])
            elif kind == "repair" and entry is not None and entry[1]:
                store.repair(digest, PAYLOADS[arg])
            elif kind == "release" and entry is not None and entry[0] > 0:
                store.release([digest] * entry[0])
            apply_to_model(model, kind, arg)
            assert_columns_match_model(store, model)

    def test_listeners_hear_ids(self):
        store = make_store()
        heard = []
        store.invalidation_listeners.append(lambda ids: heard.append(ids.tolist()))
        store.ingest(refs(PAYLOADS[:2]), pack_id="p0")
        first, second = DIGESTS.intern_many(hash_bytes(p) for p in PAYLOADS[:2]).tolist()
        store.quarantine([hash_bytes(PAYLOADS[0])])
        store.release([hash_bytes(PAYLOADS[1])])
        store.sweep()
        assert heard == [[first], [second]]


@st.composite
def located_requests(draw):
    """Chunk locations laid out like packs (each pack's chunks back to
    back, zero-length chunks included) and a request with repeats."""
    columns = {"pack": [], "offset": [], "length": []}
    for number in range(draw(st.integers(1, 4))):
        offset = 0
        for length in draw(st.lists(st.integers(0, 5), min_size=1, max_size=12)):
            columns["pack"].append(number)
            columns["offset"].append(offset)
            columns["length"].append(length)
            offset += length
    count = len(columns["pack"])
    request = draw(st.lists(st.integers(0, count - 1), min_size=1, max_size=3 * count))
    ids = np.asarray(request, dtype=np.int64)
    return ids, *(np.asarray(columns[name], dtype=np.int64)[ids] for name in columns)


class TestReadPlan:
    @given(located=located_requests())
    @settings(max_examples=200, deadline=None)
    def test_small_and_large_reads_plan_alike(self, located):
        small = chunk_index._group_reads(*located)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(chunk_index, "SMALL_IDS", 0)
            large = chunk_index._group_reads(*located)
        assert small == large
        ids, pack, offset, length = located
        where = dict(zip(ids.tolist(), zip(pack.tolist(), offset.tolist(), length.tolist())))
        # Packs in order of first request; every id once; slots address it.
        assert [number for number, *_ in small] == list(dict.fromkeys(pack.tolist()))
        assert sorted(i for *_, chunk_ids, _slots in small for i in chunk_ids) == sorted(where)
        for number, ranges, chunk_ids, slots in small:
            for ident, (index, start, size) in zip(chunk_ids, slots):
                assert where[ident] == (number, ranges[index][0] + start, size)
            # Only exactly adjacent chunks share a range: none touches the next.
            assert all(a + n < b for (a, n), (b, _) in zip(ranges, ranges[1:]))
