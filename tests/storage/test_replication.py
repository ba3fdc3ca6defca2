"""Unit tests of the quorum replication layer.

Covers the write/read quorum math, circuit-breaker health tracking,
failover and hedged reads, repair queues, the document majority vote,
and the divergence diff that feeds the scrubber.
"""

import pytest

from repro.errors import (
    ArtifactCorruptionError,
    ArtifactNotFoundError,
    DocumentNotFoundError,
    DuplicateArtifactError,
    QuorumError,
    ReplicaUnavailableError,
    SimulatedCrashError,
)
from repro.storage import replication
from repro.storage.document_store import DocumentStore, document_num_bytes
from repro.storage.faults import FaultInjector, FaultyDocumentStore, FaultyFileStore
from repro.storage.file_store import FileStore
from repro.storage.hardware import LOCAL_PROFILE, SERVER_PROFILE
from repro.storage.replication import (
    ReplicatedDocumentStore,
    ReplicatedFileStore,
    ReplicationPolicy,
    default_quorums,
    replica_divergence,
)


def make_file_rep(n=3, profile=LOCAL_PROFILE, injectors=None, **kwargs):
    """N-way replicated in-memory file store, optionally fault-wrapped."""
    stores = []
    for index in range(n):
        store = FileStore(profile=profile)
        if injectors and index in injectors:
            store = FaultyFileStore(store, injectors[index])
        stores.append(store)
    return ReplicatedFileStore(stores, **kwargs)


def make_doc_rep(n=3, profile=LOCAL_PROFILE, injectors=None, **kwargs):
    """N-way replicated document store, optionally fault-wrapped."""
    stores = []
    for index in range(n):
        store = DocumentStore(profile=profile)
        if injectors and index in injectors:
            store = FaultyDocumentStore(store, injectors[index])
        stores.append(store)
    return ReplicatedDocumentStore(stores, **kwargs)


def take_down(rep, index, seed=9):
    """Trip an immediate outage on one replica of a document set."""
    down = FaultInjector(seed=seed, down_at=0, down_mode="before")
    rep.replicas[index].store = FaultyDocumentStore(
        rep.replicas[index].store, down
    )
    try:
        rep.replicas[index].store.insert("trip", {"v": 0})
    except Exception:
        pass
    return down


class TestQuorumMath:
    def test_default_quorums_overlap(self):
        for n in range(1, 8):
            w, r = default_quorums(n)
            assert w + r == n + 1  # read/write quorums always intersect
            assert 1 <= w <= n and 1 <= r <= n

    def test_invalid_quorums_rejected(self):
        with pytest.raises(ValueError):
            make_file_rep(3, write_quorum=4)
        with pytest.raises(ValueError):
            make_file_rep(3, read_quorum=0)
        with pytest.raises(ValueError):
            ReplicatedFileStore([])


class TestQuorumWrites:
    def test_put_fans_to_every_replica(self):
        rep = make_file_rep(3)
        artifact = rep.put(b"payload", artifact_id="a1")
        for state in rep.replicas:
            assert state.store.exists(artifact)
            assert state.store.get(artifact) == b"payload"
        assert rep.stats.writes == 1  # one logical write at the layer

    def test_write_charge_is_quorum_completion(self):
        rep = make_file_rep(3, profile=SERVER_PROFILE)
        rep.replicas[0].latency_factor = 1.0
        rep.replicas[1].latency_factor = 3.0
        rep.replicas[2].latency_factor = 10.0
        data = b"x" * 4096
        rep.put(data, artifact_id="a1")
        # W=2: completion is the 2nd-fastest ack, not the slowest.
        expected = rep.replicas[0].store._write_cost(len(data), 1) * 3.0
        assert rep.stats.simulated_write_s == pytest.approx(expected)

    def test_write_succeeds_with_one_replica_down(self):
        down = FaultInjector(seed=1, down_at=0, down_mode="before")
        rep = make_file_rep(3, injectors={1: down})
        artifact = rep.put(b"data", artifact_id="a1")
        assert rep.exists(artifact)
        assert rep.pending_repairs() == {"replica-1": {"a1": "put"}}

    def test_write_fails_below_quorum(self):
        injectors = {
            1: FaultInjector(seed=1, down_at=0, down_mode="before"),
            2: FaultInjector(seed=2, down_at=0, down_mode="before"),
        }
        rep = make_file_rep(3, injectors=injectors)
        with pytest.raises(QuorumError):
            rep.put(b"data", artifact_id="a1")

    def test_repair_pending_heals_revived_replica(self):
        down = FaultInjector(seed=1, down_at=0, down_mode="before")
        rep = make_file_rep(3, injectors={1: down})
        rep.put(b"data", artifact_id="a1")
        down.revive()
        report = rep.repair_pending()
        assert ("replica-1", "a1") in report["repaired"]
        assert rep.pending_repairs() == {}
        assert rep.replicas[1].store.get("a1") == b"data"

    def test_repair_still_down_is_deferred(self):
        down = FaultInjector(seed=1, down_at=0, down_mode="before")
        rep = make_file_rep(3, injectors={1: down})
        rep.put(b"data", artifact_id="a1")
        report = rep.repair_pending()
        assert ("replica-1", "a1") in report["deferred"]
        assert rep.pending_repairs() == {"replica-1": {"a1": "put"}}

    def test_duplicate_raised_only_when_committed(self):
        rep = make_file_rep(3)
        rep.put(b"data", artifact_id="a1")
        with pytest.raises(DuplicateArtifactError):
            rep.put(b"data", artifact_id="a1")

    def test_stale_divergent_copy_is_overwritten(self):
        rep = make_file_rep(3)
        # A minority leftover from a failed earlier write, different bytes.
        rep.replicas[0].store.put(b"stale", artifact_id="a1")
        rep.put(b"fresh", artifact_id="a1")
        for state in rep.replicas:
            assert state.store.get("a1") == b"fresh"

    def test_delete_queues_repair_for_down_replica(self):
        down = FaultInjector(seed=1, down_at=1, down_mode="before")
        rep = make_file_rep(3, injectors={1: down})
        rep.put(b"data", artifact_id="a1")
        rep.delete("a1")
        assert rep.pending_repairs() == {"replica-1": {"a1": "delete"}}
        down.revive()
        rep.repair_pending()
        assert not rep.replicas[1].store.exists("a1")

    def test_delete_requires_write_quorum(self):
        # Both down at their second mutating op: the delete after the put.
        injectors = {
            1: FaultInjector(seed=1, down_at=1, down_mode="before"),
            2: FaultInjector(seed=2, down_at=1, down_mode="before"),
        }
        rep = make_file_rep(3, injectors=injectors)
        rep.put(b"data", artifact_id="a1")
        with pytest.raises(QuorumError):
            rep.delete("a1")
        # A minority delete must not report success: when the outage
        # ends, the majority still serves the artifact.
        for injector in injectors.values():
            injector.revive()
        assert rep.exists("a1")
        assert rep.get("a1") == b"data"


class TestCircuitBreaker:
    def make_down_rep(self):
        down = FaultInjector(seed=1, down_at=0, down_mode="before")
        policy = ReplicationPolicy(failure_threshold=3, probe_interval_ops=4)
        rep = make_file_rep(3, injectors={1: down}, policy=policy)
        return rep, down

    def test_breaker_opens_after_consecutive_failures(self):
        rep, _down = self.make_down_rep()
        for index in range(3):
            rep.put(b"d" * (index + 1), artifact_id=f"a{index}")
        state = rep.replicas[1]
        assert state.breaker.open and state.breaker.trips == 1

    def test_open_breaker_skips_replica_without_contact(self):
        rep, down = self.make_down_rep()
        for index in range(3):
            rep.put(b"d", artifact_id=f"a{index}")
        ops_before = down.ops
        rep.put(b"d", artifact_id="skipped")
        # The downed replica was not even contacted (no op consumed).
        assert down.ops == ops_before
        assert "skipped" in rep.pending_repairs()["replica-1"]

    def test_half_open_probe_closes_breaker_on_recovery(self):
        rep, down = self.make_down_rep()
        for index in range(3):
            rep.put(b"d", artifact_id=f"a{index}")
        down.revive()
        # probe_interval_ops=4: three skips, then the probe succeeds.
        for index in range(4):
            rep.put(b"d", artifact_id=f"b{index}")
        assert not rep.replicas[1].breaker.open
        assert rep.replicas[1].store.exists("b3")


class TestFailoverReads:
    def test_read_fails_over_when_copy_missing(self):
        rep = make_file_rep(3)
        rep.put(b"data", artifact_id="a1")
        rep.replicas[0].store.delete("a1")
        assert rep.get("a1") == b"data"
        assert rep.stats.read_failovers == 1
        assert rep.pending_repairs() == {"replica-0": {"a1": "put"}}

    def test_read_fails_over_on_corrupt_copy(self):
        rep = make_file_rep(3)
        rep.put(b"data", artifact_id="a1")
        # Rot the preferred replica's bytes behind its recorded digest.
        rep.replicas[0].store._blobs["a1"] = b"rotten-bytes"
        assert rep.get("a1") == b"data"
        assert rep.stats.read_failovers == 1
        assert "a1" in rep.pending_repairs()["replica-0"]

    def test_read_raises_corruption_when_every_copy_rotten(self):
        rep = make_file_rep(3)
        rep.put(b"data", artifact_id="a1")
        for state in rep.replicas:
            state.store._blobs["a1"] = b"rotten"
        with pytest.raises(ArtifactCorruptionError):
            rep.get("a1")

    def test_missing_everywhere_raises_not_found(self):
        rep = make_file_rep(3)
        with pytest.raises(ArtifactNotFoundError):
            rep.get("nope")

    def test_get_ranges_verifies_serving_replica(self):
        rep = make_file_rep(3)
        rep.put(bytes(range(200)), artifact_id="a1")
        rep.replicas[0].store._blobs["a1"] = bytes(200)  # silent rot
        [chunk] = rep.get_ranges("a1", [(10, 5)])
        assert chunk == bytes(range(10, 15))
        assert rep.stats.read_failovers == 1


class TestHedgedReads:
    def make_hedged_rep(self, hedge_threshold_s):
        policy = ReplicationPolicy(
            hedge_threshold_s=hedge_threshold_s, hedge_delay_s=0.0001
        )
        rep = make_file_rep(3, profile=SERVER_PROFILE, policy=policy)
        # The router prefers replica 0 on believed (profile) cost, but it
        # is secretly degraded — exactly the regime hedging targets.
        rep.replicas[0].latency_factor = 50.0
        return rep

    def test_hedge_wins_against_degraded_primary(self):
        rep = self.make_hedged_rep(hedge_threshold_s=0.0)
        data = b"x" * (1 << 16)
        rep.put(data, artifact_id="a1")
        writes = rep.stats.snapshot()
        assert rep.get("a1") == data
        assert rep.stats.hedged_reads == 1
        read_s = rep.stats.simulated_read_s
        base = rep.replicas[0].store._read_cost(len(data), 1)
        assert read_s == pytest.approx(0.0001 + base)  # winner, not 50x
        assert rep.stats.reads == writes.reads + 1

    def test_hedging_disabled_by_default(self):
        rep = make_file_rep(3, profile=SERVER_PROFILE)
        rep.replicas[0].latency_factor = 50.0
        data = b"x" * (1 << 16)
        rep.put(data, artifact_id="a1")
        rep.get("a1")
        assert rep.stats.hedged_reads == 0

    def test_no_hedge_under_threshold(self):
        rep = self.make_hedged_rep(hedge_threshold_s=1e9)
        rep.put(b"x" * 1024, artifact_id="a1")
        rep.get("a1")
        assert rep.stats.hedged_reads == 0


class TestReplicatedWriter:
    def test_streamed_write_replicates(self):
        rep = make_file_rep(3)
        with rep.open_writer("a1") as writer:
            writer.write(b"part-one-")
            writer.write(b"part-two")
        for state in rep.replicas:
            assert state.store.get("a1") == b"part-one-part-two"
        assert rep.stats.writes == 1

    def test_writer_survives_mid_stream_replica_loss(self):
        down = FaultInjector(seed=1, down_at=0, down_mode="before")
        rep = make_file_rep(3, injectors={1: down})
        writer = rep.open_writer("a1")
        writer.write(b"one")
        # Replica-1 goes down between chunks; its writer dies mid-stream.
        with pytest.raises(Exception):
            rep.replicas[1].store.delete("whatever")
        assert down.down
        writer.write(b"two")
        artifact = writer.close()
        assert rep.get(artifact) == b"onetwo"
        assert "a1" in rep.pending_repairs()["replica-1"]

    def test_abort_leaves_no_copies(self):
        rep = make_file_rep(3)
        writer = rep.open_writer("a1")
        writer.write(b"partial")
        writer.abort()
        for state in rep.replicas:
            assert not state.store.exists("a1")


class TestDocumentMajority:
    def test_insert_pre_draws_one_id_for_all_replicas(self):
        rep = make_doc_rep(3)
        doc_id = rep.insert("c", {"v": 1})
        for state in rep.replicas:
            assert state.store.get("c", doc_id) == {"v": 1}

    def test_stale_minority_value_is_outvoted(self):
        rep = make_doc_rep(3)
        doc_id = rep.insert("c", {"v": 1})
        rep.replicas[0].store._write_raw("c", doc_id, {"v": 999})
        assert rep.get("c", doc_id) == {"v": 1}

    def test_uncommitted_minority_write_is_invisible(self):
        rep = make_doc_rep(3)
        rep.replicas[2].store._write_raw("c", "ghost", {"v": 1})
        assert not rep.exists("c", "ghost")
        assert rep.collection_ids("c") == []
        with pytest.raises(DocumentNotFoundError):
            rep.get("c", "ghost")

    def test_replace_heals_replica_that_missed_insert(self):
        rep = make_doc_rep(3)
        doc_id = rep.insert("c", {"v": 1})
        rep.replicas[1].store._delete_raw("c", doc_id)
        rep.replace("c", doc_id, {"v": 2})
        for state in rep.replicas:
            assert state.store.get("c", doc_id) == {"v": 2}

    def test_read_quorum_enforced(self):
        rep = make_doc_rep(3, read_quorum=3)
        doc_id = rep.insert("c", {"v": 1})
        # Make one replica unreachable to the majority read.
        take_down(rep, 0)
        with pytest.raises(QuorumError):
            rep.get("c", doc_id)

    def test_collection_reads_enforce_read_quorum(self):
        rep = make_doc_rep(3, read_quorum=3)
        rep.insert("c", {"v": 1})
        take_down(rep, 0)
        # find()/collection_ids()/count() must refuse below R like get(),
        # not silently serve a single replica's possibly stale state.
        with pytest.raises(QuorumError):
            rep.find("c", v=1)
        with pytest.raises(QuorumError):
            rep.collection_ids("c")
        with pytest.raises(QuorumError):
            rep.count("c")

    def test_insert_queues_repair_for_down_replica(self):
        down = FaultInjector(seed=1, down_at=0, down_mode="before")
        rep = make_doc_rep(3, injectors={2: down})
        doc_id = rep.insert("c", {"v": 1})
        assert rep.pending_repairs() == {"replica-2": {f"c/{doc_id}": "put"}}
        down.revive()
        report = rep.repair_pending()
        assert ("replica-2", f"c/{doc_id}") in report["repaired"]
        assert rep.pending_repairs() == {}
        assert rep.replicas[2].store.get("c", doc_id) == {"v": 1}

    def test_doc_repair_still_down_is_deferred(self):
        down = FaultInjector(seed=1, down_at=0, down_mode="before")
        rep = make_doc_rep(3, injectors={2: down})
        doc_id = rep.insert("c", {"v": 1})
        report = rep.repair_pending()
        assert ("replica-2", f"c/{doc_id}") in report["deferred"]
        assert rep.pending_repairs() == {"replica-2": {f"c/{doc_id}": "put"}}

    def test_committed_doc_readable_while_one_holder_down(self):
        # Insert commits at W=2 on replicas 0 and 1 (replica 2 down)…
        down = FaultInjector(seed=1, down_at=0, down_mode="before")
        rep = make_doc_rep(3, injectors={2: down})
        doc_id = rep.insert("c", {"v": 1})
        down.revive()
        # …then replica 1 — an acker — goes down.  R=2 replicas are
        # reachable and W + R > N, so the committed document must be
        # served despite the 1-1 presence/absence tie among them.
        take_down(rep, 1)
        assert rep.get("c", doc_id) == {"v": 1}
        assert rep.exists("c", doc_id)
        assert doc_id in rep.collection_ids("c")

    def test_tie_breaks_toward_absence_only_on_majority_of_n(self):
        rep = make_doc_rep(3)
        # 1-1 tie with one replica silent: presence wins — absence is
        # not a majority of N, so a write quorum may have committed it.
        assert rep._vote([(0, {"v": 1}), (2, None)]) == (0, {"v": 1})
        # Absence held by a majority of N proves no W=2 commit happened.
        assert rep._vote([(0, {"v": 1}), (1, None), (2, None)])[1] is None

    def test_id_counter_resumes_past_all_replicas(self):
        stores = [DocumentStore(profile=LOCAL_PROFILE) for _ in range(3)]
        stores[1]._write_raw("c", "doc-00000041", {"v": 1})
        rep = ReplicatedDocumentStore(stores)
        assert rep.insert("c", {"v": 2}) == "doc-00000042"



class TestVoteMemo:
    """A unanimous vote over held documents is remembered; the same
    objects cast again skip the comparison, and anything else re-votes."""

    def test_a_new_object_on_one_replica_is_voted_afresh(self):
        rep = make_doc_rep(3)
        doc_id = rep.insert("c", {"v": 1})
        assert rep.get("c", doc_id) == {"v": 1}
        assert ("c", doc_id) in rep._unanimous
        # Through the replica's own store: a new held object, not an edit.
        rep.replicas[0].store.replace("c", doc_id, {"v": 2})
        assert rep.get("c", doc_id) == {"v": 1}
        assert ("c", doc_id) not in rep._unanimous
        rep.replicas[1].store.replace("c", doc_id, {"v": 2})
        assert rep.get("c", doc_id) == {"v": 2}
        assert rep.peek_collection("c") == {doc_id: {"v": 2}}

    def test_a_replace_is_read_back(self):
        rep = make_doc_rep(3)
        doc_id = rep.insert("c", {"v": 1})
        assert rep.peek("c", doc_id) == {"v": 1}
        rep.replace("c", doc_id, {"v": 3})
        assert rep.get("c", doc_id) == {"v": 3}

    def test_the_store_writes_forget_the_memo(self):
        rep = make_doc_rep(3)
        doc_id = rep.insert("c", {"v": 1})
        for write in (
            lambda: rep.replace("c", doc_id, {"v": 2}),
            lambda: rep._write_raw("c", doc_id, {"v": 3}),
            lambda: rep._delete_raw("c", doc_id),
        ):
            assert rep.peek("c", doc_id) is not None
            assert ("c", doc_id) in rep._unanimous
            write()
            assert ("c", doc_id) not in rep._unanimous
        assert rep.peek("c", doc_id) is None
        other = rep.insert("c", {"v": 4})
        assert rep.get("c", other) == {"v": 4}
        rep.delete("c", other)
        assert ("c", other) not in rep._unanimous
        assert not rep.exists("c", other)

    def test_only_held_documents_are_remembered(self):
        rep = make_doc_rep(3)
        assert rep._vote([(0, {"v": 1}), (1, {"v": 1})], ("c", "plain")) == (0, {"v": 1})
        assert rep.peek("c", "absent") is None
        assert rep._unanimous == {}

class TestDivergenceDiff:
    def test_clean_replicas_report_nothing(self):
        file_rep, doc_rep = make_file_rep(3), make_doc_rep(3)
        file_rep.put(b"data", artifact_id="a1")
        doc_rep.insert("c", {"v": 1})
        assert replica_divergence(file_rep, doc_rep, deep=True) == []

    def test_divergence_names_the_straggler(self):
        file_rep, doc_rep = make_file_rep(3), make_doc_rep(3)
        file_rep.put(b"data", artifact_id="a1")
        doc_id = doc_rep.insert("c", {"v": 1})
        file_rep.replicas[2].store.delete("a1")
        file_rep.replicas[2].store.put(b"junk", artifact_id="orphan")
        doc_rep.replicas[2].store._write_raw("c", doc_id, {"v": 9})
        [entry] = replica_divergence(file_rep, doc_rep)
        assert entry["replica"] == "replica-2"
        assert entry["missing_artifacts"] == ["a1"]
        assert entry["extra_artifacts"] == ["orphan"]
        assert entry["divergent_documents"] == 1

    def test_deep_diff_catches_torn_bytes_behind_honest_digest(self):
        file_rep = make_file_rep(3)
        file_rep.put(b"data", artifact_id="a1")
        store = file_rep.replicas[1].store
        store._blobs["a1"] = b"da"  # torn: digest record still intact
        assert replica_divergence(file_rep, None) == []
        [entry] = replica_divergence(file_rep, None, deep=True)
        assert entry["divergent_artifacts"] == ["a1"]


# -- the fan-out contract, once for all ten mutating entry points -----------
DATA = b"x" * 4096
DOC = {"v": 1, "pad": "y" * 256}
FACTORS = (1.0, 3.0, 10.0)


class Scripted:
    """Backend proxy whose mutations follow a switchable script.

    ``script["fail"]`` (an exception instance or ``None``) is raised by
    every mutating call — of the store and of the writers it opened —
    and ``script["calls"]`` counts the mutations that reached it.
    """

    MUTATIONS = frozenset(
        "put open_writer delete insert replace _write_raw _delete_raw "
        "write close".split()
    )

    def __init__(self, inner, script=None):
        self._target = inner
        self.script = {"fail": None, "calls": 0} if script is None else script

    def __getattr__(self, name):
        attr = getattr(self._target, name)
        if name not in self.MUTATIONS:
            return attr

        def call(*args, **kwargs):
            self.script["calls"] += 1
            if self.script["fail"] is not None:
                raise self.script["fail"]
            result = attr(*args, **kwargs)
            if name == "open_writer":
                return Scripted(result, self.script)
            return result

        return call


def scripted_rep(kind):
    backends = [
        Scripted(FileStore(profile=SERVER_PROFILE) if kind == "file"
                 else DocumentStore(profile=SERVER_PROFILE))
        for _ in FACTORS
    ]
    cls = ReplicatedFileStore if kind == "file" else ReplicatedDocumentStore
    rep = cls(backends)  # N=3, W=2
    for state, factor in zip(rep.replicas, FACTORS):
        state.latency_factor = factor
    return rep


def _file_cost(rep):
    return rep.replicas[0].store._write_cost(len(DATA), 1)


def _doc_cost(rep):
    size = document_num_bytes(DOC)
    return rep.profile.doc_write_cost(size)


def _open(rep, box):
    box["writer"] = rep.open_writer("k")


def _open_and_write(rep, box):
    _open(rep, box)
    box["writer"].write(DATA)


def _finish_stream(rep, box):
    # Leftover of an earlier chunk-less stream: complete it healthy.
    if box["writer"]._num_bytes == 0:
        box["writer"].write(DATA)
    box["writer"].close()


#: name -> (store kind, repair key, op queued for a missed replica,
#: gated, acks needed, charged base cost or None, setup, act, finish).
#: ``finish`` completes a stream so the deferred repair notes land.
ENTRY_POINTS = {
    "file.put": (
        "file", "k", "put", True, 2, _file_cost, None,
        lambda rep, box: rep.put(DATA, artifact_id="k"), None,
    ),
    "file.open_writer": (
        "file", "k", "put", True, 1, None, None, _open, _finish_stream,
    ),
    "writer.write": (
        "file", "k", "put", False, 1, None, _open,
        lambda rep, box: box["writer"].write(DATA), _finish_stream,
    ),
    "writer.close": (
        "file", "k", "put", False, 2, _file_cost, _open_and_write,
        lambda rep, box: box["writer"].close(), None,
    ),
    "file.delete": (
        "file", "k", "delete", True, 2, None,
        lambda rep, box: rep.put(DATA, artifact_id="k"),
        lambda rep, box: rep.delete("k"), None,
    ),
    "doc.insert": (
        "doc", ("c", "k"), "put", True, 2, _doc_cost, None,
        lambda rep, box: rep.insert("c", DOC, doc_id="k"), None,
    ),
    "doc.replace": (
        "doc", ("c", "k"), "put", True, 2, _doc_cost,
        lambda rep, box: rep.insert("c", {"v": 0}, doc_id="k"),
        lambda rep, box: rep.replace("c", "k", DOC), None,
    ),
    "doc.delete": (
        "doc", ("c", "k"), "delete", True, 2, None,
        lambda rep, box: rep.insert("c", DOC, doc_id="k"),
        lambda rep, box: rep.delete("c", "k"), None,
    ),
    "doc._write_raw": (
        "doc", ("c", "k"), "put", True, 2, None, None,
        lambda rep, box: rep._write_raw("c", "k", DOC), None,
    ),
    "doc._delete_raw": (
        "doc", ("c", "k"), "delete", True, 0, None,
        lambda rep, box: rep._write_raw("c", "k", DOC),
        lambda rep, box: rep._delete_raw("c", "k"), None,
    ),
}


class TestFanOutContract:
    """Every mutating entry point obeys the one per-replica rule."""

    def test_a_process_kill_is_not_a_replica_failure(self):
        assert not issubclass(SimulatedCrashError, replication._REPLICA_FAILURES)

    @pytest.mark.parametrize("victims", [(1,), (1, 2)], ids=["one", "two"])
    @pytest.mark.parametrize("outcome", ["ack", "refused", "unavailable", "crash"])
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_entry_point(self, entry, outcome, victims):
        kind, key, op, gated, needed, base_cost, setup, act, finish = ENTRY_POINTS[
            entry
        ]
        rep = scripted_rep(kind)
        box = {}
        if setup is not None:
            setup(rep, box)
        assert rep.pending_repairs() == {}
        label = key if kind == "file" else "/".join(key)
        # A stale note on replica 0, which acknowledges in every row.
        rep._note_repair(0, key, op)
        for index in victims:
            state = rep.replicas[index]
            if outcome == "refused":
                state.breaker.trip()
            elif outcome == "unavailable":
                state.store.script["fail"] = ReplicaUnavailableError("scripted")
            elif outcome == "crash":
                state.store.script["fail"] = SimulatedCrashError("scripted")
        calls = {i: rep.replicas[i].store.script["calls"] for i in victims}
        charged = rep.stats.simulated_write_s

        if outcome == "crash":
            with pytest.raises(SimulatedCrashError):
                act(rep, box)
            # The kill unwound untouched: no note, no breaker movement.
            pending = rep.pending_repairs()
            for index in victims:
                assert label not in pending.get(f"replica-{index}", {})
                assert rep.replicas[index].breaker.failures == 0
            assert rep.stats.simulated_write_s == charged
            return

        # A refused replica is visited ungated, or as a probe when the
        # others cannot reach W (every gated entry but the quorum-0 one).
        probed = gated and needed > 0 and 3 - len(victims) < rep.write_quorum
        visited = outcome == "ack" or (outcome == "refused" and (not gated or probed))
        ackers = [i for i in range(3) if visited or i not in victims]
        if len(ackers) < needed:
            with pytest.raises(QuorumError):
                act(rep, box)
            assert rep.stats.simulated_write_s == charged
            return
        act(rep, box)

        # Charged ops move the layer by the W-th fastest ack, others by 0.
        moved = rep.stats.simulated_write_s - charged
        if base_cost is None:
            assert moved == 0
        else:
            costs = sorted(base_cost(rep) * FACTORS[i] for i in ackers)
            assert moved == pytest.approx(costs[rep.write_quorum - 1])

        # Breaker counters moved exactly as the outcome says.
        for index in victims:
            breaker = rep.replicas[index].breaker
            contacted = rep.replicas[index].store.script["calls"] - calls[index]
            if visited:
                assert contacted == 1
                assert (breaker.open, breaker.failures, breaker.skipped) == (False, 0, 0)
            elif outcome == "refused":
                assert contacted == 0
                assert (breaker.open, breaker.failures, breaker.skipped) == (True, 0, 1)
            else:
                assert contacted == 1
                assert (breaker.open, breaker.failures) == (False, 1)

        for index in victims:
            rep.replicas[index].store.script["fail"] = None
        if finish is not None and len(ackers) < rep.write_quorum:
            # The stream opened on fewer than W replicas: it cannot commit.
            with pytest.raises(QuorumError):
                finish(rep, box)
            return
        if finish is not None:
            finish(rep, box)
        # Each missed replica is queued under the right op; every ack
        # cleared its entry (replica 0's stale note included).
        missed = [i for i in victims if i not in ackers]
        assert rep.pending_repairs() == {
            f"replica-{i}": {label: op} for i in missed
        }
