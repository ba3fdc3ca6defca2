"""Property-based tests over replicated storage.

The replication invariant: with overlapping quorums (W + R > N), no
single-replica fault schedule — a crash (before/after/torn write) or a
silent corruption, at any operation, on any replica — can change the
bytes a recovery returns or prevent a save from committing.  And after
the replica is revived, one anti-entropy scrub restores a fully
converged, deep-fsck-clean archive.
"""

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.config import ArchiveConfig
from repro.core.approach import SaveContext
from repro.core.fsck import ArchiveFsck, scrub_archive
from repro.core.manager import MultiModelManager
from repro.core.model_set import ModelSet
from repro.storage.faults import FaultInjector, inject_replica_faults
from repro.storage.journal import attach_journal

NUM_REPLICAS = 3

#: (W, R) pairs with W + R > N.  A quorum of 3 needs every replica
#: reachable, so those pairs only tolerate faults that leave the victim
#: responding (silent corruption), not crashes.
QUORUMS = [(2, 2), (2, 3), (3, 2)]


def build_models(seed):
    return ModelSet.build("FFNN-48", num_models=2, seed=seed)


def make_manager(approach, dedup, write_quorum, read_quorum):
    context = SaveContext.create(
        ArchiveConfig(
            replicas=NUM_REPLICAS,
            write_quorum=write_quorum,
            read_quorum=read_quorum,
            dedup=dedup,
        )
    )
    attach_journal(context)
    return MultiModelManager.with_approach(approach, context=context)


def assert_bytes_identical(recovered, reference):
    for index in range(len(reference.states)):
        for name, values in reference.state(index).items():
            assert (
                recovered.state(index)[name].tobytes() == values.tobytes()
            ), (index, name)


class TestSingleReplicaFaultSchedules:
    @given(
        approach=st.sampled_from(["baseline", "update", "pas-delta"]),
        dedup=st.booleans(),
        derived=st.booleans(),
        replica=st.integers(min_value=0, max_value=NUM_REPLICAS - 1),
        quorums=st.sampled_from(QUORUMS),
        kind=st.sampled_from(["down", "corrupt", "both"]),
        raw_point=st.integers(min_value=0, max_value=10_000),
        raw_second=st.integers(min_value=0, max_value=10_000),
        fault_seed=st.integers(min_value=0, max_value=2**16),
        data_seed=st.integers(min_value=0, max_value=32),
    )
    @settings(
        max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_recovery_unchanged_by_any_single_replica_fault(
        self,
        approach,
        dedup,
        derived,
        replica,
        quorums,
        kind,
        raw_point,
        raw_second,
        fault_seed,
        data_seed,
    ):
        write_quorum, read_quorum = quorums
        # A crashed replica cannot serve either quorum, so down faults
        # need W and R both satisfiable by the surviving replicas.
        assume(
            kind == "corrupt"
            or (write_quorum < NUM_REPLICAS and read_quorum < NUM_REPLICAS)
        )

        base = build_models(0)
        target = build_models(data_seed) if derived else base

        # Fault-free dry run: the oracle bytes and the op count on the
        # victim replica, which bounds the fault schedule.
        probe = make_manager(approach, dedup, write_quorum, read_quorum)
        probe_base = probe.save_set(base) if derived else None
        counter = inject_replica_faults(probe.context, replica, FaultInjector())
        if derived:
            probe_id = probe.save_set(target, base_set_id=probe_base)
        else:
            probe_id = probe.save_set(target)
        reference = probe.recover_set(probe_id)
        ops = counter.ops
        assume(ops > 0)

        schedule = {}
        if kind in ("down", "both"):
            schedule["down_at"] = raw_point % ops
        if kind in ("corrupt", "both"):
            schedule["corrupt_at"] = raw_second % ops

        manager = make_manager(approach, dedup, write_quorum, read_quorum)
        base_id = manager.save_set(base) if derived else None
        injector = inject_replica_faults(
            manager.context,
            replica,
            FaultInjector(seed=fault_seed, **schedule),
        )
        if derived:
            set_id = manager.save_set(target, base_set_id=base_id)
        else:
            set_id = manager.save_set(target)

        # The save committed and recovery — with the replica still
        # faulty — returns exactly the oracle bytes.
        assert_bytes_identical(manager.recover_set(set_id), reference)

        # Revive, scrub, and the archive converges to deep-clean.
        injector.revive()
        scrub = scrub_archive(manager.context, deep=True)
        assert scrub.converged, scrub.summary()
        fsck = ArchiveFsck(manager.context).run(deep=True)
        assert fsck.ok, fsck.summary()
        assert_bytes_identical(manager.recover_set(set_id), reference)


#: One vote-memo step: ("read" | "write" | "delete", doc) or
#: ("rot", doc, replica, value) — a new object installed on one replica
#: through its own store.
memo_steps = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["read", "write", "delete"]), st.integers(0, 2)),
        st.tuples(
            st.just("rot"),
            st.integers(0, 2),
            st.integers(0, NUM_REPLICAS - 1),
            st.integers(0, 2),
        ),
    ),
    max_size=30,
)


class TestVoteMemo:
    @given(steps=memo_steps)
    @settings(max_examples=60, deadline=None)
    def test_remembered_votes_equal_fresh_votes(self, steps):
        from repro.storage.document_store import DocumentStore
        from repro.storage.replication import ReplicatedDocumentStore

        rep = ReplicatedDocumentStore([DocumentStore() for _ in range(NUM_REPLICAS)])
        version = 0
        for step in steps:
            kind, doc_id = step[0], f"d{step[1]}"
            if kind == "write":
                version += 1
                if rep.exists("c", doc_id):
                    rep.replace("c", doc_id, {"v": version})
                else:
                    rep._write_raw("c", doc_id, {"v": version})
            elif kind == "delete" and rep.exists("c", doc_id):
                rep.delete("c", doc_id)
            elif kind == "rot":
                _, _, replica, value = step
                rep.replicas[replica].store._write_raw("c", doc_id, {"v": value})
            for doc_id in ("d0", "d1", "d2"):
                ballots = [
                    (index, state.store.peek("c", doc_id))
                    for index, state in enumerate(rep.replicas)
                ]
                # The vote without a key neither reads nor writes the memo.
                fresh = rep._vote(ballots)
                assert rep._elect("c", doc_id) == fresh
                assert rep.peek_collection("c").get(doc_id) == fresh[1]
            # The memo holds only what the replicas hold now.
            for (collection, doc_id), memo in rep._unanimous.items():
                for index, document in memo:
                    assert document is rep.replicas[index].store.peek(collection, doc_id)
