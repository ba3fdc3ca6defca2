"""Unit tests of the fault-injection harness and the retry policy."""

import pytest

from repro.core.approach import SaveContext
from repro.core.manager import MultiModelManager
from repro.core.model_set import ModelSet
from repro.errors import (
    DuplicateArtifactError,
    PermanentStorageError,
    SimulatedCrashError,
    TransientStorageError,
)
from repro.storage.faults import (
    FaultInjector,
    FaultyDocumentStore,
    FaultyFileStore,
    RetryingFileStore,
    RetryPolicy,
    attach_retries,
    corrupt_artifact,
    inject_faults,
)
from repro.storage.file_store import FileStore
from repro.storage.journal import JournaledFileStore, attach_journal
from repro.storage.persistent import PersistentFileStore


def schedule(injector, num_ops):
    """Outcome signature of ``num_ops`` mutations under one injector."""
    outcomes = []
    for _ in range(num_ops):
        try:
            injector.mutation(lambda: "ok")
            outcomes.append("ok")
        except TransientStorageError as exc:
            outcomes.append(str(exc))
        except SimulatedCrashError as exc:
            outcomes.append(str(exc))
    return outcomes


class TestDeterminism:
    def test_same_seed_same_schedule(self):
        first = schedule(FaultInjector(seed=11, transient_rate=0.5), 40)
        second = schedule(FaultInjector(seed=11, transient_rate=0.5), 40)
        assert first == second
        assert any(outcome != "ok" for outcome in first)

    def test_different_seed_different_schedule(self):
        first = schedule(FaultInjector(seed=1, transient_rate=0.5), 40)
        second = schedule(FaultInjector(seed=2, transient_rate=0.5), 40)
        assert first != second

    def test_corruption_is_seeded(self):
        data = bytes(range(256))
        a = FaultInjector(seed=5, corrupt_rate=1.0).maybe_corrupt(data)
        b = FaultInjector(seed=5, corrupt_rate=1.0).maybe_corrupt(data)
        assert a == b and a != data

    def test_dry_run_counts_fault_points(self):
        models = ModelSet.build("FFNN-48", num_models=2, seed=0)

        def measure():
            context = SaveContext.create()
            injector = inject_faults(context, FaultInjector())
            MultiModelManager.with_approach("update", context=context).save_set(
                models
            )
            return injector.ops

        ops = measure()
        assert ops > 0
        assert measure() == ops  # the workload's fault surface is stable


class TestCrashModes:
    def test_before_leaves_no_trace(self):
        applied = []
        injector = FaultInjector(crash_at=0, crash_mode="before")
        with pytest.raises(SimulatedCrashError):
            injector.mutation(lambda: applied.append(1))
        assert not applied

    def test_after_applies_then_dies(self):
        applied = []
        injector = FaultInjector(crash_at=0, crash_mode="after")
        with pytest.raises(SimulatedCrashError):
            injector.mutation(lambda: applied.append(1))
        assert applied == [1]

    def test_torn_runs_the_torn_variant(self):
        events = []
        injector = FaultInjector(crash_at=0, crash_mode="torn")
        with pytest.raises(SimulatedCrashError):
            injector.mutation(
                lambda: events.append("full"),
                torn_apply=lambda: events.append("torn"),
            )
        assert events == ["torn"]

    def test_torn_falls_back_to_before_without_variant(self):
        applied = []
        injector = FaultInjector(crash_at=0, crash_mode="torn")
        with pytest.raises(SimulatedCrashError):
            injector.mutation(lambda: applied.append(1))
        assert not applied

    def test_crash_fires_at_the_exact_ordinal(self):
        injector = FaultInjector(crash_at=2, crash_mode="before")
        assert injector.mutation(lambda: "a") == "a"
        assert injector.mutation(lambda: "b") == "b"
        with pytest.raises(SimulatedCrashError):
            injector.mutation(lambda: "c")
        # Past the crash point the schedule is quiet again.
        assert injector.mutation(lambda: "d") == "d"


class TestTornWrites:
    def test_torn_put_persists_prefix_under_final_id(self):
        inner = FileStore()
        store = FaultyFileStore(
            inner, FaultInjector(crash_at=0, crash_mode="torn")
        )
        data = b"\x01\x02" * 500
        with pytest.raises(SimulatedCrashError):
            store.put(data, artifact_id="blob")
        assert inner.exists("blob")
        assert len(inner.get("blob")) == len(data) // 2
        # The recorded digest is the *intended* content's — the tear is
        # detectable, exactly like a truncated object-store upload.
        assert not inner.verify_artifact("blob")


class TestCorruption:
    def test_corrupt_put_keeps_honest_digest(self):
        inner = FileStore()
        store = FaultyFileStore(inner, FaultInjector(seed=1, corrupt_rate=1.0))
        store.put(b"pristine bytes" * 32, artifact_id="rotted")
        assert inner.get("rotted") != b"pristine bytes" * 32
        assert not inner.verify_artifact("rotted")

    def test_corrupt_artifact_helper_memory_mode(self):
        store = FileStore()
        store.put(b"payload" * 16, artifact_id="blob")
        corrupt_artifact(store, "blob", offset=3)
        assert not store.verify_artifact("blob")

    def test_corrupt_artifact_helper_disk_mode(self, tmp_path):
        store = PersistentFileStore(tmp_path)
        store.put(b"payload" * 16, artifact_id="blob")
        corrupt_artifact(store, "blob", offset=3)
        assert not store.verify_artifact("blob")

    def test_corrupt_artifact_pierces_proxy_chains(self):
        context = SaveContext.create()
        attach_journal(context)
        context.file_store.put(b"payload" * 16, artifact_id="blob")
        corrupt_artifact(context.file_store, "blob")
        assert not context.file_store.verify_artifact("blob")


class TestPermanentFailures:
    def test_pinned_id_always_fails(self):
        inner = FileStore()
        store = FaultyFileStore(
            inner, FaultInjector(permanent_ids=frozenset({"dead"}))
        )
        with pytest.raises(PermanentStorageError):
            store.put(b"x", artifact_id="dead")
        store.put(b"x", artifact_id="alive")
        with pytest.raises(PermanentStorageError):
            store.get("dead")
        assert store.get("alive") == b"x"

    def test_retries_do_not_mask_permanent_failures(self):
        inner = FileStore()
        faulty = FaultyFileStore(
            inner, FaultInjector(permanent_ids=frozenset({"dead"}))
        )
        store = RetryingFileStore(faulty, RetryPolicy(attempts=5))
        with pytest.raises(PermanentStorageError):
            store.put(b"x", artifact_id="dead")
        assert inner.stats.retries == 0


class TestRetryPolicy:
    def test_backoff_is_exponential(self):
        policy = RetryPolicy(attempts=4, base_delay_s=0.01, multiplier=2.0)
        assert policy.backoff_s(1) == pytest.approx(0.01)
        assert policy.backoff_s(2) == pytest.approx(0.02)
        assert policy.backoff_s(3) == pytest.approx(0.04)

    def test_exhausted_attempts_raise_and_charge_backoff(self):
        inner = FileStore()
        inner.put(b"stored", artifact_id="blob")
        faulty = FaultyFileStore(inner, FaultInjector(seed=0, transient_rate=1.0))
        store = RetryingFileStore(faulty, RetryPolicy(attempts=3))
        with pytest.raises(TransientStorageError):
            store.get("blob")
        assert inner.stats.retries == 2
        assert inner.stats.simulated_retry_s == pytest.approx(0.01 + 0.02)

    def test_transient_reads_are_retried(self):
        inner = FileStore()
        inner.put(b"stored", artifact_id="blob")
        for seed in range(50):
            faulty = FaultyFileStore(
                inner, FaultInjector(seed=seed, transient_rate=0.9)
            )
            store = RetryingFileStore(faulty, RetryPolicy(attempts=6))
            before = inner.stats.retries
            try:
                assert store.get("blob") == b"stored"
            except TransientStorageError:
                continue
            if inner.stats.retries > before:
                return  # a read failed transiently and the retry recovered
        pytest.fail("no seed exercised the retried-read path")

    def test_failed_but_applied_put_is_retried_as_idempotent(self):
        """Transient error *after* the write applied: the retry sees
        DuplicateArtifactError and must treat it as success."""
        for seed in range(50):
            probe_inner = FileStore()
            probe = FaultyFileStore(
                probe_inner, FaultInjector(seed=seed, transient_rate=0.6)
            )
            try:
                probe.put(b"payload" * 8, artifact_id="acked-late")
                continue  # first op did not fault under this seed
            except TransientStorageError:
                if not probe_inner.exists("acked-late"):
                    continue  # failure fired before the apply
            # Same seed, fresh stack: the first attempt applies then
            # reports failure; a later attempt hits the duplicate.
            inner = FileStore()
            faulty = FaultyFileStore(
                inner, FaultInjector(seed=seed, transient_rate=0.6)
            )
            store = RetryingFileStore(faulty, RetryPolicy(attempts=8))
            try:
                result = store.put(b"payload" * 8, artifact_id="acked-late")
            except TransientStorageError:
                continue  # every retry faulted; try another seed
            assert result == "acked-late"
            assert inner.get("acked-late") == b"payload" * 8
            assert inner.stats.writes == 1  # applied exactly once
            assert inner.stats.retries >= 1
            return
        pytest.fail("no seed exercised the idempotent-re-put path")

    def test_first_attempt_duplicate_still_raises(self):
        inner = FileStore()
        inner.put(b"original", artifact_id="claimed")
        store = RetryingFileStore(inner, RetryPolicy(attempts=3))
        with pytest.raises(DuplicateArtifactError):
            store.put(b"other", artifact_id="claimed")


class TestWiring:
    def test_inject_faults_splices_beneath_the_journal(self):
        context = SaveContext.create()
        attach_journal(context)
        inject_faults(context, FaultInjector())
        assert isinstance(context.file_store, JournaledFileStore)
        assert isinstance(context.file_store._inner, FaultyFileStore)
        assert isinstance(context.document_store._inner, FaultyDocumentStore)

    def test_attach_retries_end_to_end_save(self):
        for seed in range(50):
            context = SaveContext.create()
            attach_journal(context)
            inject_faults(context, FaultInjector(seed=seed, transient_rate=0.2))
            attach_retries(context, RetryPolicy(attempts=8))
            manager = MultiModelManager.with_approach("update", context=context)
            models = ModelSet.build("FFNN-48", num_models=3, seed=0)
            try:
                set_id = manager.save_set(models)
            except TransientStorageError:
                continue  # budget exhausted under this seed
            stats = context.file_store.stats
            if stats.retries + context.document_store.stats.retries == 0:
                continue  # no fault fired; try a noisier seed
            assert manager.recover_set(set_id).equals(models)
            assert context.journal.pending_entries() == []
            return
        pytest.fail("no seed exercised a retried save")

    @pytest.mark.parametrize("seed", [7, 9])
    def test_ten_percent_transient_faults_are_absorbed(self, seed):
        """A journaled U1 + U3 under a 10 % transient error rate completes
        with retries on, recovers identically, and charges backoff."""
        context = SaveContext.create()
        attach_journal(context)
        inject_faults(context, FaultInjector(seed=seed, transient_rate=0.1))
        attach_retries(context, RetryPolicy(attempts=6))
        manager = MultiModelManager.with_approach("update", context=context)
        models = ModelSet.build("FFNN-48", num_models=6, seed=0)
        derived = models.copy()
        derived.state(0)["0.bias"][:] += 1.0
        derived.state(5)["4.weight"][:] *= 1.25
        base_id = manager.save_set(models)
        derived_id = manager.save_set(derived, base_set_id=base_id)
        assert manager.recover_set(derived_id).equals(derived)
        file_stats, doc_stats = context.file_store.stats, context.document_store.stats
        assert file_stats.retries + doc_stats.retries > 0
        assert file_stats.simulated_retry_s + doc_stats.simulated_retry_s > 0

    def test_faulty_writer_close_is_one_fault_point(self):
        inner = FileStore()
        store = FaultyFileStore(
            inner, FaultInjector(crash_at=0, crash_mode="after")
        )
        writer = store.open_writer("streamed")
        writer.write(b"abc")
        with pytest.raises(SimulatedCrashError):
            writer.close()
        assert inner.exists("streamed")  # after-mode: the close applied
