"""Tests for the binary artifact store."""

import pytest

from repro.config import ArchiveConfig
from repro.core.approach import SaveContext
from repro.errors import (
    ArtifactNotFoundError,
    ArtifactTruncatedError,
    DuplicateArtifactError,
    StorageError,
)
from repro.storage.file_store import FileStore
from repro.storage.hardware import M1_PROFILE
from repro.storage.hashing import hash_bytes
from repro.storage.persistent import PersistentFileStore


class TestPutGet:
    def test_roundtrip_with_explicit_id(self):
        store = FileStore()
        store.put(b"hello", artifact_id="greeting")
        assert store.get("greeting") == b"hello"

    def test_duplicate_explicit_id_rejected(self):
        store = FileStore()
        store.put(b"a", artifact_id="one")
        with pytest.raises(DuplicateArtifactError):
            store.put(b"b", artifact_id="one")

    def test_missing_artifact_raises(self):
        store = FileStore()
        with pytest.raises(ArtifactNotFoundError):
            store.get("ghost")
        with pytest.raises(ArtifactNotFoundError):
            store.size("ghost")

    def test_empty_payload(self):
        store = FileStore()
        store.put(b"", artifact_id="empty")
        assert store.get("empty") == b""


class TestInspection:
    def test_exists_size_ids_len(self):
        store = FileStore()
        store.put(b"abc", artifact_id="z")
        store.put(b"defg", artifact_id="a")
        assert store.exists("z") and not store.exists("q")
        assert store.size("a") == 4
        assert store.ids() == ["a", "z"]
        assert len(store) == 2

    def test_total_bytes(self):
        store = FileStore()
        store.put(b"abc", artifact_id="x")
        store.put(b"de", artifact_id="y")
        assert store.total_bytes() == 5


class TestAccounting:
    def test_write_counters(self):
        store = FileStore()
        store.put(b"12345", artifact_id="x", category="parameters")
        assert store.stats.writes == 1
        assert store.stats.bytes_written == 5
        assert store.stats.bytes_by_category == {"parameters": 5}

    def test_read_counters(self):
        store = FileStore()
        store.put(b"12345", artifact_id="x")
        store.get("x")
        assert store.stats.reads == 1
        assert store.stats.bytes_read == 5

    def test_inspection_not_charged(self):
        store = FileStore()
        store.put(b"12345", artifact_id="x")
        store.exists("x")
        store.size("x")
        store.ids()
        assert store.stats.reads == 0

    def test_latency_charged_per_profile(self):
        store = FileStore(profile=M1_PROFILE)
        payload = b"x" * 1_000_000
        store.put(payload, artifact_id="big")
        expected = M1_PROFILE.file_write_cost(len(payload))
        assert store.stats.simulated_write_s == pytest.approx(expected)
        store.get("big")
        assert store.stats.simulated_read_s == pytest.approx(
            M1_PROFILE.file_read_cost(len(payload))
        )

    def test_zero_latency_profile_charges_nothing(self):
        store = FileStore()
        store.put(b"x" * 100, artifact_id="x")
        assert store.stats.simulated_write_s == 0.0


class TestDiskSpill:
    """The disk backend (``PersistentFileStore``): bytes live on disk only."""

    def test_artifacts_written_to_directory(self, tmp_path):
        store = PersistentFileStore(tmp_path)
        store.put(b"on-disk", artifact_id="file1")
        assert (tmp_path / "file1.bin").read_bytes() == b"on-disk"
        assert (tmp_path / "file1.sha256").read_text() == hash_bytes(b"on-disk")

    def test_spill_mode_keeps_only_size_index_in_memory(self, tmp_path):
        store = PersistentFileStore(tmp_path)
        store.put(b"x" * 4096, artifact_id="big")
        # The bytes live on disk exclusively; memory holds just the index.
        assert store._blobs == {}
        assert store._sizes == {"big": 4096}
        assert store.size("big") == 4096
        assert store.total_bytes() == 4096
        store.delete("big")
        assert store._sizes == {}
        assert not (tmp_path / "big.bin").exists()

    def test_streaming_writer_spills_without_joining(self, tmp_path):
        store = PersistentFileStore(tmp_path)
        with store.open_writer("streamed") as writer:
            for _ in range(8):
                writer.write(b"chunk" * 100)
            # Chunks go straight to the temp file, never a joined buffer.
            assert not hasattr(writer, "_chunks")
        assert store._blobs == {}
        assert store.get("streamed") == b"chunk" * 800
        # The temp file was renamed away, not left behind.
        assert list(tmp_path.glob("*.tmp")) == []

    def test_aborted_writer_leaves_no_trace(self, tmp_path):
        store = PersistentFileStore(tmp_path)
        writer = store.open_writer("doomed")
        writer.write(b"partial")
        writer.abort()
        assert store.ids() == []
        assert list(tmp_path.iterdir()) == []


class TestGetRanges:
    def test_vectored_read_returns_each_slice(self):
        store = FileStore()
        store.put(b"0123456789", artifact_id="digits")
        assert store.get_ranges("digits", [(0, 3), (5, 2), (9, 1)]) == [
            b"012",
            b"56",
            b"9",
        ]

    def test_counts_as_one_read_of_the_summed_bytes(self):
        store = FileStore()
        store.put(b"0123456789", artifact_id="digits")
        reads_before = store.stats.reads
        store.get_ranges("digits", [(0, 3), (5, 2)])
        assert store.stats.reads == reads_before + 1
        assert store.stats.bytes_read == 5

    def test_empty_range_list_is_uncharged(self):
        store = FileStore()
        store.put(b"0123456789", artifact_id="digits")
        assert store.get_ranges("digits", []) == []
        assert store.stats.reads == 0

    def test_out_of_bounds_range_rejected(self):
        store = FileStore()
        store.put(b"0123456789", artifact_id="digits")
        with pytest.raises(ArtifactTruncatedError, match="'digits'.* 13, .* 10") as info:
            store.get_ranges("digits", [(0, 3), (8, 5)])
        assert (info.value.artifact_id, info.value.size, info.value.end) == ("digits", 10, 13)
        with pytest.raises(ValueError):
            store.get_ranges("digits", [(-1, 3)])

    def test_spill_mode_reads_from_disk(self, tmp_path):
        store = PersistentFileStore(tmp_path)
        store.put(b"0123456789", artifact_id="digits")
        assert store.get_ranges("digits", [(2, 4), (8, 2)]) == [b"2345", b"89"]

    def test_worker_lanes_reduce_simulated_cost(self):
        store = FileStore(profile=M1_PROFILE)
        store.put(b"x" * 1_000_000, artifact_id="big")
        ranges = [(i * 100_000, 100_000) for i in range(10)]
        store.get_ranges("big", ranges)
        serial = store.stats.simulated_read_s
        store.get_ranges("big", ranges, workers=4)
        striped = store.stats.simulated_read_s - serial
        assert striped < serial
        # Same bytes and op count either way.
        assert store.stats.bytes_read == 2_000_000
        assert store.stats.reads == 2


class TestStripedTransfers:
    def test_striped_put_and_get_charge_makespan(self):
        serial = FileStore(profile=M1_PROFILE)
        striped = FileStore(profile=M1_PROFILE)
        payload = b"x" * 1_000_000
        serial.put(payload, artifact_id="a")
        striped.put(payload, artifact_id="a", workers=4)
        assert striped.stats.simulated_write_s < serial.stats.simulated_write_s
        serial.get("a")
        striped.get("a", workers=4)
        assert striped.stats.simulated_read_s < serial.stats.simulated_read_s
        # Accounting stays one op / full bytes, so storage math is unchanged.
        assert striped.stats.writes == serial.stats.writes == 1
        assert striped.stats.bytes_written == serial.stats.bytes_written


class TestWriterAbandon:
    """An abandoned disk writer must never leak its ``.writer-*.tmp``
    file — not on exception, not across reopen."""

    def test_exception_in_spill_writer_unlinks_temp(self, tmp_path):
        store = PersistentFileStore(tmp_path)
        with pytest.raises(RuntimeError):
            with store.open_writer("doomed") as writer:
                writer.write(b"partial")
                raise RuntimeError("caller dies mid-stream")
        assert list(tmp_path.iterdir()) == []
        assert store.ids() == []

    def test_abort_unlinks_temp(self, tmp_path):
        store = PersistentFileStore(tmp_path)
        writer = store.open_writer("doomed")
        writer.write(b"partial")
        assert len(list(tmp_path.glob(".writer-*.tmp"))) == 1
        writer.abort()
        assert list(tmp_path.glob("*.tmp")) == []

    def test_memory_mode_abandon_stores_nothing(self):
        store = FileStore()
        with pytest.raises(RuntimeError):
            with store.open_writer("doomed") as writer:
                writer.write(b"partial")
                raise RuntimeError("boom")
        assert not store.exists("doomed")
        assert store.total_bytes() == 0

    def test_reopen_sweeps_a_crash_leftover_temp(self, tmp_path):
        store = PersistentFileStore(tmp_path)
        store.put(b"real", artifact_id="kept")
        # A kill -9 between writes leaves the temp behind.
        (tmp_path / ".writer-99.tmp").write_bytes(b"garbage")
        reopened = PersistentFileStore(tmp_path)
        assert list(tmp_path.glob("*.tmp")) == []
        # The real artifact is untouched by the sweep.
        assert reopened.get("kept") == b"real"

    def test_persistent_writer_abort_leaves_no_temp(self, tmp_path):
        store = PersistentFileStore(tmp_path)
        with pytest.raises(RuntimeError):
            with store.open_writer("doomed") as writer:
                writer.write(b"partial")
                raise RuntimeError("boom")
        assert list(tmp_path.glob("*.tmp")) == []
        assert not store.exists("doomed")


class TestDuplicateParity:
    """DuplicateArtifactError semantics must be identical in memory and on
    disk (the ``spill`` rows run :class:`PersistentFileStore`)."""

    @pytest.fixture(params=["memory", "spill"])
    def store(self, request, tmp_path):
        if request.param == "memory":
            return FileStore()
        return PersistentFileStore(tmp_path)

    def test_put_twice_raises_and_keeps_original(self, store):
        store.put(b"original", artifact_id="one")
        with pytest.raises(DuplicateArtifactError):
            store.put(b"other", artifact_id="one")
        assert store.get("one") == b"original"

    def test_open_writer_to_existing_id_raises(self, store):
        store.put(b"original", artifact_id="one")
        with pytest.raises(DuplicateArtifactError):
            store.open_writer("one")
        assert store.get("one") == b"original"

    def test_writer_racing_a_put_raises_at_close(self, store, tmp_path):
        # The id is free at open but claimed before close: the late
        # check protects the stored bytes on both backends, and a disk
        # writer must still clean up its temp file.
        writer = store.open_writer("one")
        writer.write(b"streamed")
        store.put(b"original", artifact_id="one")
        with pytest.raises(DuplicateArtifactError):
            writer.close()
        assert store.get("one") == b"original"
        assert list(tmp_path.glob("*.tmp")) == []


BAD_IDS = ["", "a/b", "a\\b", ".hidden", "../escape"]


class TestBackendContract:
    """One accounting layer, two byte backends: what ``FileStore`` promises
    holds wherever the bytes live.  Each test failed on at least one
    backend before the stores shared their rules."""

    @pytest.fixture(params=["memory", "disk"])
    def store(self, request, tmp_path):
        if request.param == "memory":
            return FileStore()
        return PersistentFileStore(tmp_path / "store")

    @pytest.fixture(params=["memory", "disk", "replicas=3"])
    def any_store(self, request, tmp_path):
        if request.param == "memory":
            return FileStore()
        if request.param == "disk":
            return PersistentFileStore(tmp_path / "store")
        return SaveContext.create(ArchiveConfig(replicas=3)).file_store

    def test_writers_racing_a_put_keep_the_committed_bytes(self, store, tmp_path):
        first = store.open_writer("one")
        second = store.open_writer("one")
        first.write(b"streamed first")
        second.write(b"streamed second")
        store.put(b"committed", artifact_id="one")
        for writer in (first, second):
            with pytest.raises(DuplicateArtifactError):
                writer.close()
            assert store.get("one") == b"committed"
            assert store.verify_artifact("one")
        assert list(tmp_path.rglob("*.tmp")) == []
        assert store.stats.writes == 1
        assert store.stats.bytes_by_category == {"binary": len(b"committed")}

    def test_second_writer_loses_to_the_first(self, store, tmp_path):
        first = store.open_writer("one")
        second = store.open_writer("one")
        second.write(b"second")
        first.write(b"first")
        assert first.close() == "one"
        with pytest.raises(DuplicateArtifactError):
            second.close()
        assert store.get("one") == b"first"
        assert store.verify_artifact("one")
        assert list(tmp_path.rglob("*.tmp")) == []

    @pytest.mark.parametrize("bad_id", BAD_IDS)
    def test_unsafe_ids_are_refused_before_anything_happens(
        self, any_store, bad_id, tmp_path
    ):
        before = any_store.stats.snapshot()
        with pytest.raises(StorageError):
            any_store.put(b"x", artifact_id=bad_id)
        with pytest.raises(StorageError):
            any_store.open_writer(bad_id)
        assert any_store.ids() == []
        assert any_store.stats.snapshot() == before
        # Nothing on disk, inside the store directory or outside it.
        assert [path for path in tmp_path.rglob("*") if path.is_file()] == []
        # A bad name is the caller's mistake: no replica is blamed for it.
        for state in getattr(any_store, "replicas", ()):
            assert state.breaker.failures == 0 and not state.breaker.open

    def test_spill_mode_is_gone(self, tmp_path):
        with pytest.raises(TypeError):
            FileStore(**{"directory": tmp_path})
        assert issubclass(PersistentFileStore, FileStore)
