"""Property: the two artifact-store backends are one store.

``FileStore`` (bytes in memory) and ``PersistentFileStore`` (bytes on
disk) share every rule, charge and cost, so any script of operations —
puts named, content-addressed and pre-hashed; writers opened, fed, closed
and aborted in any interleaving, racing puts and each other; reads,
ranged reads, deletes, verification and inspection — must return the
same values, raise the same exception types and leave equal
``StorageStats`` after *every* step, at any ``workers``.  And the disk
backend must hold the same ids, sizes and recorded digests after its
directory is reopened mid-script.
"""

import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.storage.file_store import FileStore
from repro.storage.hardware import M1_PROFILE
from repro.storage.hashing import hash_bytes
from repro.storage.persistent import PersistentFileStore

#: Few ids and few payloads, so scripts collide: duplicates, re-puts of
#: identical content, writers racing puts.  Two ids no store may accept.
IDS = st.sampled_from(["a", "b", "c", "", "../escape"])
NEW_IDS = st.one_of(st.none(), IDS)
DATA = st.sampled_from([b"", b"x", b"payload", b"x" * 300, bytes(range(256))])
CATEGORY = st.sampled_from(["binary", "parameters"])
SLOT = st.integers(min_value=0, max_value=1)
RANGES = st.lists(
    st.tuples(
        st.integers(min_value=-1, max_value=300), st.integers(min_value=-1, max_value=300)
    ),
    max_size=4,
)

STEP = st.one_of(
    st.tuples(st.just("put"), NEW_IDS, DATA, CATEGORY, st.booleans()),
    st.tuples(st.just("open"), SLOT, NEW_IDS, CATEGORY),
    st.tuples(st.just("write"), SLOT, DATA),
    st.tuples(st.just("close"), SLOT),
    st.tuples(st.just("abort"), SLOT),
    st.tuples(st.just("get"), IDS),
    st.tuples(st.just("get_ranges"), IDS, RANGES),
    st.tuples(st.just("delete"), IDS),
    st.tuples(st.just("verify_artifact"), IDS),
    st.tuples(st.just("size"), IDS),
    st.tuples(st.just("ids")),
)
SCRIPT = st.lists(STEP, min_size=1, max_size=30)


class Driver:
    """One store plus the writers the script holds open on it."""

    def __init__(self, store, workers):
        self.store = store
        self.workers = workers
        self.writers = {}

    def apply(self, step):
        """``("ok", value)`` or ``("raised", exception type)`` of one step."""
        try:
            return "ok", self._run(*step)
        except Exception as error:  # noqa: BLE001 - the type is the result
            return "raised", type(error)

    def _run(self, op, *args):
        store, workers = self.store, self.workers
        if op == "put":
            artifact_id, data, category, prehashed = args
            digest = hash_bytes(data) if prehashed else None
            return store.put(
                data, artifact_id, category=category, workers=workers, digest=digest
            )
        if op == "open":
            slot, artifact_id, category = args
            self.abort(slot)
            self.writers[slot] = store.open_writer(
                artifact_id, category=category, workers=workers
            )
            return None
        if op in ("write", "close", "abort"):
            writer = self.writers.get(args[0])
            if writer is None:
                return None
            return getattr(writer, op)(*args[1:])
        if op == "get":
            return store.get(args[0], workers=workers)
        if op == "get_ranges":
            return store.get_ranges(args[0], args[1], workers=workers)
        return getattr(store, op)(*args)

    def abort(self, slot=None):
        for key in [slot] if slot is not None else list(self.writers):
            writer = self.writers.pop(key, None)
            if writer is not None and not writer._closed:
                writer.abort()

    def held(self):
        store = self.store
        return {
            artifact_id: (store.size(artifact_id), store.recorded_digest(artifact_id))
            for artifact_id in store.ids()
        }


@given(script=SCRIPT, workers=st.sampled_from([1, 4]))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_backends_agree_after_every_step(script, workers):
    with tempfile.TemporaryDirectory() as directory:
        memory = Driver(FileStore(M1_PROFILE), workers)
        disk = Driver(PersistentFileStore(directory, M1_PROFILE), workers)
        try:
            for number, step in enumerate(script):
                assert memory.apply(step) == disk.apply(step), (number, step)
                assert memory.store.stats == disk.store.stats, (number, step)
                assert memory.held() == disk.held(), (number, step)
                assert memory.store.total_bytes() == disk.store.total_bytes()
                assert len(memory.store) == len(disk.store)
        finally:
            memory.abort()
            disk.abort()


@given(
    script=SCRIPT,
    cut=st.integers(min_value=0, max_value=30),
    workers=st.sampled_from([1, 4]),
)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_reopening_the_directory_preserves_what_is_held(script, cut, workers):
    with tempfile.TemporaryDirectory() as directory:
        memory = Driver(FileStore(M1_PROFILE), workers)
        disk = Driver(PersistentFileStore(directory, M1_PROFILE), workers)
        try:
            for number, step in enumerate(script):
                if number == min(cut, len(script) - 1):
                    # Writers do not outlive the store object.
                    memory.abort()
                    disk.abort()
                    held = disk.held()
                    disk = Driver(PersistentFileStore(directory, M1_PROFILE), workers)
                    assert disk.held() == held == memory.held()
                assert memory.apply(step) == disk.apply(step), (number, step)
            assert memory.held() == disk.held()
        finally:
            memory.abort()
            disk.abort()
