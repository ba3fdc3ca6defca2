"""Content hashing helpers.

The Update approach identifies changed layers by comparing per-layer
parameter hashes, and the file store addresses artifacts by content hash.
SHA-256 truncated to 16 hex characters keeps the per-layer hash records
small (the paper counts hash info as real storage overhead) while leaving
collisions negligible at the scale of thousands of models.

Hex stays the stored form of a digest.  In memory, the read path works
on :data:`DIGESTS`, one process-wide table interning every digest it
meets to a dense integer id, so a digest matrix becomes an ``int64``
column and per-digest bookkeeping (chunk presence, serving tier 2)
becomes boolean and integer columns indexed by id.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Iterable, Sequence

import numpy as np

from repro.nn.serialization import ModelState

#: Hex characters kept from the SHA-256 digest for layer hashes.
LAYER_HASH_LENGTH = 16


class DigestTable:
    """Interns hex digests to dense integer ids, and maps ids back.

    Ids are never reused or forgotten, so an id names the same digest in
    every chunk store and cache of the process.  Lookups of known digests
    take no lock; a new digest is added under one.
    """

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}
        self._hex: list[str] = []
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._hex)

    def intern_many(self, digests: Iterable[str]) -> np.ndarray:
        """The ids of ``digests``, in order (new digests are added)."""
        digests = list(digests)
        try:
            return np.fromiter(map(self._ids.__getitem__, digests), np.int64, len(digests))
        except KeyError:
            with self._lock:
                ids, hexes = self._ids, self._hex
                for digest in digests:
                    if digest not in ids:
                        ids[digest] = len(hexes)
                        hexes.append(digest)
            return np.fromiter(map(self._ids.__getitem__, digests), np.int64, len(digests))

    def intern(self, digest: str) -> int:
        """The id of one ``digest`` (added if new): a dict lookup when known."""
        ident = self._ids.get(digest)
        return ident if ident is not None else int(self.intern_many([digest])[0])

    def ids(self, digests: Iterable[str]) -> "list[int]":
        """The ids of already interned ``digests``, in order."""
        return list(map(self._ids.__getitem__, digests))

    def hexes(self, ids: Iterable[int]) -> "list[str]":
        """The hex digests of ``ids``, in order."""
        return list(map(self._hex.__getitem__, ids))


#: The one digest table every chunk store, plan and cache shares.
DIGESTS = DigestTable()


def fit(column: np.ndarray, size: int) -> np.ndarray:
    """``column``, or a zero-padded copy of it, longer than ``size``.

    Ids below ``size`` fit, and the last slot stays zero for
    :func:`lookup`; capacity doubles, so growing id by id stays
    amortized O(1).  Start a column as ``np.zeros(1, dtype)``.
    """
    if size < len(column):
        return column
    grown = np.zeros(max(size + 1, 2 * len(column)), dtype=column.dtype)
    grown[: len(column)] = column
    return grown


def lookup(column: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """``column[ids]``, reading zero (``False``) for an id past the
    column's end (one interned after the column last grew): clipping
    reads it from the last slot, which :func:`fit` keeps zero."""
    return column.take(ids, mode="clip")


#: Up to this many ids (one model's row is 8) a Python pass beats
#: numpy's per-call overhead; above it (a set's thousands) arrays win.
#: :func:`distinct` and the chunk store's read planner switch here.
SMALL_IDS = 64


def distinct(ids: np.ndarray) -> np.ndarray:
    """``ids`` without repeats, in order of first occurrence.

    A dict pass costs ~2 µs on one model's row and ~160 µs on a
    2,000-slot set; ``np.unique`` ~10 µs and ~36 µs.
    """
    if len(ids) <= SMALL_IDS:
        return np.fromiter(dict.fromkeys(ids.tolist()), np.int64)
    _values, first = np.unique(ids, return_index=True)
    return ids[np.sort(first)]


def hash_bytes(data: bytes, length: int | None = None) -> str:
    """SHA-256 of ``data`` as a hex string, optionally truncated."""
    digest = hashlib.sha256(data).hexdigest()
    return digest if length is None else digest[:length]


def hash_array(array: np.ndarray, length: int = LAYER_HASH_LENGTH) -> str:
    """Hash an array's raw float32 bytes (shape-insensitive by design:

    the schema pins shapes, so only values matter for change detection).
    """
    contiguous = np.ascontiguousarray(array, dtype=np.float32)
    return hash_bytes(contiguous.tobytes(), length)


def hash_state_dict_layers(
    state: "OrderedDict[str, np.ndarray]",
) -> "OrderedDict[str, str]":
    """Per-layer hashes of a parameter dictionary, preserving order."""
    return OrderedDict((name, hash_array(arr)) for name, arr in state.items())


def hash_states(
    states: "list[OrderedDict[str, np.ndarray]]",
    layer_names: "list[str]",
    length: int | None = None,
    workers: int = 1,
    indices: "Sequence[int] | None" = None,
) -> "list[list[str]]":
    """Per-layer hashes for a list of state dicts, in schema order.

    The per-model work is independent and hashlib releases the GIL on
    buffers larger than ~2 KiB, so with ``workers > 1`` the models are
    hashed on a thread pool.  Order (and therefore every produced hash
    document) is identical to the serial path.  A
    :class:`~repro.nn.serialization.ModelState` is hashed from slices of
    its row: the same bytes, without a per-layer copy.  ``indices`` are
    the models' indices in their set, used only to key the traced path's
    ``model`` spans (default: positions in ``states``).
    """
    from repro.core.parallel import parallel_map
    from repro.observability import trace as _trace

    def hash_state(state: "OrderedDict[str, np.ndarray]") -> "list[str]":
        if isinstance(state, ModelState):
            data = memoryview(state.row).cast("B")
            extents = {name: (start, stop) for name, _, start, stop in state.schema.extents}
            return [hash_bytes(data[slice(*extents[name])], length) for name in layer_names]
        return [hash_array(state[name], length=length) for name in layer_names]

    if not _trace.active():
        return parallel_map(hash_state, states, workers)

    def hash_state_traced(
        indexed: "tuple[int, OrderedDict[str, np.ndarray]]",
    ) -> "list[str]":
        index, state = indexed
        with _trace.span("model", key=index):
            hashes: "list[str]" = []
            for layer_index, name in enumerate(layer_names):
                with _trace.span("hash", key=layer_index, kind="hash", layer=name):
                    hashes.append(hash_array(state[name], length=length))
            return hashes

    keys = range(len(states)) if indices is None else indices
    return parallel_map(hash_state_traced, list(zip(keys, states)), workers)
