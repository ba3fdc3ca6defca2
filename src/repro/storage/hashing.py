"""Content hashing helpers.

The Update approach identifies changed layers by comparing per-layer
parameter hashes, and the file store addresses artifacts by content hash.
SHA-256 truncated to 16 hex characters keeps the per-layer hash records
small (the paper counts hash info as real storage overhead) while leaving
collisions negligible at the scale of thousands of models.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Sequence

import numpy as np

from repro.nn.serialization import ModelState

#: Hex characters kept from the SHA-256 digest for layer hashes.
LAYER_HASH_LENGTH = 16


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
