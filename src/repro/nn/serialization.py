"""Binary codecs for parameter dictionaries.

Two encodings are provided, matching the two ways the paper's approaches
persist parameters:

* A **self-describing** codec (:func:`serialize_state_dict` /
  :func:`deserialize_state_dict`, or :func:`deserialize_state_row` for
  one read-only row) that embeds layer names and shapes in every blob.
  MMlib-base uses this per model, which is exactly the
  per-model key/metadata redundancy the paper's O1 identifies.
* A **schema-split** codec (:func:`parameters_to_bytes` /
  :func:`bytes_to_parameters` with a :class:`StateSchema`) that stores the
  raw float32 stream only; names and shapes live in a schema saved once
  per model set.  Baseline/Update/Provenance use this.

A :class:`ModelState` is the in-memory twin of the schema-split stream:
one model's parameters as one contiguous float32 row, seen through
per-layer views laid out by the schema.

All multi-byte integers are little-endian.
"""

from __future__ import annotations

import math
import struct
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.errors import ArchitectureMismatchError, SerializationError
from repro.nn.module import DTYPE

_MAGIC = b"RSD1"
_ITEM_SIZE = np.dtype(DTYPE).itemsize

StateDict = "OrderedDict[str, np.ndarray]"


@dataclass(frozen=True)
class StateSchema:
    """Layer names and shapes of a parameter dictionary, without values.

    One schema describes every model in a set that shares an architecture,
    which is what lets the set-oriented approaches save it only once.
    """

    entries: tuple[tuple[str, tuple[int, ...]], ...]

    @classmethod
    def from_state_dict(cls, state: "OrderedDict[str, np.ndarray]") -> "StateSchema":
        return cls(tuple((name, tuple(arr.shape)) for name, arr in state.items()))

    @property
    def num_parameters(self) -> int:
        return self.num_bytes // _ITEM_SIZE

    @property
    def num_bytes(self) -> int:
        """Bytes of one model's raw float32 parameter stream."""
        return self.extents[-1][3] if self.extents else 0

    def layer_names(self) -> list[str]:
        return [name for name, _shape in self.entries]

    @cached_property
    def extents(self) -> "tuple[tuple[str, tuple[int, ...], int, int], ...]":
        """``(name, shape, start, stop)`` of every layer: its byte range
        within one model's float32 row (computed once per schema)."""
        extents, start = [], 0
        for name, shape in self.entries:
            stop = start + math.prod(shape) * _ITEM_SIZE
            extents.append((name, shape, start, stop))
            start = stop
        return tuple(extents)

    def to_json(self) -> list[list[object]]:
        """JSON-serializable representation (used by document stores)."""
        return [[name, list(shape)] for name, shape in self.entries]

    @classmethod
    def from_json(cls, data: list[list[object]]) -> "StateSchema":
        try:
            entries = tuple(
                (str(name), tuple(int(d) for d in shape)) for name, shape in data
            )
        except (TypeError, ValueError) as exc:
            raise SerializationError(f"malformed schema JSON: {data!r}") from exc
        return cls(entries)


class ModelState(OrderedDict):
    """One model's parameters: per-layer views of one float32 row.

    ``row`` holds the model's raw parameter stream in ``schema`` order,
    so encoding or hashing it needs no per-layer copy.  The mapping
    behaves like a state dict whose keys are fixed by the schema:
    assigning ``state[name] = value`` writes ``value`` into the row (an
    unknown layer or a wrong shape raises
    :class:`~repro.errors.ArchitectureMismatchError`), and removing a
    layer raises, so the row and the schema cannot drift apart.  It
    pickles as a plain ``OrderedDict``; :meth:`copy` copies the row.
    """

    __slots__ = ("schema", "row")

    def __init__(self, schema: StateSchema, row: np.ndarray) -> None:
        super().__init__()
        self.schema, self.row = schema, row
        place = OrderedDict.__setitem__
        for name, shape, start, _stop in schema.extents:
            place(self, name, np.ndarray(shape, DTYPE, row, start))

    def __setitem__(self, name: str, value) -> None:
        view = self.get(name)
        if view is None:
            raise ArchitectureMismatchError(f"unknown layer {name!r}")
        value = np.asarray(value)
        if value.shape != view.shape:
            raise ArchitectureMismatchError(
                f"layer {name!r}: expected shape {view.shape}, got {value.shape}"
            )
        view[...] = value

    def _fixed(self, *_args, **_kwargs):
        raise ArchitectureMismatchError("the layers of a model state are fixed")

    __delitem__ = pop = popitem = clear = move_to_end = _fixed

    def copy(self) -> "ModelState":
        """A state over a private copy of the row."""
        return ModelState(self.schema, self.row.copy())

    def __reduce__(self):
        return OrderedDict, (list(self.items()),)


def state_row(state: "OrderedDict[str, np.ndarray]") -> np.ndarray:
    """A new float32 row holding ``state``'s parameters in order."""
    if isinstance(state, ModelState):
        return state.row.copy()
    return np.concatenate(
        [np.ravel(array) for array in state.values()], dtype=DTYPE, casting="unsafe"
    )


def serialize_state_dict(state: "OrderedDict[str, np.ndarray]") -> bytes:
    """Encode a state dict into a self-describing binary blob."""
    parts: list[bytes] = [_MAGIC, struct.pack("<I", len(state))]
    for name, array in state.items():
        # asarray, not ascontiguousarray: the latter promotes 0-dim arrays
        # to 1-dim and would record the wrong shape.  tobytes() emits
        # C-order bytes regardless of the input layout.
        array = np.asarray(array, dtype=DTYPE)
        encoded_name = name.encode("utf-8")
        if len(encoded_name) > 0xFFFF:
            raise SerializationError(f"layer name too long: {name!r}")
        parts.append(struct.pack("<H", len(encoded_name)))
        parts.append(encoded_name)
        parts.append(struct.pack("<B", array.ndim))
        parts.append(struct.pack(f"<{array.ndim}I", *array.shape))
        parts.append(array.tobytes())
    return b"".join(parts)


def _layers(blob: bytes) -> "list[tuple[str, tuple[int, ...], int, int]]":
    """``(name, shape, offset, count)`` of every layer of a blob produced by
    :func:`serialize_state_dict`, checked against the blob's length."""
    if blob[:4] != _MAGIC:
        raise SerializationError("bad magic: not a serialized state dict")
    offset = 4
    try:
        (count,) = struct.unpack_from("<I", blob, offset)
        offset += 4
        layers = []
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", blob, offset)
            offset += 2
            name = blob[offset : offset + name_len].decode("utf-8")
            offset += name_len
            (ndim,) = struct.unpack_from("<B", blob, offset)
            offset += 1
            shape = struct.unpack_from(f"<{ndim}I", blob, offset)
            offset += 4 * ndim
            size = math.prod(shape)
            layers.append((name, shape, offset, size))
            offset += size * _ITEM_SIZE
    except (struct.error, UnicodeDecodeError) as exc:
        raise SerializationError("truncated or corrupt state dict blob") from exc
    if offset > len(blob):
        raise SerializationError("truncated or corrupt state dict blob")
    if offset != len(blob):
        raise SerializationError(
            f"trailing bytes in state dict blob: {len(blob) - offset}"
        )
    return layers


def deserialize_state_dict(blob: bytes) -> "OrderedDict[str, np.ndarray]":
    """Decode a blob produced by :func:`serialize_state_dict`."""
    return OrderedDict(
        (name, np.frombuffer(blob, DTYPE, size, offset).reshape(shape).copy())
        for name, shape, offset, size in _layers(blob)
    )


def deserialize_state_row(blob: bytes) -> ModelState:
    """Decode a blob produced by :func:`serialize_state_dict` into one
    model over a read-only row: its parameter bytes are copied once,
    straight into the row."""
    layers = _layers(blob)
    view = memoryview(blob)
    row = np.frombuffer(
        b"".join(view[offset : offset + size * _ITEM_SIZE] for _n, _s, offset, size in layers),
        dtype=DTYPE,
    )
    return ModelState(StateSchema(tuple((name, shape) for name, shape, _o, _c in layers)), row)


def parameters_to_bytes(state: "OrderedDict[str, np.ndarray]") -> bytes:
    """Concatenate a state dict's float32 values into a raw byte stream."""
    if isinstance(state, ModelState):
        return state.row.tobytes()
    return b"".join(
        np.asarray(arr, dtype=DTYPE).tobytes() for arr in state.values()
    )


def bytes_to_parameters(
    raw: bytes, schema: StateSchema, offset: int = 0
) -> "OrderedDict[str, np.ndarray]":
    """Decode one model's raw parameter stream according to ``schema``.

    ``offset`` addresses the model's start within a concatenated multi-model
    stream (Baseline stores all models in one file).
    """
    end = offset + schema.num_bytes
    if end > len(raw):
        raise SerializationError(
            f"parameter stream too short: need {end} bytes, have {len(raw)}"
        )
    state: "OrderedDict[str, np.ndarray]" = OrderedDict()
    cursor = offset
    for name, shape in schema.entries:
        size = int(np.prod(shape)) if shape else 1
        array = np.frombuffer(raw, dtype=DTYPE, count=size, offset=cursor)
        state[name] = array.reshape(shape).copy()
        cursor += size * _ITEM_SIZE
    return state


def state_dict_num_parameters(state: "OrderedDict[str, np.ndarray]") -> int:
    """Total number of scalar parameters in ``state``."""
    return sum(int(arr.size) for arr in state.values())


def state_dict_num_bytes(state: "OrderedDict[str, np.ndarray]") -> int:
    """Raw float32 payload size of ``state`` in bytes."""
    return state_dict_num_parameters(state) * _ITEM_SIZE
