"""The Baseline approach (§3.2) and the one way a full set is written.

Baseline represents a set of models by exactly three kinds of data —
metadata, model architecture, and parameters — and addresses O1
(redundant model data) and O3 (write overhead):

* metadata and architecture are saved **once per set** (they are shared),
* the parameters of all models are concatenated, in model order, into a
  **single binary artifact** (raw float32, no per-model framing), and
* the whole save is one document write plus one file write, regardless
  of the number of models.

Recovery reads the descriptor document (which pins the parameter schema)
and slices each model's parameters out of the artifact sequentially.

:func:`write_set` is that save in three steps, the mirror of
:mod:`repro.core.recovery`: **encode** (one validating pass over the
states), **land** (one artifact, or content-addressed layer chunks) and
**describe** (descriptor and hash info).  It is the "Baseline logic" the
other approaches reuse for their full sets, exactly as the paper describes.
"""

from __future__ import annotations

from itertools import chain, islice
from typing import Any, Iterator, Sequence

import numpy as np

from repro.architectures.registry import get_architecture
from repro.core.approach import SETS_COLLECTION, SaveApproach, SaveContext
from repro.core.model_set import ModelSet
from repro.core.parallel import parallel_map
from repro.core.recovery import (
    HASH_COLLECTION,
    execute,
    resolve,
    resolve_chain,
    resolve_chunked,
)
from repro.core.save_info import SetMetadata, UpdateInfo
from repro.errors import ArchitectureMismatchError
from repro.nn.serialization import ModelState, StateSchema, parameters_to_bytes
from repro.observability import trace as _trace
from repro.storage.hashing import hash_bytes, hash_states

#: Serialized size of one block.  A set that fits one lands as one ``put``;
#: a larger one streams block by block, so peak memory is one block.  Not
#: "always stream": a replicated store hashes a streamed payload once per
#: replica writer on top of its own pass (DESIGN.md §9).
BLOCK_BYTES = 32 * 1024 * 1024

_FP16_MAX = float(np.finfo(np.float16).max)  # 65504


# -- encode -----------------------------------------------------------------
def to_float16(array) -> np.ndarray:
    """Narrow ``array`` to half precision, saturating instead of overflowing.

    A finite value beyond ±65504 stores as ±65504 — the nearest value the
    tier can hold — rather than turning into an infinity the model never
    contained (and a ``RuntimeWarning`` per save); ``±inf`` and ``NaN``
    pass through.  In-range values cast exactly as ``astype`` does.
    """
    values = np.asarray(array, dtype=np.float32)
    clipped = np.clip(values, -_FP16_MAX, _FP16_MAX)
    return np.where(np.isinf(values), values, clipped).astype(np.float16)


def _layer_bytes(array: np.ndarray, dtype: str) -> bytes:
    """One layer tensor's serialized bytes (the dedup unit)."""
    if dtype == "float16":
        return to_float16(array).tobytes()
    return np.asarray(array, dtype=np.float32).tobytes()


def _half_parameters(state) -> bytes:
    """:func:`parameters_to_bytes` at half precision."""
    return b"".join(_layer_bytes(array, "float16") for array in state.values())


def layer_hashes(
    states: list,
    layer_names: "list[str]",
    workers: int = 1,
    indices: "Sequence[int] | None" = None,
):
    """Full-length per-layer hashes of ``states``, one row per model.

    Hashing is the dominant compute cost of an Update save; the per-model
    work runs on ``workers`` thread lanes (hashlib drops the GIL on large
    buffers) and the output is identical to the serial loop.  ``indices``
    (the models' indices in their set) key the trace's ``model`` spans.
    """
    with _trace.span("hash", kind="hash"):
        return hash_states(
            states, layer_names, length=64, workers=workers, indices=indices
        )


class _Blocks:
    """encode: the one validating pass over a set's states.

    The first state pins the schema, every later one must match it, and
    the iterable must yield exactly the declared count.  Iterating yields
    the validated states; :meth:`serialized` yields them concatenated in
    blocks of at most ``BLOCK_BYTES``.
    """

    def __init__(
        self, states, num_models: int, dtype: str, workers: int, hashed: bool
    ) -> None:
        iterator = iter(states)
        first = next(iterator, None)
        # An empty iterable pins nothing; iterating it raises the count error.
        self._states = iterator if first is None else chain((first,), iterator)
        self.schema = (
            first.schema
            if isinstance(first, ModelState)
            else StateSchema.from_state_dict(first or {})
        )
        self.num_models, self.dtype, self.workers = num_models, dtype, workers
        model_nbytes = self.schema.num_parameters * np.dtype(dtype).itemsize
        self.per_block = max(1, BLOCK_BYTES // max(1, model_nbytes))
        #: Whether the declared set fits a single block.
        self.one_block = num_models * model_nbytes <= BLOCK_BYTES
        #: Per-layer hash matrix, filled block by block when ``hashed``.
        self.hashes: "list[list[str]] | None" = [] if hashed else None

    def __iter__(self) -> "Iterator[dict]":
        schema, count = self.schema, 0
        for count, state in enumerate(self._states, 1):
            # A row-backed state's layout is its schema: no re-check.
            if isinstance(state, ModelState) and state.schema == schema:
                yield state
                continue
            entries = tuple((name, tuple(arr.shape)) for name, arr in state.items())
            if entries != schema.entries:
                raise ArchitectureMismatchError(
                    f"model {count - 1} does not match the set schema"
                )
            yield state
        if count != self.num_models or not count:
            raise ValueError(
                f"declared num_models={self.num_models} but the iterable "
                f"yielded {count} models"
            )

    def serialized(self) -> "Iterator[bytes]":
        """Each block's models concatenated at the set's dtype.

        Per-model serialization is independent, so it runs on the worker
        lanes; concatenation order is model order either way.  Span keys
        are absolute model indices, whatever the blocking.
        """
        encode = parameters_to_bytes if self.dtype == "float32" else _half_parameters
        layer_names = self.schema.layer_names()
        states, first = iter(self), 0
        while block := list(islice(states, self.per_block)):
            if self.hashes is not None:
                self.hashes.extend(
                    layer_hashes(
                        block, layer_names, self.workers, range(first, first + len(block))
                    )
                )
            if _trace.active():

                def encode_traced(indexed):
                    with _trace.span("model", key=indexed[0], kind="serialize"):
                        return encode(indexed[1])

                with _trace.span("serialize", kind="serialize"):
                    blobs = parallel_map(
                        encode_traced, list(enumerate(block, first)), self.workers
                    )
            else:
                blobs = parallel_map(encode, block, self.workers)
            yield b"".join(blobs)
            first += len(block)


# -- land -------------------------------------------------------------------
def write_full_set(context: SaveContext, blocks: _Blocks, artifact_id: str) -> str:
    """land: one artifact, all models concatenated (Baseline's layout).

    One block is one ``put`` striped across the worker lanes; a larger set
    streams through a writer, which an error in any block abandons.
    Returns the artifact id.
    """
    store, workers = context.file_store, context.workers
    if blocks.one_block:
        payload = b"".join(blocks.serialized())
        with _trace.span("store-put", kind="store-write", artifact=artifact_id):
            return store.put(
                payload, artifact_id=artifact_id, category="parameters", workers=workers
            )
    with store.open_writer(artifact_id, category="parameters", workers=workers) as writer:
        for payload in blocks.serialized():
            writer.write(payload)
        with _trace.span("store-put", kind="store-write", artifact=artifact_id):
            return writer.close()


def write_chunked_set(
    context: SaveContext,
    blocks: _Blocks,
    pack_id: str,
    digests: "list[list[str]] | None" = None,
) -> "list[list[str]]":
    """land: content-addressed layer chunks (the deduplicated layout).

    Every layer tensor becomes one chunk keyed by the SHA-256 of its
    serialized bytes; chunks already held by the context's
    :class:`~repro.storage.chunk_index.ChunkStore` — identical layers
    across the models of this set, across derivation chains, or across
    unrelated sets — are elided, charging only metadata cost.  ``digests``
    supplies precomputed full-length hashes of those bytes (the Update
    hash pass), so a chunk is serialized only if it is new and never
    hashed twice; when omitted the digests are computed here, once.
    Returns the digest matrix actually used, one row per model.
    """
    layer_names, dtype = blocks.schema.layer_names(), blocks.dtype
    matrix: list[list[str]] = []
    with context.chunk_store().open_ingest(
        pack_id, category="parameters", workers=context.workers
    ) as session:
        for index, state in enumerate(blocks):
            row: list[str] = []
            with _trace.span("model", key=index, kind="serialize"):
                for layer, name in enumerate(layer_names):
                    with _trace.span("chunk", key=layer, kind="serialize", layer=name):
                        if digests is not None:
                            digest = digests[index][layer]
                            session.add(
                                digest, lambda n=name: _layer_bytes(state[n], dtype)
                            )
                        else:
                            payload = _layer_bytes(state[name], dtype)
                            digest = hash_bytes(payload)
                            session.add(digest, payload)
                        row.append(digest)
            matrix.append(row)
        with _trace.span("chunk-commit", kind="store-write"):
            session.close()
    return matrix


# -- describe ---------------------------------------------------------------
def write_hash_info(
    context: SaveContext,
    set_id: str,
    layer_names: "list[str]",
    hashes: "list[list[str]]",
    replace: bool = False,
) -> None:
    """Store a set's per-layer hash matrix; ``replace`` upserts it."""
    store = context.document_store
    document = {"layers": layer_names, "hashes": hashes}
    with _trace.span("hash-info", kind="metadata"):
        if replace and store.exists(HASH_COLLECTION, set_id):
            store.replace(HASH_COLLECTION, set_id, document)
        else:
            store.insert(HASH_COLLECTION, document, doc_id=set_id, category="hash-info")


def write_set(
    approach: SaveApproach,
    states,
    architecture: str,
    num_models: int,
    metadata: "SetMetadata | None",
    fields: "dict[str, Any] | None" = None,
    *,
    set_id: "str | None" = None,
    dtype: str = "float32",
    digests: "list[list[str]] | None" = None,
    hash_info: bool = False,
    replace: bool = False,
    suffix: str = "params",
    chunked: "bool | None" = None,
) -> str:
    """Persist a full set representation: encode → land → describe.

    ``states`` is any iterable of parameter dictionaries (a materialized
    set is ``model_set.states``), consumed in one bounded pass and checked
    against the declared ``num_models``.  The bytes land as layer chunks
    on a deduplicating context and as the one artifact
    ``<set_id>-<suffix>`` otherwise; a caller whose reader cannot follow a
    chunked set says ``chunked=False``.  The descriptor holds the shared
    entries — architecture and metadata once per set — then the caller's
    own ``fields``; its key order is part of the stored bytes.
    ``hash_info`` also stores the per-layer hash matrix: the chunk digests
    when chunked (which then leave the descriptor), one hash pass per
    block otherwise.  ``replace`` rewrites the existing set ``set_id`` in
    place: descriptor replaced, the artifact it named deleted, hash info
    upserted.  Mutations happen in the order bytes → descriptor → hash
    info.  Returns the set id (the context's next one unless given).
    """
    context = approach.context
    chunked = context.dedup if chunked is None else chunked
    set_id = set_id or context.next_set_id(approach.name)
    blocks = _Blocks(
        states, num_models, dtype, context.workers, hashed=hash_info and not chunked
    )
    metadata = metadata if metadata is not None else SetMetadata()
    param_dtype = {} if dtype == "float32" else {"param_dtype": dtype}
    document: dict[str, Any] = {"type": approach.name}
    if chunked:
        document["storage"] = "chunked"
    document |= {
        "architecture": architecture,
        "architecture_code": get_architecture(architecture).source_code,
        "num_models": num_models,
        "schema": blocks.schema.to_json(),
    }
    if chunked:
        matrix = write_chunked_set(context, blocks, f"{set_id}-chunks", digests)
        document |= {"metadata": metadata.to_json(), **param_dtype}
        if not hash_info:
            document["chunk_digests"] = matrix
    else:
        artifact = write_full_set(context, blocks, f"{set_id}-{suffix}")
        matrix = blocks.hashes
        document |= {**param_dtype, "params_artifact": artifact, "metadata": metadata.to_json()}
    document.update(fields or {})
    store = context.document_store
    superseded = (
        store.peek(SETS_COLLECTION, set_id).get("params_artifact") if replace else None
    )
    with _trace.span("metadata", kind="metadata"):
        if replace:
            store.replace(SETS_COLLECTION, set_id, document)
        else:
            store.insert(SETS_COLLECTION, document, doc_id=set_id)
    if superseded is not None and context.file_store.exists(superseded):
        context.file_store.delete(superseded)
    if hash_info:
        write_hash_info(context, set_id, blocks.schema.layer_names(), matrix, replace)
    return set_id


# -- read -------------------------------------------------------------------
def read_single_model(
    context: SaveContext, document: dict, set_id: str, model_index: int
):
    """Read one model's parameters out of a full-set artifact.

    Uses a byte-range read: one model of a 5000-model FFNN-48 set costs
    a ~20 KB read instead of the ~100 MB full artifact.
    """
    return execute(context, resolve_chain(document, [], set_id, model_index)).state(0)


def read_full_set(context: SaveContext, document: dict, set_id: str) -> ModelSet:
    """Reconstruct an artifact-stored set saved by :func:`write_set`."""
    return execute(context, resolve_chain(document, [], set_id))


# No caller in the package: Baseline recovers through ``recovery.resolve``.
# Kept because benchmarks/wallclock/layers.py (WRAPS) wraps both by name;
# they go with those two rows.
def read_chunked_set(context: SaveContext, document: dict, set_id: str) -> ModelSet:
    """Reconstruct a chunked set saved by :func:`write_set`."""
    return execute(context, resolve_chunked(context, document, set_id))


def read_chunked_model(
    context: SaveContext, document: dict, set_id: str, model_index: int
):
    """Read one model of a chunked set (only its chunks are fetched)."""
    return execute(context, resolve_chunked(context, document, set_id, model_index)).state(0)


class BaselineApproach(SaveApproach):
    """Full-snapshot, set-oriented saving (the paper's Baseline)."""

    name = "baseline"
    #: Stored parameter dtype, and the artifact suffix that goes with it.
    dtype = "float32"
    suffix = "params"

    def _save(
        self,
        architecture: str,
        states,
        num_models: int,
        metadata: SetMetadata | None,
        base_set_id: str | None = None,
    ) -> str:
        return write_set(
            self,
            states,
            architecture,
            num_models,
            metadata,
            None if base_set_id is None else {"base_set": base_set_id},
            dtype=self.dtype,
            suffix=self.suffix,
        )

    def save_initial(
        self, model_set: ModelSet, metadata: SetMetadata | None = None
    ) -> str:
        return self._save(
            model_set.architecture, model_set.states, len(model_set), metadata
        )

    def save_initial_streaming(
        self,
        architecture: str,
        states,
        num_models: int,
        metadata: SetMetadata | None = None,
    ) -> str:
        return self._save(architecture, states, num_models, metadata)

    def save_derived(
        self,
        model_set: ModelSet,
        base_set_id: str,
        update_info: UpdateInfo | None = None,
        metadata: SetMetadata | None = None,
    ) -> str:
        # Baseline takes no advantage of the relation to the base set: it
        # always saves complete representations (its storage consumption
        # therefore does not change across use cases, Figure 3).  The base
        # reference is recorded for lineage only.  With dedup on, the
        # chunk layer recovers the redundancy anyway: unchanged layers
        # are elided because their chunks already exist.
        return self._save(
            model_set.architecture,
            model_set.states,
            len(model_set),
            metadata,
            base_set_id,
        )

    def recover(self, set_id: str) -> ModelSet:
        return execute(self.context, resolve(self, set_id))

    def recover_model(self, set_id: str, model_index: int):
        return execute(self.context, resolve(self, set_id, model_index)).state(0)
