"""The Baseline approach (§3.2).

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

The module also exposes :func:`write_full_set` / :func:`read_full_set`,
the "Baseline logic" that the Update and Provenance approaches reuse for
their initial (and snapshot) saves, exactly as the paper describes.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.architectures.registry import get_architecture
from repro.core.approach import SETS_COLLECTION, SaveApproach, SaveContext
from repro.core.model_set import ModelSet
from repro.core.parallel import parallel_map
from repro.core.quantized import to_float16
from repro.core.recovery import execute, resolve_chain, resolve_chunked
from repro.core.save_info import SetMetadata, UpdateInfo
from repro.nn.serialization import StateSchema, parameters_to_bytes
from repro.observability import trace as _trace
from repro.storage.hashing import hash_bytes


def write_full_set(
    context: SaveContext,
    model_set: ModelSet,
    set_id: str,
    doc_type: str,
    metadata: SetMetadata | None,
    extra_fields: dict[str, Any] | None = None,
) -> str:
    """Persist a full set representation (Baseline's save logic).

    Writes one parameter artifact (all models concatenated) and one
    descriptor document.  ``extra_fields`` lets callers (Update's initial
    save) piggyback additional per-set data onto the same document.
    """
    metadata = metadata if metadata is not None else SetMetadata()
    # Per-model serialization is independent, so it runs on the context's
    # worker lanes; concatenation order is model order either way, and the
    # put is striped across the same lanes.
    if _trace.active():

        def serialize_one(indexed):
            index, state = indexed
            with _trace.span("model", key=index, kind="serialize"):
                return parameters_to_bytes(state)

        with _trace.span("serialize", kind="serialize"):
            blobs = parallel_map(
                serialize_one, list(enumerate(model_set.states)), context.workers
            )
    else:
        blobs = parallel_map(parameters_to_bytes, model_set.states, context.workers)
    payload = b"".join(blobs)
    with _trace.span("store-put", kind="store-write", artifact=f"{set_id}-params"):
        params_artifact = context.file_store.put(
            payload,
            artifact_id=f"{set_id}-params",
            category="parameters",
            workers=context.workers,
        )
    spec = get_architecture(model_set.architecture)
    document: dict[str, Any] = {
        "type": doc_type,
        "architecture": model_set.architecture,
        "architecture_code": spec.source_code,
        "num_models": len(model_set),
        "schema": model_set.schema.to_json(),
        "params_artifact": params_artifact,
        "metadata": metadata.to_json(),
    }
    if extra_fields:
        document.update(extra_fields)
    with _trace.span("metadata", kind="metadata"):
        context.document_store.insert(SETS_COLLECTION, document, doc_id=set_id)
    return set_id


def write_full_set_streaming(
    context: SaveContext,
    states,
    architecture: str,
    num_models: int,
    set_id: str,
    doc_type: str,
    metadata: SetMetadata | None,
    extra_fields: dict[str, Any] | None = None,
    per_state=None,
) -> str:
    """Streaming variant of :func:`write_full_set`.

    ``states`` is any iterable of parameter dictionaries; models are
    appended to the parameter artifact one at a time, so peak memory is
    one model, not the whole set.  ``per_state(index, state)`` lets a
    caller piggyback per-model work on the single pass (the Update
    approach hashes each model here).  The declared ``num_models`` is
    validated against the iterable's actual length.
    """
    from repro.errors import ArchitectureMismatchError

    metadata = metadata if metadata is not None else SetMetadata()
    schema: StateSchema | None = None
    count = 0
    with context.file_store.open_writer(
        f"{set_id}-params", category="parameters", workers=context.workers
    ) as writer:
        for state in states:
            if schema is None:
                schema = StateSchema.from_json(
                    StateSchema.from_state_dict(state).to_json()
                )
            else:
                entries = tuple(
                    (name, tuple(arr.shape)) for name, arr in state.items()
                )
                if entries != schema.entries:
                    raise ArchitectureMismatchError(
                        f"model {count} does not match the set schema"
                    )
            with _trace.span("model", key=count, kind="serialize"):
                writer.write(parameters_to_bytes(state))
                if per_state is not None:
                    per_state(count, state)
            count += 1
        if schema is None or count != num_models:
            writer.abort()
            raise ValueError(
                f"declared num_models={num_models} but the iterable yielded "
                f"{count} models"
            )
        with _trace.span("store-put", kind="store-write", artifact=f"{set_id}-params"):
            params_artifact = writer.close()

    spec = get_architecture(architecture)
    document: dict[str, Any] = {
        "type": doc_type,
        "architecture": architecture,
        "architecture_code": spec.source_code,
        "num_models": num_models,
        "schema": schema.to_json(),
        "params_artifact": params_artifact,
        "metadata": metadata.to_json(),
    }
    if extra_fields:
        document.update(extra_fields)
    with _trace.span("metadata", kind="metadata"):
        context.document_store.insert(SETS_COLLECTION, document, doc_id=set_id)
    return set_id


def read_single_model(
    context: SaveContext, document: dict, set_id: str, model_index: int
):
    """Read one model's parameters out of a full-set artifact.

    Uses a byte-range read: one model of a 5000-model FFNN-48 set costs
    a ~20 KB read instead of the ~100 MB full artifact.
    """
    return execute(context, resolve_chain(document, [], set_id, model_index))[0]


def read_full_set(context: SaveContext, document: dict, set_id: str) -> ModelSet:
    """Reconstruct a set saved by :func:`write_full_set`."""
    plan = resolve_chain(document, [], set_id)
    return ModelSet(plan.architecture, execute(context, plan))


# ---------------------------------------------------------------------------
# content-addressed (deduplicated) set representation
# ---------------------------------------------------------------------------

def _layer_bytes(array: np.ndarray, dtype: str) -> bytes:
    """One layer tensor's serialized chunk bytes (the dedup unit)."""
    if dtype == "float16":
        return to_float16(array).tobytes()
    return np.asarray(array, dtype=np.float32).tobytes()


def write_chunked_set(
    context: SaveContext,
    states,
    architecture: str,
    num_models: int,
    set_id: str,
    doc_type: str,
    metadata: SetMetadata | None,
    extra_fields: dict[str, Any] | None = None,
    digests: "list[list[str]] | None" = None,
    dtype: str = "float32",
    store_digests_in_doc: bool = True,
) -> "list[list[str]]":
    """Persist a set through the content-addressed chunk layer.

    Every layer tensor becomes one chunk keyed by the SHA-256 of its
    serialized bytes; chunks already held by the context's
    :class:`~repro.storage.chunk_index.ChunkStore` — identical layers
    across the models of this set, across derivation chains, or across
    unrelated sets — are elided, charging only metadata cost.  ``states``
    is any iterable of parameter dictionaries, consumed in a single pass
    with bounded memory.  ``digests`` supplies precomputed full-length
    per-layer hashes (the Update hash pass) so the bytes are never hashed
    twice; when omitted the digests are computed here, once.  Returns the
    digest matrix actually used, one row per model.
    """
    from repro.errors import ArchitectureMismatchError

    metadata = metadata if metadata is not None else SetMetadata()
    chunk_store = context.chunk_store()
    schema: StateSchema | None = None
    matrix: list[list[str]] = []
    count = 0
    with chunk_store.open_ingest(
        f"{set_id}-chunks", category="parameters", workers=context.workers
    ) as session:
        for state in states:
            if schema is None:
                schema = StateSchema.from_json(
                    StateSchema.from_state_dict(state).to_json()
                )
            else:
                entries = tuple(
                    (name, tuple(arr.shape)) for name, arr in state.items()
                )
                if entries != schema.entries:
                    raise ArchitectureMismatchError(
                        f"model {count} does not match the set schema"
                    )
            row: list[str] = []
            with _trace.span("model", key=count, kind="serialize"):
                for layer, name in enumerate(schema.layer_names()):
                    with _trace.span(
                        "chunk", key=layer, kind="serialize", layer=name
                    ):
                        if digests is not None and dtype == "float32":
                            digest = digests[count][layer]
                            session.add(
                                digest, lambda n=name: _layer_bytes(state[n], dtype)
                            )
                        else:
                            payload = _layer_bytes(state[name], dtype)
                            digest = hash_bytes(payload)
                            session.add(digest, payload)
                        row.append(digest)
            matrix.append(row)
            count += 1
        if schema is None or count != num_models:
            session.abort()
            raise ValueError(
                f"declared num_models={num_models} but the iterable yielded "
                f"{count} models"
            )
        with _trace.span("chunk-commit", kind="store-write"):
            session.close()

    spec = get_architecture(architecture)
    document: dict[str, Any] = {
        "type": doc_type,
        "storage": "chunked",
        "architecture": architecture,
        "architecture_code": spec.source_code,
        "num_models": num_models,
        "schema": schema.to_json(),
        "metadata": metadata.to_json(),
    }
    if dtype != "float32":
        document["param_dtype"] = dtype
    if store_digests_in_doc:
        document["chunk_digests"] = matrix
    if extra_fields:
        document.update(extra_fields)
    with _trace.span("metadata", kind="metadata"):
        context.document_store.insert(SETS_COLLECTION, document, doc_id=set_id)
    return matrix


def read_chunked_set(context: SaveContext, document: dict, set_id: str) -> ModelSet:
    """Reconstruct a set saved by :func:`write_chunked_set`.

    Single-fetch fan-out: each *unique* chunk is fetched once (vectored
    range reads per pack artifact) and copied into every referencing
    (model, layer) slot; assembly parallelizes across the worker lanes.
    """
    plan = resolve_chunked(context, document, set_id)
    return ModelSet(plan.architecture, execute(context, plan))


def read_chunked_model(
    context: SaveContext, document: dict, set_id: str, model_index: int
):
    """Read one model of a chunked set (only its chunks are fetched)."""
    return execute(context, resolve_chunked(context, document, set_id, model_index))[0]


class BaselineApproach(SaveApproach):
    """Full-snapshot, set-oriented saving (the paper's Baseline)."""

    name = "baseline"

    def save_initial(
        self, model_set: ModelSet, metadata: SetMetadata | None = None
    ) -> str:
        set_id = self.context.next_set_id(self.name)
        if self.context.dedup:
            write_chunked_set(
                self.context,
                model_set.states,
                model_set.architecture,
                len(model_set),
                set_id,
                doc_type=self.name,
                metadata=metadata,
            )
            return set_id
        return write_full_set(
            self.context, model_set, set_id, doc_type=self.name, metadata=metadata
        )

    def save_initial_streaming(
        self,
        architecture: str,
        states,
        num_models: int,
        metadata: SetMetadata | None = None,
    ) -> str:
        set_id = self.context.next_set_id(self.name)
        if self.context.dedup:
            # write_chunked_set consumes the iterable in one bounded pass.
            write_chunked_set(
                self.context,
                states,
                architecture,
                num_models,
                set_id,
                doc_type=self.name,
                metadata=metadata,
            )
            return set_id
        return write_full_set_streaming(
            self.context,
            states,
            architecture,
            num_models,
            set_id,
            doc_type=self.name,
            metadata=metadata,
        )

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
        set_id = self.context.next_set_id(self.name)
        if self.context.dedup:
            write_chunked_set(
                self.context,
                model_set.states,
                model_set.architecture,
                len(model_set),
                set_id,
                doc_type=self.name,
                metadata=metadata,
                extra_fields={"base_set": base_set_id},
            )
            return set_id
        return write_full_set(
            self.context,
            model_set,
            set_id,
            doc_type=self.name,
            metadata=metadata,
            extra_fields={"base_set": base_set_id},
        )

    def recover(self, set_id: str) -> ModelSet:
        document = self.context.set_document(set_id)
        self._require_type(document, self.name, set_id)
        if document.get("storage") == "chunked":
            return read_chunked_set(self.context, document, set_id)
        return read_full_set(self.context, document, set_id)

    def recover_model(self, set_id: str, model_index: int):
        document = self.context.set_document(set_id)
        self._require_type(document, self.name, set_id)
        if document.get("storage") == "chunked":
            return read_chunked_model(self.context, document, set_id, model_index)
        return read_single_model(self.context, document, set_id, model_index)
