"""The Update approach (§3.3).

Update extends Baseline by exploiting that, per update cycle, (1) not all
models are updated and (2) some models are only partially updated.  The
save procedure follows the paper's four steps:

1. save a reference to the base model set and other metadata,
2. calculate the parameter hashes for every model and layer and save them,
3. identify all changed parameters by comparing against the base set's
   hash information and document the changes in a diff list, and
4. concatenate all changed parameters into a single binary artifact.

The per-layer hash information makes change detection possible *without
loading the full representation of the previous model set* — it is real
storage overhead and is accounted as such (the paper's Figure 3 shows
Update above Baseline in U1 for exactly this reason).

Recovery comes in two strategies:

* ``"compact"`` (the default) — **delta-chain compaction**, the
  resolve → fetch → assemble executor of :mod:`repro.core.recovery`: the
  diff lists along the chain are walked metadata-only to determine, per
  model and layer, the *newest* set that wrote it; only those final
  bytes are then fetched with vectored range reads.  Time-to-recover for
  a chain of depth *d* drops from O(d × set_bytes) to O(set_bytes) plus
  O(d) metadata reads — the total parameter bytes fetched equal exactly
  one full set, regardless of depth.
* ``"replay"`` — the paper's recursive recovery: walk back to the
  nearest full snapshot and re-apply every delta forward, the cause of
  the staircase-shaped time-to-recover in Figure 5.

The optional ``snapshot_interval`` bounds the chain by inserting full
snapshots (the mitigation the paper sketches in §2.2); ``None``
reproduces the paper's unbounded behaviour.  Hashing and recovery
parallelize across the context's ``workers`` lanes; results are
byte-identical at any worker count and under either recovery strategy.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.approach import SETS_COLLECTION, SaveApproach, SaveContext
from repro.core.baseline import layer_hashes, read_full_set, write_hash_info, write_set
from repro.core.compression import get_codec
from repro.core.model_set import ModelSet
from repro.core.parallel import parallel_map
from repro.core.recovery import (
    HASH_COLLECTION,  # noqa: F401 - re-exported: where Update's hash info lives
    chain_documents,
    changed_rows,
    execute,
    is_chunked,
    resolve,
    stored_digests,
)
from repro.core.recovery import _select
from repro.core.save_info import SetMetadata, UpdateInfo
from repro.errors import InvalidUpdatePlanError, RecoveryError
from repro.nn.serialization import StateSchema
from repro.observability import trace as _trace


class UpdateApproach(SaveApproach):
    """Delta saving of changed layers, detected via per-layer hashes."""

    name = "update"
    reads_touched = True

    def __init__(
        self,
        context: SaveContext,
        snapshot_interval: int | None = None,
        codec: str = "none",
        granularity: str = "layer",
        recovery: str = "compact",
    ) -> None:
        """Create the approach.

        Parameters
        ----------
        snapshot_interval:
            Insert a full snapshot after this many deltas, bounding the
            recovery recursion; ``None`` reproduces the paper.
        codec:
            Compression codec for delta blobs (see
            :mod:`repro.core.compression`).
        granularity:
            Diff granularity: ``"layer"`` (the paper's design — only the
            layers whose hash changed are stored) or ``"model"`` (any
            change stores the whole model; ablation A5 quantifies what
            the per-layer comparison buys for partial updates).
        recovery:
            ``"compact"`` (default) resolves the chain's final writers
            metadata-only and reads each parameter exactly once;
            ``"replay"`` reproduces the paper's recursive re-application
            of every delta.
        """
        super().__init__(context)
        if snapshot_interval is not None and snapshot_interval <= 0:
            raise ValueError("snapshot_interval must be positive or None")
        if granularity not in ("layer", "model"):
            raise ValueError(
                f"granularity must be 'layer' or 'model', got {granularity!r}"
            )
        if recovery not in ("compact", "replay"):
            raise ValueError(
                f"recovery must be 'compact' or 'replay', got {recovery!r}"
            )
        self.snapshot_interval = snapshot_interval
        self.codec = get_codec(codec)
        self.granularity = granularity
        self.recovery = recovery

    # -- save --------------------------------------------------------------
    def _save_full(
        self,
        architecture: str,
        states,
        num_models: int,
        metadata: SetMetadata | None,
        base_set_id: str | None = None,
    ) -> str:
        """Initial, streamed and snapshot saves: Baseline's logic plus the
        hash info derived saves diff against.  Chunked, the chunk digests
        *are* that hash info (full-length SHA-256 of the same serialized
        bytes), so no separate hash pass runs."""
        fields: dict[str, Any] = {"kind": "full", "chain_depth": 0}
        if base_set_id is not None:
            fields["base_set"] = base_set_id
        return write_set(
            self, states, architecture, num_models, metadata, fields, hash_info=True
        )

    def save_initial(
        self, model_set: ModelSet, metadata: SetMetadata | None = None
    ) -> str:
        return self.save_initial_streaming(
            model_set.architecture, model_set.states, len(model_set), metadata
        )

    def save_initial_streaming(
        self,
        architecture: str,
        states,
        num_models: int,
        metadata: SetMetadata | None = None,
    ) -> str:
        return self._save_full(architecture, states, num_models, metadata)

    def save_derived(
        self,
        model_set: ModelSet,
        base_set_id: str,
        update_info: UpdateInfo | None = None,
        metadata: SetMetadata | None = None,
        *,
        touched: "frozenset[int] | None" = None,
    ) -> str:
        """Steps 1-4 against ``base_set_id``.

        ``touched`` narrows steps 2 and 3 to those models: every other
        model is the base's byte for byte (the caller vouches for it), so
        its hash row is the base's stored row and it cannot be in the
        diff.  ``None`` is the paper's full hash pass.
        """
        base_doc = self.context.set_document(base_set_id)
        self._require_type(base_doc, self.name, base_set_id)
        if int(base_doc["num_models"]) != len(model_set):
            raise InvalidUpdatePlanError(
                f"derived set has {len(model_set)} models, base set "
                f"{base_set_id!r} has {base_doc['num_models']}"
            )
        workers = self.context.workers
        if not self.context.dedup and base_doc.get("storage") == "chunked":
            raise InvalidUpdatePlanError(
                f"base set {base_set_id!r} is stored deduplicated; enable "
                "dedup on the context to derive from it"
            )
        chain_depth = int(base_doc.get("chain_depth", 0)) + 1
        if self.snapshot_interval is not None and chain_depth >= self.snapshot_interval:
            # Bound the recovery recursion with a full snapshot.
            return self._save_full(
                model_set.architecture,
                model_set.states,
                len(model_set),
                metadata,
                base_set_id,
            )

        # Step 2: hash every model and layer of the new set (only the
        # touched models when the caller vouches for the rest).
        layer_names = model_set.schema.layer_names()
        if touched is None:
            hashed = range(len(model_set))
        else:
            hashed = sorted(touched)
            if hashed and (hashed[0] < 0 or hashed[-1] >= len(model_set)):
                raise InvalidUpdatePlanError(
                    f"touched model indices {hashed[0]}..{hashed[-1]} out of "
                    f"range for a {len(model_set)}-model set"
                )
        rows = layer_hashes(
            [model_set.state(index) for index in hashed], layer_names, workers, hashed
        )
        # Step 3: diff against the base set's stored hash info.
        with _trace.span("diff", kind="diff"):
            # The charged read returns the base's stored (read-only)
            # matrix; a shallow copy of its rows becomes the new set's,
            # with the hashed models' rows swapped in.
            stored = stored_digests(self.context, base_doc, base_set_id)
            problem = stored.malformed(len(model_set), len(layer_names))
            if problem:
                raise InvalidUpdatePlanError(f"base set {base_set_id!r}: {problem}")
            new_hashes = list(stored.rows)
            columns = range(len(layer_names))
            whole = list(columns) if self.granularity == "model" else None
            old_rows = [new_hashes[index] for index in hashed]
            diff: list[list[Any]] = [
                [model_index, list(layers) if whole is None else whole]
                for model_index, layers in changed_rows(old_rows, rows, hashed, columns)
            ]
            for model_index, new in zip(hashed, rows):
                new_hashes[model_index] = new

        if self.context.dedup:
            # Step 4, deduplicated: every layer is referenced through the
            # chunk store under the digest the hash pass just computed
            # (no re-hash); unchanged layers and cross-model duplicates
            # are elided, so only genuinely new bytes are written.  The
            # derived set holds its own references to *all* its chunks,
            # which is what lets retention delete the base set without
            # endangering shared layers.
            return write_set(
                self,
                model_set.states,
                model_set.architecture,
                len(model_set),
                metadata,
                {
                    "kind": "delta",
                    "base_set": base_set_id,
                    "chain_depth": chain_depth,
                    "diff": diff,
                    "granularity": self.granularity,
                },
                digests=new_hashes,
                hash_info=True,
            )

        # Step 4: concatenate all changed parameters into one artifact.
        # Per-entry serialization is independent, so it runs on the
        # worker lanes; the concatenation order matches the diff list.
        set_id = self.context.next_set_id(self.name)
        metadata = metadata if metadata is not None else SetMetadata()

        def serialize_entry(entry: "list[Any]") -> bytes:
            model_index, changed_layers = entry
            state = model_set.state(model_index)
            return b"".join(
                np.ascontiguousarray(
                    state[layer_names[layer]], dtype=np.float32
                ).tobytes()
                for layer in changed_layers
            )

        if _trace.active():

            def serialize_traced(entry: "list[Any]") -> bytes:
                with _trace.span("model", key=int(entry[0]), kind="serialize"):
                    return serialize_entry(entry)

            with _trace.span("serialize", kind="serialize"):
                chunks = parallel_map(serialize_traced, diff, workers)
        else:
            chunks = parallel_map(serialize_entry, diff, workers)
        with _trace.span(
            "store-put", kind="store-write", artifact=f"{set_id}-delta"
        ):
            params_artifact = self.context.file_store.put(
                self.codec.encode(b"".join(chunks)),
                artifact_id=f"{set_id}-delta",
                category="parameters",
                workers=workers,
            )

        # Step 1 (persisted last so the document can reference the blob).
        with _trace.span("metadata", kind="metadata"):
            self.context.document_store.insert(
                SETS_COLLECTION,
                {
                    "type": self.name,
                    "kind": "delta",
                    "base_set": base_set_id,
                    "chain_depth": chain_depth,
                    "architecture": str(base_doc["architecture"]),
                    "num_models": len(model_set),
                    "schema": model_set.schema.to_json(),
                    "diff": diff,
                    "codec": self.codec.name,
                    "granularity": self.granularity,
                    "params_artifact": params_artifact,
                    "metadata": metadata.to_json(),
                },
                doc_id=set_id,
            )
        write_hash_info(self.context, set_id, layer_names, new_hashes)
        return set_id

    # -- recover -------------------------------------------------------------
    def _replays(self, set_id: str) -> bool:
        """Chunked sets hold their own final bytes: nothing to replay."""
        return self.recovery == "replay" and not is_chunked(self.context, set_id)

    def recover(self, set_id: str) -> ModelSet:
        if self._replays(set_id):
            return self._recover_replay(set_id)
        return execute(self.context, resolve(self, set_id))

    def _recover_replay(self, set_id: str) -> ModelSet:
        # The paper's recovery: walk the chain back to the nearest full
        # snapshot, then re-apply the deltas forward.  Iterative to keep
        # long chains safe.
        base_doc, base_id, chain = chain_documents(self, set_id)
        model_set = read_full_set(self.context, base_doc, base_id)
        for index, document in enumerate(reversed(chain)):
            with _trace.span("apply-delta", key=index, kind="store-read"):
                model_set = self._apply_delta(model_set, document)
        return model_set

    def recover_model(self, set_id: str, model_index: int):
        """Recover one model by compacting its slice of the chain.

        Only the target model's final bytes are read: per layer, the
        newest chain set that wrote it serves the value — one vectored
        range read per contributing artifact, none for deltas whose
        writes to this model were all superseded.  With a compressing
        codec, range addressing into a delta blob is impossible and the
        full delta is read and decoded instead.  ``"replay"`` recovery
        replays the whole set (Figure 5's algorithm) and keeps one model.
        """
        if self._replays(set_id):
            model_set = self._recover_replay(set_id)
            (index,) = _select(len(model_set), model_index, set_id)
            return model_set.state(index)
        return execute(self.context, resolve(self, set_id, model_index)).state(0)

    def _apply_delta(self, base: ModelSet, document: dict) -> ModelSet:
        schema = StateSchema.from_json(document["schema"])
        if schema != base.schema:
            raise RecoveryError("delta schema does not match the base set's schema")
        payload = get_codec(str(document.get("codec", "none"))).decode(
            self.context.file_store.get(document["params_artifact"])
        )
        layer_entries = schema.entries
        derived = base.copy()
        cursor = 0
        for model_index, changed_layers in document["diff"]:
            state = derived.state(int(model_index))
            for layer in changed_layers:
                name, shape = layer_entries[int(layer)]
                size = int(np.prod(shape)) if shape else 1
                nbytes = size * 4
                if cursor + nbytes > len(payload):
                    raise RecoveryError("delta artifact is shorter than the diff list")
                values = np.frombuffer(
                    payload, dtype=np.float32, count=size, offset=cursor
                )
                state[name] = values.reshape(shape)
                cursor += nbytes
        if cursor != len(payload):
            raise RecoveryError(
                f"delta artifact has {len(payload) - cursor} unused trailing bytes"
            )
        return derived
