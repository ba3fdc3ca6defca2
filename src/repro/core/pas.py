"""A ModelHub/PAS-style delta-encoding approach (related work, §2.2).

The paper positions ModelHub's parameter archival storage (PAS) as the
closest related system: it stores *arithmetic* deltas between model
versions and compresses them, trading save-time compute for storage.
This module implements a faithful simplified variant as an additional
comparator, so the Update-vs-delta-encoding discussion in the paper's
future work (§4.5, citing [6]) can be measured rather than argued:

* derived sets store one blob holding, for **every** model, the XOR of
  the new and base parameters' IEEE-754 bit patterns, compressed with
  the byte-plane-shuffle codec.  XOR (rather than subtraction) makes
  recovery **bit-exact** by construction and turns unchanged parameters
  into all-zero words that compress to almost nothing;
* computing the delta requires materializing the base set first — the
  expensive save path the paper notes for ModelHub ("worse than
  quadratic run time" in their general algorithm; linear here, but still
  a full base recovery per save);
* recovery walks the chain like Update, decompressing and XOR-applying
  each delta.

Registered under the approach name ``"pas-delta"``.
"""

from __future__ import annotations

import numpy as np

from repro.core.approach import SETS_COLLECTION, SaveApproach, SaveContext
from repro.core.baseline import read_full_set, write_set
from repro.core.compression import get_codec
from repro.core.model_set import ModelSet
from repro.core.recovery import chain_documents
from repro.core.save_info import SetMetadata, UpdateInfo
from repro.errors import InvalidUpdatePlanError, RecoveryError
from repro.nn.serialization import StateSchema, bytes_to_parameters


def _set_bits(model_set: ModelSet) -> np.ndarray:
    """All parameters of the set as one flat uint32 array, model order."""
    chunks = [
        np.asarray(arr, dtype=np.float32).reshape(-1).view(np.uint32)
        for state in model_set.states
        for arr in state.values()
    ]
    return np.concatenate(chunks)


def _bits_to_set(
    bits: np.ndarray, architecture: str, schema: StateSchema, num_models: int
) -> ModelSet:
    raw = bits.astype(np.uint32, copy=False).tobytes()
    states = [
        bytes_to_parameters(raw, schema, offset=index * schema.num_bytes)
        for index in range(num_models)
    ]
    return ModelSet(architecture, states)


class PasDeltaApproach(SaveApproach):
    """Whole-set XOR-bit deltas with compression (PAS-style)."""

    name = "pas-delta"

    def __init__(
        self,
        context: SaveContext,
        codec: str = "shuffle-zlib",
        snapshot_interval: int | None = None,
    ) -> None:
        super().__init__(context)
        if snapshot_interval is not None and snapshot_interval <= 0:
            raise ValueError("snapshot_interval must be positive or None")
        self.codec = get_codec(codec)
        self.snapshot_interval = snapshot_interval

    # -- save --------------------------------------------------------------
    def _save_full(
        self,
        model_set: ModelSet,
        metadata: SetMetadata | None,
        base_set_id: str | None = None,
    ) -> str:
        # Always artifact-stored: recovery XORs deltas over ``read_full_set``.
        fields = {"kind": "full", "chain_depth": 0}
        if base_set_id is not None:
            fields["base_set"] = base_set_id
        return write_set(
            self,
            model_set.states,
            model_set.architecture,
            len(model_set),
            metadata,
            fields,
            chunked=False,
        )

    def save_initial(
        self, model_set: ModelSet, metadata: SetMetadata | None = None
    ) -> str:
        return self._save_full(model_set, metadata)

    def save_derived(
        self,
        model_set: ModelSet,
        base_set_id: str,
        update_info: UpdateInfo | None = None,
        metadata: SetMetadata | None = None,
        *,
        touched: "frozenset[int] | None" = None,
    ) -> str:
        base_doc = self.context.set_document(base_set_id)
        self._require_type(base_doc, self.name, base_set_id)
        if int(base_doc["num_models"]) != len(model_set):
            raise InvalidUpdatePlanError(
                f"derived set has {len(model_set)} models, base set "
                f"{base_set_id!r} has {base_doc['num_models']}"
            )
        chain_depth = int(base_doc.get("chain_depth", 0)) + 1
        if self.snapshot_interval is not None and chain_depth >= self.snapshot_interval:
            return self._save_full(model_set, metadata, base_set_id)

        # The PAS trade-off: the base set must be materialized to delta
        # against it (no hash shortcut), making TTS recovery-shaped.
        base_set = self.recover(base_set_id)
        if base_set.schema != model_set.schema:
            raise InvalidUpdatePlanError(
                "derived set schema does not match the base set's schema"
            )
        delta_bits = _set_bits(model_set) ^ _set_bits(base_set)
        payload = self.codec.encode(delta_bits.tobytes())

        metadata = metadata if metadata is not None else SetMetadata()
        set_id = self.context.next_set_id(self.name)
        params_artifact = self.context.file_store.put(
            payload, artifact_id=f"{set_id}-xor-delta", category="parameters"
        )
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
                "codec": self.codec.name,
                "params_artifact": params_artifact,
                "metadata": metadata.to_json(),
            },
            doc_id=set_id,
        )
        return set_id

    # -- recover -------------------------------------------------------------
    def recover(self, set_id: str) -> ModelSet:
        base_doc, base_id, chain = chain_documents(self, set_id)
        model_set = read_full_set(self.context, base_doc, base_id)
        if not chain:
            return model_set
        bits = _set_bits(model_set)
        schema = model_set.schema
        architecture = model_set.architecture
        num_models = len(model_set)
        for document in reversed(chain):
            payload = get_codec(str(document["codec"])).decode(
                self.context.file_store.get(document["params_artifact"])
            )
            delta = np.frombuffer(payload, dtype=np.uint32)
            if delta.shape != bits.shape:
                raise RecoveryError(
                    f"delta of set {set_id!r} has {delta.size} words, "
                    f"expected {bits.size}"
                )
            bits = bits ^ delta
        return _bits_to_set(bits, architecture, schema, num_models)

    def recover_model(self, set_id: str, model_index: int):
        """Recover one model without materializing the whole set.

        The base snapshot contributes a single range read (the model's
        slice of the full artifact); each chain delta is decoded — the
        compressing codec rules out range addressing — but only the
        model's word slice is XOR-applied, so memory stays per-model and
        the base read shrinks from the full set to one model.
        """
        from repro.core.baseline import read_single_model

        base_doc, base_id, chain = chain_documents(self, set_id)
        num_models = int(base_doc["num_models"])
        if not 0 <= model_index < num_models:
            raise IndexError(
                f"model index {model_index} out of range for set {set_id!r} "
                f"({num_models} models)"
            )
        state = read_single_model(self.context, base_doc, base_id, model_index)
        if not chain:
            return state
        schema = StateSchema.from_json(chain[0]["schema"])
        words_per_model = schema.num_bytes // 4
        bits = np.concatenate(
            [
                np.asarray(arr, dtype=np.float32).reshape(-1).view(np.uint32)
                for arr in state.values()
            ]
        )
        for document in reversed(chain):
            payload = get_codec(str(document["codec"])).decode(
                self.context.file_store.get(document["params_artifact"])
            )
            delta = np.frombuffer(payload, dtype=np.uint32)
            if delta.size != num_models * words_per_model:
                raise RecoveryError(
                    f"delta of set {set_id!r} has {delta.size} words, "
                    f"expected {num_models * words_per_model}"
                )
            bits = bits ^ delta[
                model_index * words_per_model : (model_index + 1) * words_per_model
            ]
        return bytes_to_parameters(bits.astype(np.uint32, copy=False).tobytes(), schema)
