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
* recovery is Update's plan (:mod:`repro.core.recovery`): every delta
  is an XOR source over the selected models, decoded whole when
  compressed and XORed onto the snapshot's bytes.

Registered under the approach name ``"pas-delta"``.
"""

from __future__ import annotations

import numpy as np

from repro.core.approach import SETS_COLLECTION, SaveApproach, SaveContext
from repro.core.baseline import write_set
from repro.core.compression import get_codec
from repro.core.model_set import ModelSet
from repro.core.recovery import execute, resolve
from repro.core.save_info import SetMetadata, UpdateInfo
from repro.errors import InvalidUpdatePlanError


def _set_bits(model_set: ModelSet) -> np.ndarray:
    """All parameters of the set as one flat uint32 array, model order."""
    chunks = [
        np.asarray(arr, dtype=np.float32).reshape(-1).view(np.uint32)
        for state in model_set.states
        for arr in state.values()
    ]
    return np.concatenate(chunks)


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
        # Always artifact-stored: recovery XORs deltas over the snapshot.
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
        return execute(self.context, resolve(self, set_id))

    def recover_model(self, set_id: str, model_index: int):
        """Recover one model: a model-sized range of the snapshot, and that
        model's rows of every delta (decoded whole when compressed)."""
        return execute(self.context, resolve(self, set_id, model_index)).state(0)
