"""A lossy float16 storage tier (ModelHub's design point, §2.2).

ModelHub's PAS optimizes "the storage footprint ... with a minimal loss
of accuracy" — an explicitly *lossy* design point none of the paper's
approaches occupy.  This approach fills that corner of the design space
for comparison: Baseline's set-oriented layout with parameters stored as
IEEE-754 half precision.

* storage: exactly half of Baseline's parameter payload,
* recovery: float16 values widened back to float32 — **not** bit-exact;
  the relative error is bounded by half-precision's ~1e-3 epsilon, and
  ablation A8 measures the end-to-end effect on model quality,
* derived saves are full snapshots, like Baseline.

Registered under the approach name ``"baseline-fp16"``.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.architectures.registry import get_architecture
from repro.core.approach import SETS_COLLECTION, SaveApproach
from repro.core.model_set import ModelSet
from repro.core.save_info import SetMetadata, UpdateInfo
from repro.errors import RecoveryError
from repro.nn.serialization import StateSchema

_ITEM_BYTES = 2  # float16
_FP16_MAX = float(np.finfo(np.float16).max)  # 65504


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


class QuantizedBaselineApproach(SaveApproach):
    """Set-oriented full snapshots at half precision (lossy)."""

    name = "baseline-fp16"

    # -- save --------------------------------------------------------------
    def _save(
        self,
        model_set: ModelSet,
        metadata: SetMetadata | None,
        base_set_id: str | None,
    ) -> str:
        metadata = metadata if metadata is not None else SetMetadata()
        set_id = self.context.next_set_id(self.name)
        if self.context.dedup:
            # Chunks are the half-precision layer tensors, keyed by the
            # SHA-256 of their fp16 bytes (fp32 and fp16 encodings of the
            # same layer never collide — different bytes, different key).
            from repro.core.baseline import write_chunked_set

            extra = {"base_set": base_set_id} if base_set_id is not None else None
            write_chunked_set(
                self.context,
                model_set.states,
                model_set.architecture,
                len(model_set),
                set_id,
                doc_type=self.name,
                metadata=metadata,
                extra_fields=extra,
                dtype="float16",
            )
            return set_id
        payload = b"".join(
            to_float16(arr).tobytes()
            for state in model_set.states
            for arr in state.values()
        )
        params_artifact = self.context.file_store.put(
            payload, artifact_id=f"{set_id}-params-fp16", category="parameters"
        )
        spec = get_architecture(model_set.architecture)
        document = {
            "type": self.name,
            "architecture": model_set.architecture,
            "architecture_code": spec.source_code,
            "num_models": len(model_set),
            "schema": model_set.schema.to_json(),
            "param_dtype": "float16",
            "params_artifact": params_artifact,
            "metadata": metadata.to_json(),
        }
        if base_set_id is not None:
            document["base_set"] = base_set_id
        self.context.document_store.insert(SETS_COLLECTION, document, doc_id=set_id)
        return set_id

    def save_initial(
        self, model_set: ModelSet, metadata: SetMetadata | None = None
    ) -> str:
        return self._save(model_set, metadata, base_set_id=None)

    def save_derived(
        self,
        model_set: ModelSet,
        base_set_id: str,
        update_info: UpdateInfo | None = None,
        metadata: SetMetadata | None = None,
    ) -> str:
        return self._save(model_set, metadata, base_set_id=base_set_id)

    # -- recover -------------------------------------------------------------
    def _decode_model(
        self, payload: bytes, schema: StateSchema, model_index: int
    ) -> "OrderedDict[str, np.ndarray]":
        offset = model_index * schema.num_parameters * _ITEM_BYTES
        state: "OrderedDict[str, np.ndarray]" = OrderedDict()
        for name, shape in schema.entries:
            size = int(np.prod(shape)) if shape else 1
            values = np.frombuffer(
                payload, dtype=np.float16, count=size, offset=offset
            )
            state[name] = values.astype(np.float32).reshape(shape)
            offset += size * _ITEM_BYTES
        return state

    def recover(self, set_id: str) -> ModelSet:
        document = self.context.set_document(set_id)
        self._require_type(document, self.name, set_id)
        if document.get("storage") == "chunked":
            from repro.core.baseline import read_chunked_set

            return read_chunked_set(self.context, document, set_id)
        schema = StateSchema.from_json(document["schema"])
        num_models = int(document["num_models"])
        payload = self.context.file_store.get(document["params_artifact"])
        expected = num_models * schema.num_parameters * _ITEM_BYTES
        if len(payload) != expected:
            raise RecoveryError(
                f"set {set_id!r}: fp16 artifact has {len(payload)} bytes, "
                f"expected {expected}"
            )
        states = [
            self._decode_model(payload, schema, index)
            for index in range(num_models)
        ]
        return ModelSet(str(document["architecture"]), states)

    def recover_model(self, set_id: str, model_index: int):
        document = self.context.set_document(set_id)
        self._require_type(document, self.name, set_id)
        if document.get("storage") == "chunked":
            from repro.core.baseline import read_chunked_model

            return read_chunked_model(
                self.context, document, set_id, model_index
            )
        num_models = int(document["num_models"])
        if not 0 <= model_index < num_models:
            raise IndexError(
                f"model index {model_index} out of range for set {set_id!r}"
            )
        schema = StateSchema.from_json(document["schema"])
        model_bytes = schema.num_parameters * _ITEM_BYTES
        payload = self.context.file_store.get_range(
            document["params_artifact"],
            offset=model_index * model_bytes,
            length=model_bytes,
        )
        return self._decode_model(payload, schema, 0)
