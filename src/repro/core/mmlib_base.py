"""MMlib-base: the single-model baseline the paper compares against (§2.2).

MMlib's baseline approach saves *every model individually* as a full
snapshot.  Per model it persists the model architecture, the layer names,
the model code, and the environment information — data that is identical
across all models of a set and therefore saved redundantly (O1), at
roughly 8 KB per model in the paper's measurement — and performs one
document write plus file writes per model (O3).

This re-implementation reproduces those artifacts one-to-one:

* a self-describing parameter blob (layer names embedded) per model,
* a model-code artifact per model,
* a metadata document per model carrying layer names and a detailed
  environment record (package list included, as MMlib's save service
  collects), and
* a minimal set-index document, since MMlib itself has no set concept
  and the caller must track the individual model ids.
"""

from __future__ import annotations

import json
import platform
import sys
from functools import lru_cache

from repro.architectures.registry import get_architecture
from repro.core.approach import SETS_COLLECTION, SaveApproach
from repro.core.model_set import ModelSet
from repro.core.save_info import SetMetadata, UpdateInfo
from repro.errors import RecoveryError
from repro.nn.serialization import deserialize_state_dict, serialize_state_dict

#: Collection holding MMlib-base's one-document-per-model records.
MODELS_COLLECTION = "mmlib_models"


@lru_cache(maxsize=1)
def _detailed_environment() -> dict:
    """The verbose per-model environment record MMlib's save service collects.

    Includes the installed-package inventory, which dominates the record's
    size — this is the bulk of the ~8 KB/model overhead the paper measures
    for MMlib-base.
    """
    try:
        from importlib.metadata import distributions

        packages = sorted(
            f"{dist.metadata['Name']}=={dist.version}"
            for dist in distributions()
            if dist.metadata["Name"]
        )
    except Exception:  # pragma: no cover - environment-introspection fallback
        packages = []
    return {
        "python_version": sys.version,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "processor": platform.processor() or "unknown",
        "packages": packages,
    }


class MMlibBaseApproach(SaveApproach):
    """Per-model full-snapshot saving (the paper's MMlib-base reference)."""

    name = "mmlib-base"

    def _save_one_model(
        self, model_set: ModelSet, index: int, set_id: str, metadata: SetMetadata
    ) -> str:
        model_id = f"{set_id}-model-{index:06d}"
        state = model_set.state(index)
        spec = get_architecture(model_set.architecture)
        # Parameters: self-describing blob, layer names embedded.
        params_artifact = self.context.file_store.put(
            serialize_state_dict(state),
            artifact_id=f"{model_id}-params",
            category="parameters",
        )
        # Model code: one copy per model.
        code_artifact = self.context.file_store.put(
            spec.source_code.encode("utf-8"),
            artifact_id=f"{model_id}-code",
            category="model-code",
        )
        # Metadata document: architecture, layer names, environment — all
        # per model, hence redundant across the set (O1).
        self.context.document_store.insert(
            MODELS_COLLECTION,
            {
                "model_id": model_id,
                "set_id": set_id,
                "index": index,
                "architecture": model_set.architecture,
                "layer_names": model_set.schema.layer_names(),
                # MMlib records the environment per artifact: once with the
                # model snapshot and once with the training information.
                "environment": _detailed_environment(),
                "train_environment": _detailed_environment(),
                "metadata": metadata.to_json(),
                "params_artifact": params_artifact,
                "code_artifact": code_artifact,
            },
            doc_id=model_id,
        )
        return model_id

    def _save_all(
        self,
        model_set: ModelSet,
        metadata: SetMetadata | None,
        base_set_id: str | None = None,
    ) -> str:
        metadata = metadata if metadata is not None else SetMetadata()
        set_id = self.context.next_set_id(self.name)
        model_ids = [
            self._save_one_model(model_set, index, set_id, metadata)
            for index in range(len(model_set))
        ]
        document = {
            "type": self.name,
            "architecture": model_set.architecture,
            "num_models": len(model_set),
            "model_ids": model_ids,
        }
        if base_set_id is not None:
            # Lineage bookkeeping only: MMlib itself ignores the relation,
            # but recording it lets analytics and migration use it.
            document["base_set"] = base_set_id
        self.context.document_store.insert(SETS_COLLECTION, document, doc_id=set_id)
        return set_id

    def save_initial(
        self, model_set: ModelSet, metadata: SetMetadata | None = None
    ) -> str:
        return self._save_all(model_set, metadata)

    def save_derived(
        self,
        model_set: ModelSet,
        base_set_id: str,
        update_info: UpdateInfo | None = None,
        metadata: SetMetadata | None = None,
        *,
        touched: "frozenset[int] | None" = None,
    ) -> str:
        # MMlib-base has no notion of related models: a derived set is
        # saved exactly like an initial one (its storage consumption is
        # constant across use cases, Figure 3).
        return self._save_all(model_set, metadata, base_set_id=base_set_id)

    def recover(self, set_id: str) -> ModelSet:
        document = self.context.set_document(set_id)
        self._require_type(document, self.name, set_id)
        states = []
        architecture = str(document["architecture"])
        for model_id in document["model_ids"]:
            model_doc = self.context.document_store.get(MODELS_COLLECTION, model_id)
            payload = self.context.file_store.get(model_doc["params_artifact"])
            states.append(deserialize_state_dict(payload))
        if len(states) != int(document["num_models"]):
            raise RecoveryError(
                f"set {set_id!r}: expected {document['num_models']} models, "
                f"recovered {len(states)}"
            )
        return ModelSet(architecture, states)

    def recover_model(self, set_id: str, model_index: int):
        """Recover one model: one set-index read, one doc, one artifact."""
        document = self.context.set_document(set_id)
        self._require_type(document, self.name, set_id)
        model_ids = document["model_ids"]
        if not 0 <= model_index < len(model_ids):
            raise IndexError(
                f"model index {model_index} out of range for set {set_id!r}"
            )
        model_doc = self.context.document_store.get(
            MODELS_COLLECTION, model_ids[model_index]
        )
        payload = self.context.file_store.get(model_doc["params_artifact"])
        return deserialize_state_dict(payload)

    @staticmethod
    def per_model_overhead_bytes(model_set: ModelSet) -> int:
        """Measured metadata overhead of one model save (for reports).

        Everything except the raw float32 parameter payload: document
        bytes, code artifact, and the self-describing blob's framing.
        """
        spec = get_architecture(model_set.architecture)
        state = model_set.state(0)
        blob_overhead = len(serialize_state_dict(state)) - model_set.schema.num_bytes
        doc = {
            "model_id": "x" * 24,
            "set_id": "x" * 18,
            "index": 0,
            "architecture": model_set.architecture,
            "layer_names": model_set.schema.layer_names(),
            "environment": _detailed_environment(),
            "train_environment": _detailed_environment(),
            "metadata": SetMetadata().to_json(),
            "params_artifact": "x" * 31,
            "code_artifact": "x" * 29,
        }
        doc_bytes = len(json.dumps(doc, separators=(",", ":")).encode("utf-8"))
        return blob_overhead + len(spec.source_code.encode("utf-8")) + doc_bytes
