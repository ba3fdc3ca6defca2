"""The Provenance approach (§3.4).

For derived sets, Provenance saves no parameters at all.  One document
records, **once per set**, the model metadata, the training-pipeline
variants, and the environment — and, **per updated model**, one reference
to the training data.  This is sufficient because (assumption 1) the
update training procedure differs only by the used data, and
(assumption 2) the training data is saved regardless of model management
(here: resolvable through the :class:`~repro.datasets.registry.DatasetRegistry`).

Recovery recovers the base set (recursively, like Update) and then
*re-trains* every updated model by deterministically replaying its
pipeline on the referenced dataset — the source of both the 99%+ storage
reduction and the compute-heavy staircase time-to-recover (Figure 5,
§4.4).  A recovered row is read-only (:mod:`repro.core.model_set`), so
each replay trains a module over a copy of the model's row and stores
the result as a new read-only row.
"""

from __future__ import annotations

import numpy as np

from repro.architectures.registry import get_architecture
from repro.core.approach import SETS_COLLECTION, SaveApproach, SaveContext
from repro.core.baseline import read_full_set, read_single_model, write_set
from repro.core.model_set import ModelSet, read_only
from repro.core.recovery import chain_documents
from repro.core.save_info import SetMetadata, UpdateInfo
from repro.errors import InvalidUpdatePlanError, ProvenanceReplayError
from repro.nn.serialization import ModelState, state_row
from repro.training.environment import capture_environment
from repro.training.pipeline import TrainingPipeline


class ProvenanceApproach(SaveApproach):
    """Save training provenance instead of parameters; recover by replay."""

    name = "provenance"

    def __init__(self, context: SaveContext, strict_environment: bool = False) -> None:
        super().__init__(context)
        self.strict_environment = strict_environment

    # -- save --------------------------------------------------------------
    def save_initial(
        self, model_set: ModelSet, metadata: SetMetadata | None = None
    ) -> str:
        # "For the initial model set, we save complete model
        # representations using Baseline's logic." (§3.4)
        # Always artifact-stored: replay starts from ``read_full_set``.
        return write_set(
            self,
            model_set.states,
            model_set.architecture,
            len(model_set),
            metadata,
            {"kind": "full", "chain_depth": 0},
            chunked=False,
        )

    def save_derived(
        self,
        model_set: ModelSet,
        base_set_id: str,
        update_info: UpdateInfo | None = None,
        metadata: SetMetadata | None = None,
    ) -> str:
        if update_info is None:
            raise InvalidUpdatePlanError(
                "the Provenance approach requires an UpdateInfo describing "
                "how the derived set was trained"
            )
        base_doc = self.context.set_document(base_set_id)
        self._require_type(base_doc, self.name, base_set_id)
        num_models = int(base_doc["num_models"])
        out_of_range = [
            u.model_index
            for u in update_info.updates
            if not 0 <= u.model_index < num_models
        ]
        if out_of_range:
            raise InvalidUpdatePlanError(
                f"update indices out of range for a {num_models}-model set: "
                f"{out_of_range}"
            )
        metadata = metadata if metadata is not None else SetMetadata()
        set_id = self.context.next_set_id(self.name)
        info_json = update_info.to_json()
        self.context.document_store.insert(
            SETS_COLLECTION,
            {
                "type": self.name,
                "kind": "derived",
                "base_set": base_set_id,
                "chain_depth": int(base_doc.get("chain_depth", 0)) + 1,
                "architecture": str(base_doc["architecture"]),
                "num_models": num_models,
                # Saved once per set (O2): pipeline variants + environment.
                "pipelines": info_json["pipelines"],
                "environment": capture_environment().to_json(),
                # One dataset reference per updated model.
                "updates": info_json["updates"],
                "metadata": metadata.to_json(),
            },
            doc_id=set_id,
            category="provenance",
        )
        return set_id

    # -- recover -------------------------------------------------------------
    def recover(self, set_id: str) -> ModelSet:
        base_doc, base_id, chain = chain_documents(self, set_id)
        model_set = read_full_set(self.context, base_doc, base_id)
        for document in reversed(chain):
            model_set = self._replay(model_set, document)
        return model_set

    def recover_model(self, set_id: str, model_index: int):
        """Recover one model by replaying only *its* update history.

        Walks the chain back to the full snapshot, range-reads the single
        base model, then re-trains it once per cycle in which it was
        updated — skipping every other model's training entirely.
        """
        base_doc, base_id, chain = chain_documents(self, set_id)
        state = read_single_model(self.context, base_doc, base_id, model_index)
        architecture = str(base_doc["architecture"])
        for document in reversed(chain):
            info = UpdateInfo.from_json(
                {"pipelines": document["pipelines"], "updates": document["updates"]}
            )
            for update in info.updates:
                if update.model_index == model_index:
                    row = self._retrained(architecture, state, info, update)
                    state = ModelState(state.schema, row)
        return state

    def _replay(self, base: ModelSet, document: dict) -> ModelSet:
        if self.strict_environment:
            from repro.training.environment import EnvironmentInfo

            saved = EnvironmentInfo.from_json(document["environment"])
            current = capture_environment()
            if not saved.is_compatible_with(current):
                raise ProvenanceReplayError(
                    f"environment mismatch: set was trained with numpy "
                    f"{saved.numpy_version} / python {saved.python_version}, "
                    f"replay would use numpy {current.numpy_version} / "
                    f"python {current.python_version}"
                )
        info = UpdateInfo.from_json(
            {"pipelines": document["pipelines"], "updates": document["updates"]}
        )
        # A model no update names shares the base's read-only row.
        rows = list(base.rows())
        for update in info.updates:
            index = update.model_index
            rows[index] = self._retrained(
                base.architecture, ModelState(base.schema, rows[index]), info, update
            )
        return ModelSet.from_rows(base.architecture, base.schema, rows)

    def _retrained(
        self, architecture: str, state: ModelState, info: UpdateInfo, update
    ) -> np.ndarray:
        """A new read-only row: ``state`` re-trained by ``update``'s
        pipeline on its dataset (the module trains a copy of the row)."""
        model = get_architecture(architecture).build(rng=np.random.default_rng(0))
        model.load_state_dict(state.copy())
        dataset = self.context.dataset_registry.resolve(update.dataset_ref)
        TrainingPipeline(info.pipelines[update.pipeline_key]).train(model, dataset)
        return read_only(state_row(model.state_dict()))
