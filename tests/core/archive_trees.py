"""Archive-tree fingerprint of every save path, for parent-vs-change runs.

Not a test: a script run once per checkout,

    PYTHONPATH=<checkout>/src python tests/core/archive_trees.py out.json

whose two outputs are then diffed.  For each of 28 durable
configurations (7 approach configs x dedup x workers in {1, 4}, on
``ARCHIVE_PROFILE``) it saves a 12-model FFNN-48 set, three derived sets
each nudging one layer of one model, and one streamed set; recovers
every set whole and one model of each; runs ``keep_last(2)`` where the
approach can be compacted; and records the SHA-256 of every file of the
archive before and after the collection plus both stores' simulated
read / write seconds.  A change to the save path that claims "same
archives" must leave this output equal, entry by entry.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro import ArchiveConfig, MultiModelManager
from repro.core.model_set import ModelSet
from repro.core.retention import RetentionManager
from repro.storage.hardware import ARCHIVE_PROFILE

APPROACHES = (
    ("baseline", {}),
    ("baseline-fp16", {}),
    ("update", {}),
    ("update", {"snapshot_interval": 2}),
    ("pas-delta", {}),
    ("provenance", {}),
    ("mmlib-base", {}),
)
#: Provenance derives by re-training; its full-set path is the initial save.
DERIVES = {"baseline", "baseline-fp16", "update", "pas-delta", "mmlib-base"}
COMPACTS = {"update", "pas-delta"}


def file_digests(root: Path) -> "dict[str, str]":
    return {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def simulated_seconds(manager: MultiModelManager) -> "dict[str, float]":
    files, documents = manager.context.file_store.stats, manager.context.document_store.stats
    return {
        "file_write_s": files.simulated_write_s,
        "file_read_s": files.simulated_read_s,
        "doc_write_s": documents.simulated_write_s,
        "doc_read_s": documents.simulated_read_s,
    }


def run_configuration(root: Path, approach: str, kwargs: dict, dedup: bool, workers: int):
    config = ArchiveConfig(dedup=dedup, workers=workers, profile=ARCHIVE_PROFILE)
    manager = MultiModelManager.open(str(root), approach, config, **kwargs)
    models = ModelSet.build("FFNN-48", num_models=12, seed=3)
    set_ids = [manager.save_set(models)]
    if approach in DERIVES:
        layers = models.schema.layer_names()
        for cycle in range(3):
            models = models.copy()
            name = layers[cycle % len(layers)]
            models.state(cycle + 1)[name] = (
                models.state(cycle + 1)[name] + np.float32(0.5)
            ).astype(np.float32)
            set_ids.append(manager.save_set(models, base_set_id=set_ids[-1]))
    streamed = ModelSet.build("FFNN-48", num_models=12, seed=11)
    set_ids.append(
        manager.save_set_streaming("FFNN-48", iter(streamed.states), num_models=12)
    )
    for set_id in set_ids:
        manager.recover_set(set_id)
        manager.recover_model(set_id, 3)
    result = {
        "sets": set_ids,
        "before_gc": file_digests(root),
        "simulated_before_gc": simulated_seconds(manager),
    }
    if approach in COMPACTS:
        # The streamed set is an unrelated root; keep the chain's last two.
        RetentionManager(manager.context).keep_last(2)
        for set_id in manager.list_sets():
            manager.recover_set(set_id)
        result["after_gc"] = file_digests(root)
        result["simulated_after_gc"] = simulated_seconds(manager)
    return result


def main(out_path: str) -> None:
    report = {}
    for approach, kwargs in APPROACHES:
        for dedup in (False, True):
            for workers in (1, 4):
                label = f"{approach}{kwargs or ''}/dedup={dedup}/workers={workers}"
                with tempfile.TemporaryDirectory() as directory:
                    report[label] = run_configuration(
                        Path(directory), approach, kwargs, dedup, workers
                    )
    Path(out_path).write_text(json.dumps(report, indent=1, sort_keys=True))


if __name__ == "__main__":
    main(sys.argv[1])
