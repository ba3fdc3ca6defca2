"""Archive trees and StorageStats after every keep-last path, for parent-vs-change runs.

Not a test: a script run once per checkout,

    PYTHONPATH=<checkout>/src python tests/core/retention_trees.py out.json

whose two outputs are then diffed.  For single-chain archives (U1 plus
three trained update cycles of six FFNN-48 models, on ``ARCHIVE_PROFILE``)
of ``update``, ``update`` with ``dedup``, ``pas-delta`` and
``provenance``, plain and as a 2-shard fleet, at ``workers`` 1 and 4, it
runs every "keep the newest 2" path on a fresh copy — in process
(``RetentionManager.keep_last`` on a plain archive, and a
``MaintenanceScheduler.for_manager`` pass on both) and through the CLI (``gc
--keep-last 2`` and ``maintain --keep-last 2 --no-scrub``) — and records
the SHA-256 of every file afterwards, the CLI's output, and the
``StorageStats`` of every store the path opened.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import sys
import tempfile
from dataclasses import fields
from importlib import import_module
from pathlib import Path

from repro import ArchiveConfig, MultiModelManager
from repro.battery.datagen import CellDataConfig
from repro.config import MaintenanceConfig
from repro.core.retention import RetentionManager
from repro.fleet import FleetManager
from repro.maintenance import MaintenanceScheduler
from repro.storage.hardware import ARCHIVE_PROFILE
from repro.training.pipeline import PipelineConfig
from repro.workloads.scenario import MultiModelScenario, ScenarioConfig

#: The modules, not the ``repro.cli.main`` function the package exports.
cli_main = import_module("repro.cli.main")
open_view = cli_main.open_view
KEEP = 2
CONFIGS = (("update", False), ("update", True), ("pas-delta", False), ("provenance", False))


def file_digests(root: Path) -> "dict[str, str]":
    return {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def stats_of(contexts) -> list:
    return [
        {
            field.name: getattr(stats, field.name)
            for field in fields(stats)
            if field.compare
        }
        for context in contexts
        for stats in (context.file_store.stats, context.document_store.stats)
    ]


def chain_cases():
    config = ScenarioConfig(
        num_models=6,
        num_update_cycles=3,
        full_update_fraction=1 / 6,
        partial_update_fraction=1 / 6,
        seed=0,
        train_updates=True,
        data=CellDataConfig(seed=5, samples_per_cell=96, cycle_duration_s=96),
        pipeline=PipelineConfig(
            loss="mse", optimizer="sgd", learning_rate=0.01, momentum=0.9,
            epochs=1, batch_size=32,
        ),
    )
    return list(MultiModelScenario(config).use_cases())


def opened(root: Path, approach: str, config: ArchiveConfig):
    if config.shards:
        return FleetManager.open(root, approach, config)
    return MultiModelManager.open(str(root), approach, config)


def contexts_of(manager) -> list:
    return [shard.context for shard in manager.shards]


def run_cli(argv: "list[str]") -> dict:
    """Run one CLI call in process, keeping the shard contexts its view opened."""
    views: list = []

    def capture(*args, **kwargs):
        views.append(open_view(*args, **kwargs))
        return views[-1]

    cli_main.open_view = capture
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli_main.main(argv)
    finally:
        cli_main.open_view = open_view
    captured = [context for view in views for context in view.contexts]
    return {"exit": code, "stdout": out.getvalue(), "stats": stats_of(captured)}


def run_path(path: str, root: Path, approach: str, config: ArchiveConfig) -> dict:
    if path in ("gc", "maintain"):
        argv = [str(root), "--workers", str(config.workers), "--profile", "archive"]
        argv += ["--dedup"] if config.dedup else []
        argv += [path, "--keep-last", str(KEEP)]
        argv += ["--no-scrub"] if path == "maintain" else []
        return run_cli(argv)
    manager = opened(root, approach, config)
    if path == "keep_last":
        RetentionManager(manager.context).keep_last(KEEP)
    else:
        upkeep = MaintenanceConfig(enabled=True, gc_keep_last=KEEP, scrub=False)
        MaintenanceScheduler.for_manager(manager, config=upkeep).run_pass()
    return {"stats": stats_of(contexts_of(manager))}


def main(out_path: str) -> None:
    cases = chain_cases()
    report = {}
    for approach, dedup in CONFIGS:
        for shards in (None, 2):
            for workers in (1, 4):
                config = ArchiveConfig(
                    dedup=dedup, workers=workers, profile=ARCHIVE_PROFILE, shards=shards
                )
                paths = ["pass", "gc", "maintain"]
                paths = paths if shards else ["keep_last"] + paths
                with tempfile.TemporaryDirectory() as directory:
                    template = Path(directory) / "template"
                    manager = opened(template, approach, config)
                    set_ids: list[str] = []
                    for case in cases:
                        base = set_ids[case.base_index] if case.base_index is not None else None
                        set_ids.append(
                            manager.save_set(
                                case.model_set, base_set_id=base, update_info=case.update_info
                            )
                        )
                    for path in paths:
                        root = Path(directory) / path
                        shutil.copytree(template, root)
                        entry = run_path(path, root, approach, config)
                        entry["tree"] = file_digests(root)
                        label = f"{approach}/dedup={dedup}/shards={shards}/workers={workers}"
                        report[f"{label}/{path}"] = entry
    Path(out_path).write_text(json.dumps(report, indent=1, sort_keys=True))


if __name__ == "__main__":
    main(sys.argv[1])
