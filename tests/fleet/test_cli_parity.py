"""CLI parity: a plain archive and a one-shard fleet answer every verb alike.

The same four Update saves are made once through
``MultiModelManager.open`` and once through ``FleetManager.open`` with
``shards=1``; every verb then runs on both.  Exit codes must be equal,
and so must stdout once the fleet's own framing is set aside: the
``== shard-<i> ==`` banners, the ``fleet …`` summary lines, the
`` shard=0`` placement in ``query versions``, and the maintenance target
label (``archive`` on a plain archive, ``shard-0`` on the fleet).  The
per-archive ``stored bytes`` line is set aside too: a plain archive keeps
its catalog documents in place, so they count toward its bytes, while a
fleet keeps them in ``registry/`` outside every shard.
"""

from __future__ import annotations

import shutil

import numpy as np
import pytest

from repro.cli import main as archive_main
from repro.config import ArchiveConfig, FleetHealthConfig, ObservabilityConfig
from repro.core.manager import MultiModelManager
from repro.core.model_set import ModelSet
from repro.core.save_info import SetMetadata
from repro.errors import ReplicaUnavailableError
from repro.fleet import FleetManager
from repro.observability import trace_document
from repro.observability.metrics import global_registry
from repro.storage.faults import FaultInjector, inject_faults

OPENERS = {
    "plain": lambda root: MultiModelManager.open(str(root), "update"),
    "fleet": lambda root: FleetManager.open(root, "update", ArchiveConfig(shards=1)),
}


def four_saves(manager) -> "list[str]":
    """U1 plus three derived Update saves, one layer nudged each time."""
    models = ModelSet.build("FFNN-48", num_models=3, seed=0)
    ids = [manager.save_set(models, metadata=SetMetadata(extra={"family": "pack"}))]
    for step in range(3):
        models = models.copy()
        name = models.schema.layer_names()[step]
        state = models.state(step)
        state[name] = (state[name] + np.float32(0.5)).astype(np.float32)
        ids.append(manager.save_set(models, base_set_id=ids[-1]))
    return ids


@pytest.fixture(scope="module")
def templates(tmp_path_factory):
    root = tmp_path_factory.mktemp("parity")
    ids = {name: four_saves(opener(root / name)) for name, opener in OPENERS.items()}
    assert ids["plain"] == ids["fleet"]
    return root, ids["plain"]


@pytest.fixture
def archives(templates, tmp_path):
    root, ids = templates
    paths = {}
    for name in OPENERS:
        paths[name] = tmp_path / name
        shutil.copytree(root / name, paths[name])
    return paths, ids


def normalized(stdout: str, replacements: "dict[str, str]") -> "list[str]":
    lines = []
    for line in stdout.splitlines():
        if line.startswith(("== shard-", "fleet", "stored bytes:")):
            continue
        line = line.replace(" shard=0", "").replace(" shard-0:", " archive:")
        for old, new in replacements.items():
            line = line.replace(old, new)
        lines.append(line)
    return lines


def run_both(archives, capsys, steps) -> None:
    """Run each step on both archives; exit codes and stdout must agree."""
    paths, _ids = archives
    for step in steps:
        results = {}
        for name, path in paths.items():
            out_dir = path.parent / f"{name}-out"
            argv = [str(path)] + [str(out_dir) if arg == "OUT" else arg for arg in step]
            code = archive_main(argv)
            results[name] = (code, normalized(capsys.readouterr().out, {str(out_dir): "OUT"}))
            shutil.rmtree(out_dir, ignore_errors=True)
        assert results["plain"] == results["fleet"], step


def read_only_steps(ids: "list[str]") -> "list[list[str]]":
    first, last = ids[0], ids[-1]
    return [
        ["info"],
        ["lineage"],
        ["verify", "--deep"],
        ["fsck", "--deep"],
        ["scrub"],
        ["stats"],
        ["history", last, "1"],
        ["export", last, "OUT"],
        ["warm", last],
        ["warm", "--all"],
        ["evict"],
        ["query", "families"],
        ["query", "versions", "pack"],
        ["query", "derived-from", first, "--transitive"],
        ["query", "diff", first, last],
        ["query", "resolve", "pack"],
        ["query", "tag", "pack", "prod", ids[1]],
        ["query", "resolve", "pack", "prod"],
        ["register", "--rebuild"],
        ["query", "versions", "pack"],
    ]


def test_inspection_and_catalog_verbs_agree(archives, capsys):
    run_both(archives, capsys, read_only_steps(archives[1]))


def test_retention_verbs_agree_and_reach_the_catalog(archives, capsys):
    ids = archives[1]
    versions = ["query", "versions", "pack"]
    run_both(
        archives,
        capsys,
        [
            ["compact", ids[2]],
            versions,
            ["gc", "--keep", "set-update-999999"],
            versions,
            ["maintain", "--keep-last", "2", "--no-scrub"],
            versions,
            ["gc", "--keep-last", "1"],
            versions,
        ],
    )


def span_names(node: dict) -> "set[str]":
    return {node["name"]}.union(*(span_names(child) for child in node.get("children", [])))


@pytest.mark.parametrize("engine", [MultiModelManager, FleetManager], ids=lambda cls: cls.__name__)
def test_plain_topology_contract(engine, templates, tmp_path):
    """A plain archive is plain under either public name: no health
    refusal, unprefixed metrics, no fleet trace envelope."""
    root, ids = templates
    shutil.copytree(root / "plain", tmp_path / "plain")
    health = FleetHealthConfig(down_after=2)
    config = ArchiveConfig(
        health=health, observability=ObservabilityConfig(tracing=True, metrics=True)
    )
    manager = engine.open(tmp_path / "plain", "update", config)
    assert [shard.label for shard in manager.shards] == ["archive"]

    names = set(global_registry().collect())
    assert any(name.startswith("file_store_") for name in names)
    assert any(name.startswith("document_store_") for name in names)
    assert not any(name.startswith("fleet_shard") for name in names)

    models = manager.recover_set(ids[-1])
    manager.recover_model(ids[-1], 1)
    manager.save_set(models, base_set_id=ids[-1])
    document = trace_document(manager.tracer.roots)
    seen = set().union(*(span_names(trace["root"]) for trace in document["traces"]))
    assert {"recover_set", "recover_model", "save_set"} <= seen
    assert not seen & {"fleet", "shard-0"}

    inject_faults(manager.context, FaultInjector(down_at=0, down_mode="before"))
    for _ in range(health.down_after + 2):
        with pytest.raises(ReplicaUnavailableError):
            manager.save_set(models, base_set_id=ids[-1])
