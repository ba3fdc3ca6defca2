"""One topology rule and one archive view for plain archives and fleets.

``shard_roots`` decides "plain or fleet" once for ``open_context``,
``FleetManager.open`` and the CLI; the CLI's archive view then runs each
verb once, whatever the shape.  The regressions below are drifts the two
old code paths had grown apart by.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main as archive_main
from repro.config import ArchiveConfig
from repro.core.manager import MultiModelManager
from repro.core.save_info import SetMetadata
from repro.errors import ConfigError, StorageError
from repro.fleet import FleetManager
from repro.registry import REGISTRY_DIR, open_fleet_registry
from repro.storage.persistent import shard_roots


def nudged(models, step: int):
    derived = models.copy()
    name = derived.schema.layer_names()[step % len(derived.schema.layer_names())]
    state = derived.state(step % len(derived))
    state[name] = (state[name] + np.float32(0.5)).astype(np.float32)
    return derived


def shard_dirs(root: Path) -> "list[str]":
    return sorted(path.name for path in root.glob("shard-*"))


class TestShardRoots:
    def test_plain_and_fresh_directories_are_one_shard_at_the_root(self, tmp_path, tiny_set):
        assert shard_roots(tmp_path / "fresh") == ([tmp_path / "fresh"], [])
        MultiModelManager.open(str(tmp_path / "plain"), "update").save_set(tiny_set)
        assert shard_roots(tmp_path / "plain") == ([tmp_path / "plain"], [])

    def test_fleet_roots_report_missing_members(self, tmp_path):
        FleetManager.open(tmp_path / "f", "update", ArchiveConfig(shards=3))
        shutil.rmtree(tmp_path / "f" / "shard-1")
        roots, missing = shard_roots(tmp_path / "f")
        assert roots == [tmp_path / "f" / f"shard-{index}" for index in range(3)]
        assert missing == [1]
        assert not (tmp_path / "f" / "shard-1").exists()
        # A fresh directory asked for a fleet: every member is missing,
        # and nothing is created.
        assert shard_roots(tmp_path / "new", 2)[1] == [0, 1]
        assert not (tmp_path / "new").exists()

    def test_the_two_refusals(self, tmp_path, tiny_set):
        FleetManager.open(tmp_path / "f", "update", ArchiveConfig(shards=2))
        with pytest.raises(ConfigError, match="resharding"):
            shard_roots(tmp_path / "f", 3)
        MultiModelManager.open(str(tmp_path / "plain"), "update").save_set(tiny_set)
        with pytest.raises(StorageError, match="plain single archive"):
            shard_roots(tmp_path / "plain", 1)


class TestReplicatedPlainArchive:
    """A ``replicas=3`` plain archive is ``replica-<i>/`` only: it is
    still plain, and the fleet entry points must refuse it rather than
    grow empty shards beside it."""

    @pytest.fixture
    def replicated(self, tmp_path, tiny_set):
        root = tmp_path / "replicated"
        manager = MultiModelManager.open(str(root), "update", ArchiveConfig(replicas=3))
        ids = [manager.save_set(tiny_set)]
        ids.append(manager.save_set(nudged(tiny_set, 0), base_set_id=ids[0]))
        return root, ids

    def test_cli_with_shards_refuses_with_exit_2(self, replicated, capsys):
        root, _ids = replicated
        assert archive_main([str(root), "--shards", "2", "info"]) == 2
        assert "plain single archive" in capsys.readouterr().err
        assert shard_dirs(root) == []

    def test_fleet_open_refuses_and_creates_nothing(self, replicated):
        root, ids = replicated
        with pytest.raises(StorageError, match="plain single archive"):
            FleetManager.open(root, "update", ArchiveConfig(shards=2))
        # Without a shard count the directory's own topology opens: plain.
        assert FleetManager.open(root, "update").list_sets() == ids
        assert shard_dirs(root) == []
        assert MultiModelManager.open(str(root), "update").list_sets() == ids


class TestFleetCatalogThroughTheView:
    @pytest.fixture
    def fleet(self, tmp_path, tiny_set):
        root = tmp_path / "fleet"
        fleet = FleetManager.open(root, "update", ArchiveConfig(shards=2))
        ids = [fleet.save_set(tiny_set, metadata=SetMetadata(extra={"family": "pack"}))]
        for step in range(2):
            ids.append(fleet.save_set(nudged(tiny_set, step), base_set_id=ids[-1]))
        return root, ids

    def test_compact_reaches_the_root_catalog(self, fleet):
        root, ids = fleet
        assert open_fleet_registry(root / REGISTRY_DIR).describe(ids[-1]).kind == "delta"
        assert archive_main([str(root), "compact", ids[-1]]) == 0
        assert open_fleet_registry(root / REGISTRY_DIR).describe(ids[-1]).kind == "full"

    def test_info_prints_the_fleet_families(self, fleet, capsys):
        root, _ids = fleet
        assert archive_main([str(root), "info"]) == 0
        out = capsys.readouterr().out
        assert "fleet families: pack" in out
        # Each shard names the families it holds versions of.
        assert out.count("families: pack") == 2

    def test_info_without_a_catalog_creates_none(self, tmp_path, tiny_set):
        root = tmp_path / "bare"
        fleet = FleetManager.open(root, "update", ArchiveConfig(shards=2, registry=False))
        fleet.save_set(tiny_set)
        assert archive_main([str(root), "info"]) == 0
        assert archive_main([str(root), "gc", "--keep-last", "1"]) == 0
        assert not (root / REGISTRY_DIR).exists()


def test_plain_maintain_labels_its_target_archive(tmp_path, tiny_set, capsys):
    path = str(tmp_path / "plain")
    manager = MultiModelManager.open(path, "update")
    manager.save_set(nudged(tiny_set, 1), base_set_id=manager.save_set(tiny_set))
    assert archive_main([path, "maintain", "--keep-last", "1", "--no-scrub"]) == 1
    out = capsys.readouterr().out
    assert "pass 0 archive: deleted 1 set(s)" in out
    assert "shard-0" not in out
