"""One retention rule: "keep the newest K" means the same thing everywhere.

``RetentionManager.keep_last``, the ``gc --keep-last`` and ``maintain
--keep-last`` verbs and a scheduler pass all retire one doomed set — the
ids older than the newest K across every shard — after compacting each
kept set whose base is doomed, so nothing doomed survives for chain
reasons.  The fleet catalog hears what a pass retired only after the
pass commits.
"""

from __future__ import annotations

import shutil

import numpy as np
import pytest

from repro.cli import main as archive_main
from repro.config import ArchiveConfig, MaintenanceConfig
from repro.core.manager import MultiModelManager
from repro.core.model_set import ModelSet
from repro.core.retention import RetentionManager, older_than_newest
from repro.errors import SimulatedCrashError
from repro.fleet import FleetManager
from repro.maintenance import MaintenanceScheduler

from tests.properties.test_fleet_properties import digest_dir

KEEP = 4


def nudged(models: ModelSet, step: int) -> ModelSet:
    """One layer of one model changed: a small Update delta."""
    derived = models.copy()
    name = derived.schema.layer_names()[step % len(derived.schema.layer_names())]
    state = derived.state(step % len(derived))
    state[name] = (state[name] + np.float32(0.25)).astype(np.float32)
    return derived


def save_three_chains(manager) -> "dict[str, ModelSet]":
    """Three Update chains of four sets, saved round-robin (ids interleave)."""
    heads = [ModelSet.build("FFNN-48", num_models=6, seed=seed) for seed in range(3)]
    tips: list = [None, None, None]
    saved: dict[str, ModelSet] = {}
    for step in range(4):
        for chain in range(3):
            if step:
                heads[chain] = nudged(heads[chain], step + chain)
            tips[chain] = manager.save_set(heads[chain], base_set_id=tips[chain])
            saved[tips[chain]] = heads[chain]
    return saved


@pytest.fixture
def tiny_models() -> ModelSet:
    return ModelSet.build("FFNN-48", num_models=3, seed=11)


@pytest.fixture(scope="module")
def templates(tmp_path_factory):
    """The three-chain archive, plain and as a 2-shard fleet, on disk."""
    root = tmp_path_factory.mktemp("retention-templates")
    plain = MultiModelManager.open(str(root / "plain"), "update")
    fleet = FleetManager.open(root / "fleet", "update", ArchiveConfig(shards=2))
    return {
        "plain": (root / "plain", save_three_chains(plain)),
        "fleet": (root / "fleet", save_three_chains(fleet)),
    }


def in_process(topology: str, path) -> None:
    if topology == "plain":
        manager = MultiModelManager.open(str(path), "update")
        RetentionManager(manager.context).keep_last(KEEP)
    else:
        fleet = FleetManager.open(path, "update")
        config = MaintenanceConfig(enabled=True, gc_keep_last=KEEP, scrub=False)
        MaintenanceScheduler.for_manager(fleet, config=config).run_pass()


RUNNERS = {
    "in-process": in_process,
    "gc": lambda _topology, path: archive_main(
        [str(path), "gc", "--keep-last", str(KEEP)]
    ),
    "maintain": lambda _topology, path: archive_main(
        [str(path), "maintain", "--keep-last", str(KEEP), "--no-scrub"]
    ),
}


def opened(topology: str, path):
    if topology == "plain":
        return MultiModelManager.open(str(path), "update")
    return FleetManager.open(path, "update")


@pytest.mark.parametrize("topology", ["plain", "fleet"])
def test_every_keep_last_path_reaches_the_same_archive(
    templates, tmp_path, topology, capsys
):
    template, saved = templates[topology]
    newest = sorted(saved)[-KEEP:]
    trees = {}
    for name, run in RUNNERS.items():
        path = tmp_path / name
        shutil.copytree(template, path)
        run(topology, path)
        manager = opened(topology, path)
        assert manager.list_sets() == newest, name
        for set_id in newest:
            assert manager.recover_set(set_id).equals(saved[set_id]), (name, set_id)
        if topology == "fleet":
            # The root catalog heard every deletion and compaction.
            records = [(r.set_id, r.kind) for r in manager.registry.records()]
            assert records == [(s, manager.set_info(s)["kind"]) for s in newest], name
        trees[name] = digest_dir(path)
    capsys.readouterr()
    assert len(set(trees.values())) == 1, trees


class TestRefusals:
    def test_fleet_gc_keep_unknown_id_deletes_nothing(self, templates, tmp_path, capsys):
        template, saved = templates["fleet"]
        path = tmp_path / "fleet"
        shutil.copytree(template, path)
        before = digest_dir(path)
        assert archive_main([str(path), "gc", "--keep", "set-update-00000"]) == 2
        assert "unknown sets" in capsys.readouterr().err
        assert digest_dir(path) == before
        assert FleetManager.open(path, "update").list_sets() == sorted(saved)

    @pytest.mark.parametrize("topology", ["plain", "fleet"])
    @pytest.mark.parametrize("verb", ["gc", "maintain"])
    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_keep_last_below_one_exits_2(
        self, templates, tmp_path, topology, verb, count, capsys
    ):
        template, _saved = templates[topology]
        path = tmp_path / topology
        shutil.copytree(template, path)
        before = digest_dir(path)
        with pytest.raises(SystemExit) as exit_info:
            archive_main([str(path), verb, f"--keep-last={count}"])
        assert exit_info.value.code == 2
        assert "--keep-last" in capsys.readouterr().err
        assert digest_dir(path) == before

    def test_cutoff_rejects_counts_below_one(self):
        with pytest.raises(ValueError):
            older_than_newest(0, [["set-a-000000"]])
        assert older_than_newest(2, [["s-3", "s-1"], ["s-2"], []]) == {"s-1"}
        assert older_than_newest(5, [["s-1"]]) == set()


class TestFleetCatalogHook:
    def test_compaction_reaches_the_fleet_catalog(self, tmp_path):
        fleet = FleetManager.open(tmp_path / "fleet", "update", ArchiveConfig(shards=2))
        saved = save_three_chains(fleet)
        config = MaintenanceConfig(enabled=True, gc_keep_last=KEEP, scrub=False)
        report = MaintenanceScheduler.for_manager(fleet, config=config).run_pass()
        assert sum(entry.sets_compacted for entry in report.shards) == 3
        kept = sorted(saved)[-KEEP:]
        assert [record.set_id for record in fleet.registry.records()] == kept
        kinds = [fleet.registry.describe(set_id).kind for set_id in kept]
        assert kinds == [fleet.set_info(set_id)["kind"] for set_id in kept]
        assert kinds.count("full") == 3

    def test_killed_pass_leaves_the_catalog_whole(self, tmp_path, tiny_models):
        root = tmp_path / "fleet"
        fleet = FleetManager.open(root, "update", ArchiveConfig(shards=2))
        ids = [fleet.save_set(tiny_models)]
        for step in range(3):
            ids.append(fleet.save_set(nudged(tiny_models, step), base_set_id=ids[-1]))
        victim = f"shard-{fleet.shard_of(ids[0])}"

        def hook(point, shard, pass_index):
            if point == "in-txn" and shard == victim:
                raise SimulatedCrashError("injected maintenance kill")

        config = MaintenanceConfig(enabled=True, gc_keep_last=1, scrub=False)
        scheduler = MaintenanceScheduler.for_manager(fleet, config=config, fault_hook=hook)
        with pytest.raises(SimulatedCrashError):
            scheduler.run_pass()
        reopened = FleetManager.open(root, "update")
        assert reopened.list_sets() == ids
        assert [record.set_id for record in reopened.registry.records()] == ids
