"""One catalog rule: every save, compaction and deletion records itself.

A fleet shard's ``context.registry`` is the root catalog bound to the
shard, so whichever way retention runs on a shard — a direct
``RetentionManager`` call, a hand-built scheduler with no hook, or the
CLI — the root catalog stays equal to a rebuild over the same shards.
The binding applies its records when the shard's transaction commits:
a killed shard transaction never reaches the catalog, a kill in the
catalog's own write loses exactly that record (reopening the fleet, or
``register --rebuild``, restores it), and a catalog store failure is not
the shard's failure.
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pytest

from repro.cli import main as archive_main
from repro.config import ArchiveConfig, MaintenanceConfig
from repro.core.model_set import ModelSet
from repro.core.retention import RetentionManager
from repro.core.save_info import SetMetadata
from repro.errors import DocumentNotFoundError, PermanentStorageError, SimulatedCrashError
from repro.fleet import FleetManager, IngestQueue
from repro.fleet.health import HEALTHY
from repro.maintenance import MaintenanceScheduler, MaintenanceTarget
from repro.observability.metrics import MetricsRegistry
from repro.registry import VERSIONS_COLLECTION, open_fleet_registry
from repro.storage.faults import FaultInjector, inject_faults

SEED_BASE = int(os.environ.get("REPRO_FAULT_SEED", "0"))
PACK = SetMetadata(extra={"family": "pack"})


def nudged(models: ModelSet, step: int) -> ModelSet:
    derived = models.copy()
    name = derived.schema.layer_names()[step % len(derived.schema.layer_names())]
    state = derived.state(step % len(derived))
    state[name] = (state[name] + np.float32(0.5)).astype(np.float32)
    return derived


@pytest.fixture(scope="module")
def models() -> ModelSet:
    return ModelSet.build("FFNN-48", num_models=3, seed=5)


def save_pack(fleet: FleetManager, models: ModelSet, count: int = 4) -> "list[str]":
    """A ``pack`` family chain of ``count`` sets, one shard, plus a loner."""
    ids = [fleet.save_set(models, metadata=PACK)]
    for step in range(count - 1):
        ids.append(
            fleet.save_set(nudged(models, step), base_set_id=ids[-1], metadata=PACK)
        )
    fleet.save_set(nudged(models, 9), metadata=SetMetadata(extra={"family": "solo"}))
    return ids


def summary(registry) -> "list[tuple]":
    """Every record's fields a rebuild re-derives.

    A rebuild numbers versions densely, and a compacted set's descriptor
    no longer names its base, so ``version`` and ``base_set`` are left
    out; ``latest`` of every family is compared through :func:`resolve`.
    """
    return [
        (r.set_id, r.family, r.kind, r.approach, r.architecture, r.num_models, r.shard)
        for r in registry.records()
    ]


def rebuilt(fleet: FleetManager):
    """A scratch catalog rebuilt over the fleet's shards."""
    scratch = open_fleet_registry(None, resolver=lambda shard: fleet.shards[shard].context)
    scratch.rebuild([(index, m.context) for index, m in enumerate(fleet.shards)])
    return scratch


def assert_catalog_rule(fleet: FleetManager) -> None:
    scratch = rebuilt(fleet)
    assert summary(fleet.registry) == summary(scratch)
    for family in scratch.families():
        set_id = fleet.registry.resolve(family)
        assert set_id == scratch.resolve(family)
        shard = fleet.registry.shard_of(set_id)
        assert set_id in fleet.shards[shard].list_sets()
        fleet.recover_set(family=family)


def owner(fleet: FleetManager, set_id: str) -> int:
    return fleet.shard_of(set_id)


@pytest.fixture(params=["memory", "durable"])
def fleet_factory(request, tmp_path):
    def make():
        config = ArchiveConfig(shards=2)
        if request.param == "memory":
            return FleetManager.with_approach("update", config)
        return FleetManager.open(tmp_path / "fleet", "update", config)

    return make


class TestRetentionBehindTheFleet:
    """(a) Retention driven on a shard, not through the fleet."""

    def test_direct_keep_last(self, fleet_factory, models):
        fleet = fleet_factory()
        ids = save_pack(fleet, models)
        report = RetentionManager(fleet.shards[owner(fleet, ids[0])].context).keep_last(1)
        assert report.deleted_sets == ids[:3] and report.compacted_sets == [ids[3]]
        assert_catalog_rule(fleet)
        assert fleet.registry.describe(ids[3]).kind == "full"

    def test_direct_compact_then_collect(self, fleet_factory, models):
        fleet = fleet_factory()
        ids = save_pack(fleet, models)
        retention = RetentionManager(fleet.shards[owner(fleet, ids[0])].context)
        assert retention.compact(ids[-1])
        assert_catalog_rule(fleet)
        retention.collect(keep=[ids[-1]])
        assert_catalog_rule(fleet)
        assert fleet.registry.resolve("pack") == ids[-1]
        retention.collect(keep=[])
        assert_catalog_rule(fleet)
        assert "pack" not in fleet.registry.families()

    def test_listing_drops_sets_deleted_on_the_shard(self, fleet_factory, models):
        fleet = fleet_factory()
        ids = save_pack(fleet, models)
        before = fleet.list_sets()
        shard = fleet.shards[owner(fleet, ids[0])]
        doomed = shard.list_sets()
        report = RetentionManager(shard.context).collect(keep=[])
        assert sorted(report.deleted_sets) == doomed
        assert fleet.list_sets() == sorted(set(before) - set(doomed))
        with pytest.raises(DocumentNotFoundError):
            fleet.recover_set(ids[0])
        assert_catalog_rule(fleet)

    def test_scheduler_without_a_hook(self, fleet_factory, models):
        fleet = fleet_factory()
        save_pack(fleet, models)
        targets = [
            MaintenanceTarget(f"shard-{index}", m.context, m.context.mutex)
            for index, m in enumerate(fleet.shards)
        ]
        config = MaintenanceConfig(
            enabled=True, gc_keep_last=2, compact_chain_depth=1, scrub=False
        )
        assert MaintenanceScheduler(targets, config=config).run_pass().changed
        assert_catalog_rule(fleet)


class TestFleetCli:
    """(a) The CLI's fleet verbs, on a durable 2-shard fleet."""

    @pytest.fixture
    def fleet_root(self, tmp_path, models):
        root = tmp_path / "fleet"
        ids = save_pack(FleetManager.open(root, "update", ArchiveConfig(shards=2)), models)
        return root, ids

    @pytest.mark.parametrize(
        "argv",
        [
            ["gc", "--keep-last", "1"],
            ["maintain", "--keep-last", "2", "--compact-depth", "1", "--no-scrub"],
        ],
    )
    def test_retention_verbs(self, fleet_root, argv, capsys):
        root, _ids = fleet_root
        assert archive_main([str(root), *argv]) in (0, 1)
        capsys.readouterr()
        assert_catalog_rule(FleetManager.open(root, "update"))

    def test_compact(self, fleet_root, capsys):
        root, ids = fleet_root
        assert archive_main([str(root), "compact", ids[-2]]) == 0
        capsys.readouterr()
        fleet = FleetManager.open(root, "update")
        assert fleet.registry.describe(ids[-2]).kind == "full"
        assert_catalog_rule(fleet)


class TestKillPoints:
    """(b) A killed shard transaction never reaches the root catalog."""

    def test_every_mutating_op_of_a_fleet_save(self, tmp_path, models):
        template = tmp_path / "template"
        ids = save_pack(FleetManager.open(template, "update", ArchiveConfig(shards=2)), models, 2)
        shutil.copytree(template, tmp_path / "probe")
        probe = FleetManager.open(tmp_path / "probe", "update")
        shard = owner(probe, ids[-1])
        dry = inject_faults(probe.shards[shard].context, FaultInjector())
        probe.save_set(nudged(models, 5), base_set_id=ids[-1])
        assert dry.ops > 0
        for crash_at in range(dry.ops):
            root = tmp_path / f"kill-{crash_at}"
            shutil.copytree(template, root)
            fleet = FleetManager.open(root, "update")
            inject_faults(
                fleet.shards[shard].context,
                FaultInjector(seed=SEED_BASE + crash_at, crash_at=crash_at),
            )
            with pytest.raises(SimulatedCrashError):
                fleet.save_set(nudged(models, 5), base_set_id=ids[-1])
            reopened = FleetManager.open(root, "update")
            assert reopened.list_sets() == probe.list_sets()[:-1]
            assert_catalog_rule(reopened)

    def test_maintenance_pass_killed_in_txn(self, tmp_path, models):
        root = tmp_path / "fleet"
        fleet = FleetManager.open(root, "update", ArchiveConfig(shards=2))
        ids = save_pack(fleet, models)
        before = summary(fleet.registry)
        doomed_shard = f"shard-{owner(fleet, ids[0])}"

        def kill(point, shard, pass_index):
            if point == "in-txn" and shard == doomed_shard:
                raise SimulatedCrashError("maintenance pass killed in its transaction")

        config = MaintenanceConfig(enabled=True, gc_keep_last=1, scrub=False)
        scheduler = MaintenanceScheduler.for_manager(fleet, config=config, fault_hook=kill)
        with pytest.raises(SimulatedCrashError):
            scheduler.run_pass()
        assert summary(fleet.registry) == before
        reopened = FleetManager.open(root, "update")
        assert summary(reopened.registry) == before
        assert_catalog_rule(reopened)

    def test_kill_in_the_catalog_write_loses_exactly_that_record(
        self, tmp_path, models, monkeypatch, capsys
    ):
        root = tmp_path / "fleet"
        fleet = FleetManager.open(root, "update", ArchiveConfig(shards=2))
        ids = save_pack(fleet, models, 2)
        store = fleet.registry._store
        write = store._write_raw

        def killed(collection, doc_id, document):
            if collection == VERSIONS_COLLECTION:
                raise SimulatedCrashError("killed in the root catalog write")
            return write(collection, doc_id, document)

        known = set(fleet.list_sets())
        monkeypatch.setattr(store, "_write_raw", killed)
        with pytest.raises(SimulatedCrashError):
            fleet.save_set(nudged(models, 7), base_set_id=ids[-1])
        # The shard committed: its set is there, and only its record is missing.
        (new_id,) = set(fleet.list_sets()) - known
        expected = [record for record in summary(rebuilt(fleet)) if record[0] != new_id]
        assert summary(fleet.registry) == expected
        monkeypatch.undo()
        # Reopening records the lost set; a rebuild changes nothing more.
        assert_catalog_rule(FleetManager.open(root, "update"))
        assert archive_main([str(root), "register", "--rebuild"]) == 0
        capsys.readouterr()
        assert_catalog_rule(FleetManager.open(root, "update"))


class TestCatalogFailureIsNotAShardFailure:
    """(c) A root-catalog store failure after the shard committed."""

    @staticmethod
    def failing_catalog(fleet, monkeypatch):
        fleet.metrics = MetricsRegistry()
        store = fleet.registry._store
        write = store._write_raw

        def failing(collection, doc_id, document):
            if collection == VERSIONS_COLLECTION:
                raise PermanentStorageError("catalog disk full")
            return write(collection, doc_id, document)

        monkeypatch.setattr(store, "_write_raw", failing)

    def test_breaker_and_placement_untouched(self, fleet_factory, models, monkeypatch):
        fleet = fleet_factory()
        ids = save_pack(fleet, models, 2)
        self.failing_catalog(fleet, monkeypatch)
        set_id = fleet.save_set(nudged(models, 3), base_set_id=ids[-1])
        shard = fleet.shard_of(set_id)
        assert fleet.health.state(shard) == HEALTHY
        assert fleet.health.snapshot()[shard]["consecutive_failures"] == 0
        assert set_id in fleet.list_sets()
        assert fleet.recover_set(set_id).equals(nudged(models, 3))
        assert set_id not in {record.set_id for record in fleet.registry.records()}
        assert fleet.metrics.collect()["registry_record_failures_total"] == 1
        monkeypatch.undo()
        fleet.rebuild_registry()
        assert_catalog_rule(fleet)

    def test_reopen_heals_the_lost_record(self, tmp_path, models, monkeypatch):
        root = tmp_path / "fleet"
        fleet = FleetManager.open(root, "update", ArchiveConfig(shards=2))
        ids = save_pack(fleet, models, 2)
        fleet.registry.tag("pack", "prod", ids[0])
        self.failing_catalog(fleet, monkeypatch)
        set_id = fleet.save_set(nudged(models, 3), base_set_id=ids[-1], metadata=PACK)
        assert fleet.registry.resolve("pack") == ids[-1]
        monkeypatch.undo()
        reopened = FleetManager.open(root, "update")
        assert reopened.registry.resolve("pack", "latest") == set_id
        assert reopened.registry.resolve("pack", "prod") == ids[0]
        assert reopened.registry.describe(set_id).version == 3
        assert_catalog_rule(reopened)

    def test_reopen_heals_a_lost_record_behind_a_newer_one(self, tmp_path, models, monkeypatch):
        # The engine keeps running after the failure: a later save in the
        # same family records first, and the healed set takes its id's place.
        root = tmp_path / "fleet"
        fleet = FleetManager.open(root, "update", ArchiveConfig(shards=2))
        ids = save_pack(fleet, models, 2)
        fleet.registry.tag("pack", "prod", ids[0])
        self.failing_catalog(fleet, monkeypatch)
        lost = fleet.save_set(nudged(models, 3), base_set_id=ids[-1], metadata=PACK)
        monkeypatch.undo()
        newer = fleet.save_set(nudged(models, 4), base_set_id=ids[-1], metadata=PACK)
        assert fleet.registry.resolve("pack") == newer
        reopened = FleetManager.open(root, "update")
        registry = reopened.registry
        assert registry.resolve("pack", "latest") == newer
        assert registry.resolve("pack", "prod") == ids[0]
        assert [(r.set_id, r.version) for r in registry.versions("pack")] == [
            (ids[0], 1),
            (ids[1], 2),
            (lost, 3),
            (newer, 4),
        ]
        assert reopened.recover_set(family="pack").equals(nudged(models, 4))
        assert_catalog_rule(reopened)

    def test_ingest_flush_is_neither_retried_nor_parked(self, tmp_path, models, monkeypatch):
        fleet = FleetManager.open(tmp_path / "fleet", "update", ArchiveConfig(shards=2))
        (base,) = save_pack(fleet, models, 1)
        self.failing_catalog(fleet, monkeypatch)
        queue = IngestQueue(fleet, flush_max_updates=1, workers=0)
        queue.submit(base, 0, nudged(models, 0).state(0))
        queue.close()
        (entry,) = queue.flush_log
        assert queue.flush_retries == 0 and queue.dead_lettered == 0
        assert fleet.recover_set(entry["set_id"]).equals(nudged(models, 0))
        assert fleet.health.state(entry["shard"]) == HEALTHY
