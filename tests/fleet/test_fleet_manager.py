"""FleetManager contracts: routing, reopen, observability, guards."""

import hashlib

import numpy as np
import pytest

from repro.config import ArchiveConfig, ObservabilityConfig
from repro.core.manager import MultiModelManager
from repro.errors import ConfigError, DocumentNotFoundError, StorageError
from repro.fleet import FleetManager, IngestQueue, shard_for
from repro.observability.metrics import global_registry
from repro.storage.persistent import detect_shards, open_context


def perturbed(model_set, delta=0.5):
    out = model_set.copy()
    for name in out.states[0]:
        out.states[0][name] = (out.states[0][name] + delta).astype(
            out.states[0][name].dtype
        )
    return out


class TestRouting:
    def test_shard_for_is_stable_sha256(self):
        digest = hashlib.sha256(b"set-update-000007").digest()
        expected = int.from_bytes(digest[:8], "big") % 4
        assert shard_for("set-update-000007", 4) == expected
        # Repeatable, and single-shard fleets always route to 0.
        assert shard_for("set-update-000007", 4) == expected
        assert shard_for("anything", 1) == 0

    def test_initial_saves_route_by_id_hash(self, tiny_set):
        fleet = FleetManager.with_approach("update", ArchiveConfig(shards=4))
        for _ in range(8):
            set_id = fleet.save_set(tiny_set)
            assert fleet.shard_of(set_id) == shard_for(set_id, 4)

    def test_derived_saves_follow_their_base_shard(self, tiny_set):
        fleet = FleetManager.with_approach("update", ArchiveConfig(shards=4))
        base = fleet.save_set(tiny_set)
        current, chain = base, [base]
        for step in range(5):
            current = fleet.save_set(
                perturbed(tiny_set, 0.1 * (step + 1)), base_set_id=current
            )
            chain.append(current)
        shards = {fleet.shard_of(set_id) for set_id in chain}
        assert len(shards) == 1  # the whole chain is shard-local
        assert fleet.root_of(current) == base

    def test_recover_round_trips_and_recover_model(self, tiny_set):
        fleet = FleetManager.with_approach("update", ArchiveConfig(shards=3))
        derived = perturbed(tiny_set)
        base = fleet.save_set(tiny_set)
        set_id = fleet.save_set(derived, base_set_id=base)
        assert fleet.recover_set(set_id).equals(derived)
        np.testing.assert_array_equal(
            fleet.recover_model(set_id, 0)[next(iter(derived.state(0)))],
            derived.state(0)[next(iter(derived.state(0)))],
        )

    def test_unknown_set_raises(self, tiny_set):
        fleet = FleetManager.with_approach("update", ArchiveConfig(shards=2))
        with pytest.raises(DocumentNotFoundError):
            fleet.recover_set("set-update-999999")
        with pytest.raises(DocumentNotFoundError):
            fleet.save_set(tiny_set, base_set_id="set-update-999999")

    def test_list_find_and_totals_aggregate_shards(self, tiny_set):
        fleet = FleetManager.with_approach("update", ArchiveConfig(shards=4))
        ids = [fleet.save_set(tiny_set) for _ in range(6)]
        assert fleet.list_sets() == sorted(ids)
        assert fleet.find_sets(approach="update") == sorted(ids)
        assert fleet.total_stored_bytes() == sum(
            m.total_stored_bytes() for m in fleet.shards
        )

    def test_delete_sets_routes_and_forgets(self, tiny_set):
        fleet = FleetManager.with_approach("update", ArchiveConfig(shards=2))
        ids = [fleet.save_set(tiny_set) for _ in range(4)]
        reports = fleet.delete_sets(ids[:2])
        deleted = [s for r in reports.values() for s in r.deleted_sets]
        assert sorted(deleted) == sorted(ids[:2])
        assert fleet.list_sets() == sorted(ids[2:])
        with pytest.raises(DocumentNotFoundError):
            fleet.recover_set(ids[0])


class TestDurability:
    def test_reopen_detects_topology_and_resumes_ids(self, tmp_path, tiny_set):
        fleet = FleetManager.open(
            tmp_path / "fleet", "update", ArchiveConfig(shards=3)
        )
        ids = [fleet.save_set(tiny_set) for _ in range(5)]
        placement = {set_id: fleet.shard_of(set_id) for set_id in ids}

        reopened = FleetManager.open(tmp_path / "fleet", "update")
        assert reopened.num_shards == 3
        assert reopened.list_sets() == sorted(ids)
        # Placement is rebuilt identically (routing is a pure id hash).
        assert {s: reopened.shard_of(s) for s in ids} == placement
        assert reopened.recover_set(ids[-1]).equals(tiny_set)
        # The fleet id counter resumes after the highest stored id.
        new_id = reopened.save_set(tiny_set)
        assert new_id == f"set-update-{len(ids):06d}"

    def test_detect_shards(self, tmp_path, tiny_set):
        assert detect_shards(tmp_path) == 0
        FleetManager.open(tmp_path / "f", "update", ArchiveConfig(shards=2))
        assert detect_shards(tmp_path / "f") == 2
        (tmp_path / "f" / "shard-xyz").mkdir()  # non-numeric: ignored
        assert detect_shards(tmp_path / "f") == 2

    def test_resharding_is_refused(self, tmp_path, tiny_set):
        FleetManager.open(tmp_path / "f", "update", ArchiveConfig(shards=2))
        with pytest.raises(ConfigError, match="resharding"):
            FleetManager.open(tmp_path / "f", "update", ArchiveConfig(shards=4))

    def test_plain_archive_is_refused(self, tmp_path, tiny_set):
        """Opened without a shard count, a plain archive opens plain under
        the fleet name too; a shard count asked of it is still refused."""
        manager = MultiModelManager.open(str(tmp_path / "plain"), "update")
        set_id = manager.save_set(tiny_set)
        with pytest.raises(StorageError, match="plain single archive"):
            FleetManager.open(tmp_path / "plain", "update", ArchiveConfig(shards=1))
        fleet = FleetManager.open(tmp_path / "plain", "update")
        assert not fleet.sharded and fleet.shards[0].label == "archive"
        assert fleet.recover_set(set_id).equals(tiny_set)
        assert not (tmp_path / "plain" / "shard-0").exists()

    def test_single_archive_open_refuses_fleet_layout(self, tmp_path, tiny_set):
        fleet = FleetManager.open(tmp_path / "f", "update", ArchiveConfig(shards=2))
        set_id = fleet.save_set(tiny_set)
        with pytest.raises(StorageError, match="fleet"):
            open_context(str(tmp_path / "f"))
        # The engine opens the directory's own topology under either name.
        reopened = MultiModelManager.open(str(tmp_path / "f"), "update")
        assert reopened.sharded and reopened.num_shards == 2
        assert reopened.shard_of(set_id) == fleet.shard_of(set_id)
        assert reopened.recover_set(set_id).equals(tiny_set)

    def test_manager_refuses_sharded_config(self, tiny_set):
        """A shard count makes an in-memory fleet under either name."""
        with pytest.raises(ConfigError, match="shards"):
            ArchiveConfig(shards=0)
        manager = MultiModelManager.with_approach("update", ArchiveConfig(shards=2))
        assert manager.sharded and [s.label for s in manager.shards] == [
            "shard-0",
            "shard-1",
        ]
        set_id = manager.save_set(tiny_set)
        assert manager.shard_of(set_id) == shard_for(set_id, 2)
        assert manager.recover_set(set_id).equals(tiny_set)

    def test_replication_composes_under_sharding(self, tmp_path, tiny_set):
        config = ArchiveConfig(shards=2, replicas=3)
        fleet = FleetManager.open(tmp_path / "fr", "update", config)
        set_id = fleet.save_set(tiny_set)
        shard_dir = tmp_path / "fr" / f"shard-{fleet.shard_of(set_id)}"
        assert (shard_dir / "replica-0").is_dir()
        assert (shard_dir / "replica-2").is_dir()
        reopened = FleetManager.open(tmp_path / "fr", "update")
        assert reopened.recover_set(set_id).equals(tiny_set)


class TestObservability:
    def config(self):
        return ArchiveConfig(
            shards=2,
            observability=ObservabilityConfig(tracing=True, metrics=True),
        )

    def test_fleet_spans_wrap_shard_saves(self, tiny_set):
        fleet = FleetManager.with_approach("update", self.config())
        set_id = fleet.save_set(tiny_set)
        root = fleet.tracer.last_root
        assert root.name == "fleet"
        assert root.key == set_id  # deterministic root identity
        (shard_span,) = root.sorted_children()
        assert shard_span.name == f"shard-{fleet.shard_of(set_id)}"
        assert shard_span.sorted_children()[0].name == "save_set"

    def test_coalesce_span_between_envelope_and_save(self, tiny_set):
        fleet = FleetManager.with_approach("update", self.config())
        base = fleet.save_set(tiny_set)
        with IngestQueue(fleet, flush_max_updates=2, workers=0) as queue:
            queue.submit(base, 0, tiny_set.state(0))
            queue.submit(base, 1, tiny_set.state(1))
        save_roots = [r for r in fleet.tracer.roots if r.attrs.get("op") == "save"]
        envelope = save_roots[-1]
        (shard_span,) = envelope.sorted_children()
        (coalesce,) = [
            child
            for child in shard_span.sorted_children()
            if child.name == "coalesce"
        ]
        assert coalesce.attrs == {"updates": 2, "models": 2}
        assert coalesce.sorted_children()[0].name == "save_set"

    def test_per_shard_metrics_and_lock_wait_counters(self, tiny_set):
        fleet = FleetManager.with_approach("update", self.config())
        ids = [fleet.save_set(tiny_set) for _ in range(4)]
        values = global_registry().collect()
        assert values["fleet_shards"] == 2
        per_shard = [values[f"fleet_shard_{i}_sets"] for i in range(2)]
        assert sum(per_shard) == len(ids)
        for index in range(2):
            assert f"fleet_shard_{index}_lock_wait_s_total" in values
            assert values[f"fleet_shard_{index}_lock_wait_s"] >= 0.0
            assert values[f"fleet_shard_{index}_file_store_bytes_written"] > 0
        assert sum(
            values[f"fleet_shard_{i}_stored_bytes"] for i in range(2)
        ) == fleet.total_stored_bytes()
