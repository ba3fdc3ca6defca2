"""Registry catalog semantics: families, versions, tags, lineage, diff.

Covers the save-side hooks (record on save/compact/GC, journal
atomicity), the query API, rebuild, and the acceptance criteria:
``diff`` reads zero parameter bytes on Update archives and
``recover_set(family=..., tag=...)`` is byte-identical to recovery by
raw set id on both plain and fleet archives.
"""

import re

import numpy as np
import pytest

from repro.config import ArchiveConfig
from repro.core.manager import MultiModelManager
from repro.core.model_set import ModelSet
from repro.core.retention import RetentionManager
from repro.core.save_info import SetMetadata
from repro.errors import RegistryError
from repro.fleet import FleetManager
from repro.registry import REGISTRY_COLLECTIONS, Registry
from repro.storage.document_store import thaw


def build_models(num_models=3, seed=0):
    return ModelSet.build("FFNN-48", num_models=num_models, seed=seed)


def perturb(models, model_index, layer_index, delta=0.5):
    derived = models.copy()
    name = models.schema.layer_names()[layer_index]
    state = derived.state(model_index)
    state[name] = (state[name] + delta).astype(state[name].dtype)
    return derived


def save_chain(manager, family="pack"):
    """Initial + one derived save; returns (models, derived, ids)."""
    models = build_models()
    base_id = manager.save_set(
        models, metadata=SetMetadata(extra={"family": family})
    )
    derived = perturb(models, 1, 0)
    derived_id = manager.save_set(derived, base_set_id=base_id)
    return models, derived, base_id, derived_id


@pytest.fixture
def manager():
    return MultiModelManager.with_approach("update")


class TestFamiliesAndVersions:
    def test_explicit_family_from_metadata(self, manager):
        _models, _derived, base_id, derived_id = save_chain(manager)
        registry = manager.context.registry
        assert registry.families() == ["pack"]
        records = registry.versions("pack")
        assert [r.set_id for r in records] == [base_id, derived_id]
        assert [r.version for r in records] == [1, 2]
        assert records[0].kind == "full" and records[1].kind == "delta"
        assert records[1].base_set == base_id

    def test_derived_set_inherits_family(self, manager):
        models = build_models()
        base_id = manager.save_set(
            models, metadata=SetMetadata(extra={"family": "cells"})
        )
        derived_id = manager.save_set(perturb(models, 0, 1), base_set_id=base_id)
        assert manager.context.registry.describe(derived_id).family == "cells"

    def test_root_without_metadata_roots_own_family(self, manager):
        set_id = manager.save_set(build_models())
        registry = manager.context.registry
        assert registry.families() == [set_id]
        assert registry.describe(set_id).version == 1

    def test_unknown_family_lists_known(self, manager):
        save_chain(manager)
        with pytest.raises(RegistryError, match="known: \\['pack'\\]"):
            manager.context.registry.versions("nope")

    def test_invalid_family_name_rejected(self, manager):
        with pytest.raises(RegistryError, match="invalid family name"):
            manager.save_set(
                build_models(), metadata=SetMetadata(extra={"family": "a:b"})
            )


class TestTagsAndResolve:
    def test_latest_follows_saves(self, manager):
        _m, _d, base_id, derived_id = save_chain(manager)
        registry = manager.context.registry
        assert registry.resolve("pack") == derived_id
        assert registry.tags("pack") == {"latest": derived_id}
        assert registry.resolve("pack", "latest") == derived_id

    def test_pinned_tag(self, manager):
        _m, _d, base_id, _derived_id = save_chain(manager)
        registry = manager.context.registry
        registry.tag("pack", "prod", base_id)
        assert registry.resolve("pack", "prod") == base_id
        assert registry.tags("pack")["prod"] == base_id

    def test_latest_tag_not_pinnable(self, manager):
        _m, _d, base_id, _derived = save_chain(manager)
        with pytest.raises(RegistryError, match="maintained automatically"):
            manager.context.registry.tag("pack", "latest", base_id)

    def test_tag_requires_family_membership(self, manager):
        save_chain(manager, family="a")
        other = manager.save_set(
            build_models(seed=9), metadata=SetMetadata(extra={"family": "b"})
        )
        with pytest.raises(RegistryError, match="belongs to family"):
            manager.context.registry.tag("a", "prod", other)

    def test_unknown_tag_error_distinguishes_family(self, manager):
        save_chain(manager)
        registry = manager.context.registry
        with pytest.raises(RegistryError, match="has no tag 'prod'"):
            registry.resolve("pack", "prod")
        with pytest.raises(RegistryError, match="unknown family"):
            registry.resolve("ghost", "prod")


class TestDerivationDag:
    def test_direct_and_transitive(self, manager):
        models = build_models()
        a = manager.save_set(models, metadata=SetMetadata(extra={"family": "f"}))
        b = manager.save_set(perturb(models, 0, 0), base_set_id=a)
        c = manager.save_set(perturb(models, 1, 1), base_set_id=b)
        d = manager.save_set(perturb(models, 2, 0), base_set_id=a)
        registry = manager.context.registry
        assert registry.derived_from(a) == sorted([b, d])
        assert registry.derived_from(a, transitive=True) == sorted([b, c, d])
        assert registry.derived_from(c) == []


class TestRecoverByFamily:
    def test_byte_identical_to_raw_id(self, manager):
        _models, derived, _base_id, derived_id = save_chain(manager)
        by_id = manager.recover_set(derived_id)
        by_family = manager.recover_set(family="pack", tag="latest")
        assert by_family.equals(by_id)
        assert by_family.equals(derived)

    def test_family_and_set_id_are_exclusive(self, manager):
        _m, _d, base_id, _derived = save_chain(manager)
        with pytest.raises(ValueError, match="either"):
            manager.recover_set(base_id, family="pack")

    def test_tag_without_family_rejected(self, manager):
        _m, _d, base_id, _derived = save_chain(manager)
        with pytest.raises(ValueError, match="family"):
            manager.recover_set(base_id, tag="prod")

    def test_registry_disabled_archive_raises(self):
        manager = MultiModelManager.with_approach(
            "update", ArchiveConfig(registry=False)
        )
        manager.save_set(build_models())
        assert manager.context.registry is None
        with pytest.raises(RegistryError, match="no registry"):
            manager.recover_set(family="pack")

    def test_registry_off_leaves_an_existing_catalog_alone(self, tmp_path):
        path = str(tmp_path / "archive")
        models = build_models()
        base_id = MultiModelManager.open(path, "update").save_set(
            models, metadata=SetMetadata(extra={"family": "pack"})
        )
        manager = MultiModelManager.open(path, "update", ArchiveConfig(registry=False))
        assert manager.context.registry is None and not manager.has_catalog
        manager.save_set(perturb(models, 0, 0), base_set_id=base_id)
        reopened = MultiModelManager.open(path, "update")
        assert [r.set_id for r in reopened.registry.records()] == [base_id]


class TestRetentionHooks:
    def test_delete_retargets_latest(self, manager):
        models = build_models()
        a = manager.save_set(models, metadata=SetMetadata(extra={"family": "f"}))
        b = manager.save_set(perturb(models, 0, 0), base_set_id=a)
        retention = RetentionManager(manager.context)
        retention.compact(b)
        retention.collect(keep=[b])  # deletes a
        registry = manager.context.registry
        assert registry.resolve("f") == b
        assert [r.set_id for r in registry.versions("f")] == [b]
        with pytest.raises(RegistryError, match="not in the registry"):
            registry.describe(a)

    def test_family_disappears_with_last_version(self, manager):
        models = build_models()
        manager.save_set(models, metadata=SetMetadata(extra={"family": "gone"}))
        keeper = manager.save_set(
            build_models(seed=3), metadata=SetMetadata(extra={"family": "kept"})
        )
        RetentionManager(manager.context).collect(keep=[keeper])
        assert manager.context.registry.families() == ["kept"]

    def test_pinned_tag_on_deleted_set_dropped(self, manager):
        models = build_models()
        a = manager.save_set(models, metadata=SetMetadata(extra={"family": "f"}))
        b = manager.save_set(perturb(models, 0, 0), base_set_id=a)
        registry = manager.context.registry
        registry.tag("f", "prod", a)
        retention = RetentionManager(manager.context)
        retention.compact(b)
        retention.collect(keep=[b])
        assert registry.tags("f") == {"latest": b}

    def test_compact_updates_kind_and_keeps_dag(self, manager):
        models = build_models()
        a = manager.save_set(models, metadata=SetMetadata(extra={"family": "f"}))
        b = manager.save_set(perturb(models, 0, 0), base_set_id=a)
        RetentionManager(manager.context).compact(b)
        record = manager.context.registry.describe(b)
        assert record.kind == "full"
        assert manager.context.registry.derived_from(a) == [b]


class TestJournalAtomicity:
    def test_registry_record_rolls_back_with_the_save(self, tmp_path):
        # In-memory contexts run unjournaled; atomicity needs the
        # durable open path, which attaches the save journal.
        manager = MultiModelManager.open(str(tmp_path / "archive"), "update")
        save_chain(manager)
        registry = manager.context.registry
        before = [r.set_id for r in registry.versions("pack")]
        with pytest.raises(RuntimeError, match="boom"):
            with manager.context.mutex:
                with manager.context.save_transaction("save", "update"):
                    set_id = manager.approach.save_initial(
                        build_models(seed=7),
                        metadata=SetMetadata(extra={"family": "pack"}),
                    )
                    registry.record_save(set_id)
                    raise RuntimeError("boom")
        assert [r.set_id for r in registry.versions("pack")] == before
        assert registry.resolve("pack") == before[-1]

    def test_streaming_save_registers(self, manager):
        models = build_models()
        set_id = manager.save_set_streaming(
            "FFNN-48",
            iter(models.states),
            num_models=len(models),
            metadata=SetMetadata(extra={"family": "streamed"}),
        )
        assert manager.context.registry.resolve("streamed") == set_id


class TestDiff:
    def test_update_diff_reads_zero_parameter_bytes(self, manager):
        models, _derived, base_id, derived_id = save_chain(manager)
        before = manager.context.file_store.stats.snapshot()
        diff = manager.context.registry.diff(base_id, derived_id)
        delta = manager.context.file_store.stats.delta_since(before)
        assert delta.reads == 0 and delta.bytes_read == 0
        assert diff.source == "hash-info"
        assert diff.changed_models == (1,)
        assert diff.changed[0].changed_layers == (
            models.schema.layer_names()[0],
        )

    def test_long_chain_diffs_read_no_parameters(self, manager):
        # A 12-version family, each save nudging one layer of one model.
        versions, num_models = 12, 4
        models = build_models(num_models=num_models)
        ids = [manager.save_set(models, metadata=SetMetadata(extra={"family": "long"}))]
        for step in range(versions - 1):
            models = perturb(models, step % num_models, step % 4)
            ids.append(manager.save_set(models, base_set_id=ids[-1]))
        registry = manager.context.registry
        assert registry.families() == ["long"]
        assert len(registry.versions("long")) == versions
        assert registry.resolve("long") == ids[-1]
        for a, b in ((ids[-2], ids[-1]), (ids[0], ids[-1])):
            before = manager.context.file_store.stats.snapshot()
            diff = registry.diff(a, b)
            delta = manager.context.file_store.stats.delta_since(before)
            assert delta.reads == 0 and delta.bytes_read == 0
            assert diff.source == "hash-info"
        assert diff.changed_models == tuple(range(num_models))

    def test_diff_matches_recover_oracle(self, manager):
        models = build_models()
        a = manager.save_set(models, metadata=SetMetadata(extra={"family": "f"}))
        derived = perturb(perturb(models, 0, 0), 2, 2)
        b = manager.save_set(derived, base_set_id=a)
        diff = manager.context.registry.diff(a, b)
        layer_names = models.schema.layer_names()
        expected = {}
        recovered_a = manager.recover_set(a)
        recovered_b = manager.recover_set(b)
        for index in range(len(models)):
            changed = tuple(
                name
                for name in layer_names
                if not np.array_equal(
                    recovered_a.state(index)[name], recovered_b.state(index)[name]
                )
            )
            if changed:
                expected[index] = changed
        assert {
            entry.model_index: entry.changed_layers for entry in diff.changed
        } == expected

    def test_identical_sets_diff_empty(self, manager):
        models = build_models()
        a = manager.save_set(models, metadata=SetMetadata(extra={"family": "f"}))
        b = manager.save_set(models.copy(), base_set_id=a)
        diff = manager.context.registry.diff(a, b)
        assert diff.identical and diff.changed == ()

    def test_baseline_falls_back_to_recovered(self):
        manager = MultiModelManager.with_approach("baseline")
        models = build_models()
        a = manager.save_set(models, metadata=SetMetadata(extra={"family": "f"}))
        b = manager.save_set(perturb(models, 1, 1), base_set_id=a)
        diff = manager.context.registry.diff(a, b)
        assert diff.source == "recovered"
        assert diff.changed_models == (1,)

    @pytest.mark.parametrize(
        "cut, shape",
        [
            (lambda hashes: hashes.pop(), "2 rows of widths [8]"),
            (lambda hashes: hashes[2].pop(), "3 rows of widths [7, 8]"),
        ],
        ids=["row", "layer"],
    )
    def test_malformed_digest_matrix_refused(self, manager, cut, shape):
        # Comparing row by row would drop what one side lacks and call a
        # changed set identical.
        models = build_models()
        a = manager.save_set(models, metadata=SetMetadata(extra={"family": "f"}))
        b = manager.save_set(perturb(models, 2, 3), base_set_id=a)
        store = manager.context.document_store
        hash_info = thaw(store.peek("hash_info", b))
        cut(hash_info["hashes"])
        store.replace("hash_info", b, hash_info)
        message = rf"set '{b}': its hash-info matrix has {re.escape(shape)}"
        with pytest.raises(RegistryError, match=message):
            manager.context.registry.diff(a, b)

    def test_mismatched_shapes_rejected(self, manager):
        a = manager.save_set(build_models(num_models=2))
        b = manager.save_set(build_models(num_models=3, seed=1))
        with pytest.raises(RegistryError, match="num_models differs"):
            manager.context.registry.diff(a, b)

    def test_unregistered_set_mentions_rebuild(self, manager):
        a = manager.save_set(build_models())
        with pytest.raises(RegistryError, match="register --rebuild"):
            manager.context.registry.diff(a, "set-update-999999")


class TestRebuild:
    def test_rebuild_reproduces_catalog(self, manager):
        save_chain(manager)
        registry = manager.context.registry
        expected = {
            family: [r.to_json() for r in registry.versions(family)]
            for family in registry.families()
        }
        store = registry._store
        for collection in REGISTRY_COLLECTIONS:
            for doc_id in list(store.collection_ids(collection)):
                store._delete_raw(collection, doc_id)
        assert registry.families() == []
        count = registry.rebuild([(None, manager.context)])
        assert count == 2
        assert {
            family: [r.to_json() for r in registry.versions(family)]
            for family in registry.families()
        } == expected

    def test_rebuild_restores_latest(self, manager):
        _m, _d, _base_id, derived_id = save_chain(manager)
        registry = manager.context.registry
        registry.rebuild([(None, manager.context)])
        assert registry.resolve("pack") == derived_id


class TestDurablePlainArchive:
    def test_catalog_survives_reopen(self, tmp_path):
        path = str(tmp_path / "archive")
        manager = MultiModelManager.open(path, "update")
        _m, _d, _base_id, derived_id = save_chain(manager)
        reopened = MultiModelManager.open(path, "update")
        registry = reopened.context.registry
        assert registry.families() == ["pack"]
        assert registry.resolve("pack") == derived_id
        by_family = reopened.recover_set(family="pack")
        assert by_family.equals(reopened.recover_set(derived_id))


class TestFleetRegistry:
    def test_fleet_records_carry_shards_and_resolve_routes(self, tmp_path):
        fleet = FleetManager.open(
            tmp_path / "fleet", "update", ArchiveConfig(shards=2)
        )
        models, derived, base_id, derived_id = save_chain_fleet(fleet)
        registry = fleet.registry
        record = registry.describe(derived_id)
        assert record.shard == fleet.shard_of(derived_id)
        by_family = fleet.recover_set(family="pack", tag="latest")
        assert by_family.equals(fleet.recover_set(derived_id))
        assert by_family.equals(derived)

    def test_fleet_catalog_survives_reopen(self, tmp_path):
        root = tmp_path / "fleet"
        fleet = FleetManager.open(root, "update", ArchiveConfig(shards=2))
        _m, _d, _base_id, derived_id = save_chain_fleet(fleet)
        assert (root / "registry").is_dir()
        reopened = FleetManager.open(root, "update")
        assert reopened.registry.resolve("pack") == derived_id

    def test_fleet_root_holds_shards_deadletter_and_registry_documents(
        self, tmp_path
    ):
        root = tmp_path / "fleet"
        fleet = FleetManager.open(root, "update", ArchiveConfig(shards=2))
        save_chain_fleet(fleet)
        assert fleet.deadletter.count == 0  # built on first use

        def names(directory):
            return sorted(path.name for path in directory.iterdir())

        assert names(root) == ["deadletter", "registry", "shard-0", "shard-1"]
        assert names(root / "deadletter") == ["artifacts", "documents"]
        # The registry journals through a throwaway in-memory file store.
        assert names(root / "registry") == ["documents"]

    def test_delete_sets_syncs_registry(self, tmp_path):
        fleet = FleetManager.open(
            tmp_path / "fleet", "update", ArchiveConfig(shards=2)
        )
        set_id = fleet.save_set(
            build_models(), metadata=SetMetadata(extra={"family": "f"})
        )
        fleet.delete_sets([set_id])
        assert fleet.registry.families() == []

    def test_rebuild_registry_from_shards(self, tmp_path):
        fleet = FleetManager.open(
            tmp_path / "fleet", "update", ArchiveConfig(shards=2)
        )
        _m, _d, base_id, derived_id = save_chain_fleet(fleet)
        count = fleet.rebuild_registry()
        assert count == 2
        registry = fleet.registry
        assert registry.resolve("pack") == derived_id
        assert registry.describe(base_id).shard == fleet.shard_of(base_id)

    def test_fleet_diff_reads_zero_parameter_bytes(self, tmp_path):
        fleet = FleetManager.open(
            tmp_path / "fleet", "update", ArchiveConfig(shards=2)
        )
        _m, _d, base_id, derived_id = save_chain_fleet(fleet)
        snapshots = [
            m.context.file_store.stats.snapshot() for m in fleet.shards
        ]
        diff = fleet.registry.diff(base_id, derived_id)
        deltas = [
            m.context.file_store.stats.delta_since(snap)
            for m, snap in zip(fleet.shards, snapshots)
        ]
        assert sum(d.reads for d in deltas) == 0
        assert sum(d.bytes_read for d in deltas) == 0
        assert diff.changed_models == (1,)


def save_chain_fleet(fleet, family="pack"):
    models = build_models()
    base_id = fleet.save_set(
        models, metadata=SetMetadata(extra={"family": family})
    )
    derived = perturb(models, 1, 0)
    derived_id = fleet.save_set(derived, base_set_id=base_id)
    return models, derived, base_id, derived_id


class TestStandaloneRegistry:
    def test_registry_without_resolver_rejects_descriptor_ops(self):
        from repro.storage.document_store import DocumentStore

        registry = Registry(DocumentStore())
        with pytest.raises(RegistryError, match="no archive contexts"):
            registry.record_save("set-update-000000")

    def test_metrics_counters_wired(self):
        from repro.observability.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        manager = MultiModelManager.with_approach("update")
        manager.context.metrics = metrics
        save_chain(manager)
        manager.context.registry.families()
        collected = metrics.collect()
        assert collected["registry_records_total"] == 2
        assert collected["registry_queries_total"] >= 1
