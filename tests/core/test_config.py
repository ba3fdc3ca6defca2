"""ArchiveConfig contract: validation, copies, CLI mapping — and that the
pre-config per-knob keyword arguments are gone (TypeError, not a shim)."""

import argparse
from dataclasses import fields

import pytest

from repro.cli import config_from_args
from repro.config import (
    ArchiveConfig,
    MaintenanceConfig,
    ObservabilityConfig,
    ServingConfig,
)
from repro.core.approach import SaveContext
from repro.core.manager import MultiModelManager
from repro.errors import ConfigError
from repro.storage.faults import RetryingDocumentStore, RetryingFileStore, RetryPolicy
from repro.storage.file_store import FileStore
from repro.storage.hardware import LOCAL_PROFILE, SERVER_PROFILE
from repro.storage.journal import JournaledFileStore
from repro.storage.persistent import PersistentFileStore, open_context
from repro.storage.replication import ReplicatedDocumentStore, ReplicatedFileStore


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": -1},
            {"workers": None},
            {"replicas": 0},
            {"write_quorum": 0},
            {"read_quorum": 0},
            {"replicas": 3, "write_quorum": 4},
            {"replicas": 3, "read_quorum": 5},
            {"profile": "server"},
            {"observability": {"tracing": True}},
            {"maintenance": {"enabled": True}},
            {"maintenance": MaintenanceConfig(interval_s=-1.0)},
            {"maintenance": MaintenanceConfig(duty_cycle=0.0)},
            {"maintenance": MaintenanceConfig(duty_cycle=1.5)},
            {"maintenance": MaintenanceConfig(gc_keep_last=0)},
            {"maintenance": MaintenanceConfig(compact_chain_depth=0)},
        ],
    )
    def test_bad_values_raise_config_error(self, kwargs):
        with pytest.raises(ConfigError):
            ArchiveConfig(**kwargs)

    def test_defaults_are_valid_and_frozen(self):
        config = ArchiveConfig()
        assert config.profile is LOCAL_PROFILE
        assert (config.workers, config.dedup, config.journal) == (1, False, True)
        with pytest.raises(AttributeError):
            config.workers = 2

    def test_maintenance_defaults_and_full_duty_are_valid(self):
        assert ArchiveConfig().maintenance == MaintenanceConfig()
        assert ArchiveConfig().maintenance.enabled is False
        config = ArchiveConfig(
            maintenance=MaintenanceConfig(enabled=True, duty_cycle=1.0)
        )
        assert config.maintenance.duty_cycle == 1.0

    def test_with_replaces_and_revalidates(self):
        config = ArchiveConfig().with_(workers=4, dedup=True)
        assert (config.workers, config.dedup) == (4, True)
        with pytest.raises(ConfigError):
            config.with_(workers=-3)
        with pytest.raises(ConfigError):
            config.with_(worker_count=4)  # unknown field


class TestDeprecationShims:
    """The per-knob kwarg shim was removed on schedule (ISSUE 12): the old
    call shapes raise instead of warning."""

    def test_with_approach_per_knob_kwargs_raise(self):
        with pytest.raises(TypeError, match=r"ArchiveConfig\(dedup=\.\.\., workers="):
            MultiModelManager.with_approach("update", workers=4, dedup=True)

    def test_legacy_kwargs_layer_onto_explicit_config(self):
        """They used to layer onto the config; now they raise beside one too."""
        with pytest.raises(TypeError, match="workers"):
            MultiModelManager.with_approach(
                "update", ArchiveConfig(profile=SERVER_PROFILE), workers=4
            )

    def test_save_context_create_per_knob_kwargs_raise(self):
        with pytest.raises(TypeError):
            SaveContext.create(replicas=3, write_quorum=2, read_quorum=2)

    def test_open_per_knob_kwargs_raise_before_touching_disk(self, tmp_path):
        with pytest.raises(TypeError, match="dedup"):
            MultiModelManager.open(str(tmp_path / "a"), "update", dedup=True)
        assert not (tmp_path / "a").exists()

    def test_serving_differential_knob_is_gone(self):
        """It selected a miss path that no longer exists (ISSUE 14)."""
        with pytest.raises(TypeError):
            ServingConfig(**{"differential": False})
        assert [field.name for field in fields(ServingConfig)] == [
            "enabled", "set_cache_bytes", "chunk_cache_bytes",
        ]

    def test_dead_constructor_knobs_are_gone(self, tmp_path):
        """ISSUE 18: per-knob plumbing no caller passed, and a checksum
        switch whose only use was turning verification off."""
        from repro.storage.file_store import FileStore
        from repro.storage.persistent import PersistentFileStore, open_context
        from repro.storage.replication import ReplicatedFileStore

        with pytest.raises(TypeError):
            open_context(str(tmp_path / "a"), profile=SERVER_PROFILE)
        with pytest.raises(TypeError):
            PersistentFileStore(tmp_path / "b", verify_checksums=False)
        for knob in ("names", "latency_factors"):
            with pytest.raises(TypeError):
                ReplicatedFileStore([FileStore()], **{knob: None})
        assert not (tmp_path / "a").exists()

    def test_approach_kwargs_still_pass_through(self):
        manager = MultiModelManager.with_approach("update", snapshot_interval=4)
        assert manager.approach.snapshot_interval == 4

    def test_config_path_does_not_warn(self, recwarn, tmp_path):
        MultiModelManager.with_approach("update", ArchiveConfig(workers=4))
        SaveContext.create(ArchiveConfig(replicas=3))
        MultiModelManager.open(
            str(tmp_path / "a"), "update", ArchiveConfig(dedup=True)
        )
        assert not [
            w for w in recwarn.list if issubclass(w.category, DeprecationWarning)
        ]

    def test_rejects_non_config_positional(self):
        with pytest.raises(ConfigError):
            MultiModelManager.with_approach("update", {"workers": 4})

    def test_with_approach_bare_profile_positional_raises(self):
        """The pre-config positional shape went with the shim."""
        with pytest.raises(ConfigError):
            MultiModelManager.with_approach("baseline", SERVER_PROFILE)
        with pytest.raises(ConfigError):
            SaveContext.create(SERVER_PROFILE)


class TestConfigFromArgs:
    def make_args(self, **overrides):
        defaults = dict(
            profile_name="server",
            workers=4,
            dedup=True,
            no_journal=True,
            retries=2,
            replicas=3,
            write_quorum=2,
            read_quorum=2,
            trace=True,
            trace_json=None,
            live=False,
        )
        defaults.update(overrides)
        return argparse.Namespace(**defaults)

    def test_flags_map_one_to_one(self):
        config = config_from_args(self.make_args())
        assert config == ArchiveConfig(
            profile=SERVER_PROFILE,
            workers=4,
            dedup=True,
            journal=False,
            retry=RetryPolicy(attempts=2),
            replicas=3,
            write_quorum=2,
            read_quorum=2,
            observability=ObservabilityConfig(tracing=True),
        )

    def test_defaults_map_to_default_config(self):
        args = self.make_args(
            profile_name=None,
            workers=1,
            dedup=False,
            no_journal=False,
            retries=None,
            replicas=None,
            write_quorum=None,
            read_quorum=None,
            trace=False,
        )
        assert config_from_args(args) == ArchiveConfig()

    def test_trace_json_implies_tracing(self):
        config = config_from_args(self.make_args(trace=False, trace_json="t.json"))
        assert config.observability.tracing is True
        assert config.observability.trace_path == "t.json"

    def test_live_enables_metrics(self):
        config = config_from_args(self.make_args(live=True))
        assert config.observability.metrics is True


class TestStoreAssembly:
    """``create`` and ``open_context`` stack the same layers in the same
    order: journal > replication > per-backend retries > the stores."""

    CONFIG = ArchiveConfig(replicas=3, retry=RetryPolicy(attempts=2))

    @pytest.mark.parametrize("durable", [False, True])
    def test_retries_sit_beneath_the_replication_layer(self, durable, tmp_path):
        if durable:
            context = open_context(tmp_path, self.CONFIG)
            file_top, doc_top = context.file_store._inner, context.document_store._inner
            backend = PersistentFileStore
        else:
            context = SaveContext.create(self.CONFIG)
            file_top, doc_top = context.file_store, context.document_store
            backend = FileStore
        assert isinstance(file_top, ReplicatedFileStore)
        assert isinstance(doc_top, ReplicatedDocumentStore)
        for state in file_top.replicas:
            assert isinstance(state.store, RetryingFileStore)
            assert type(state.store._inner) is backend
        for state in doc_top.replicas:
            assert isinstance(state.store, RetryingDocumentStore)

    def test_single_backend_retries_sit_beneath_the_journal(self, tmp_path):
        context = open_context(tmp_path, ArchiveConfig(retry=RetryPolicy(attempts=2)))
        assert isinstance(context.file_store, JournaledFileStore)
        assert isinstance(context.file_store._inner, RetryingFileStore)
        assert isinstance(context.file_store._inner._inner, PersistentFileStore)
