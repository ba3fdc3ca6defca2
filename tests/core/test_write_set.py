"""The contract of the one save path (``repro.core.baseline.write_set``).

Every full set — Baseline's, the fp16 tier's, Update's initial / streamed /
snapshot / chunked-delta saves, PAS's and Provenance's full sets, and
compaction — is written by encode → land → describe.  These tests pin what
that path promises: the descriptor bytes (key order and artifact ids) of
every caller, that blocking is invisible in the archive, that callers whose
readers cannot follow a chunked set stay artifact-stored, that the fp16
tier recovers through the recovery plan, and the drifts the separate
writers had accumulated.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.architectures import build_ffnn69
from repro.architectures.registry import get_architecture
from repro.battery.datagen import CellDataConfig
from repro.config import ArchiveConfig, ObservabilityConfig
from repro.core import baseline
from repro.core.approach import SETS_COLLECTION
from repro.core.fsck import ArchiveFsck
from repro.core.manager import MultiModelManager
from repro.core.model_set import ModelSet
from repro.core.quantized import QuantizedBaselineApproach
from repro.core.recovery import resolve_chain
from repro.core.retention import RetentionManager
from repro.core.save_info import ModelUpdate, UpdateInfo
from repro.datasets.battery import battery_dataset_ref
from repro.errors import ArchitectureMismatchError
from repro.observability import phase_breakdown
from repro.storage.file_store import FileStore
from repro.storage.hardware import ARCHIVE_PROFILE
from repro.training.pipeline import PipelineConfig
from tests.properties.test_fleet_properties import digest_dir

#: (approach, constructor kwargs) of every caller of the save path.
CONFIGS = (
    ("baseline", {}),
    ("baseline-fp16", {}),
    ("update", {}),
    ("update", {"snapshot_interval": 2}),
    ("pas-delta", {"snapshot_interval": 2}),
    ("provenance", {}),
)


def label_of(approach, kwargs, dedup):
    return approach + ("+snapshot_interval" if kwargs else "") + ("+dedup" if dedup else "")


def nudged(models, index=1, name="2.weight"):
    derived = models.copy()
    derived.state(index)[name] = (derived.state(index)[name] + 1).astype(np.float32)
    return derived


def provenance_info():
    """One cheap, real training record (Provenance derives by re-training)."""
    pipeline = PipelineConfig(learning_rate=0.01, epochs=1, batch_size=32, shuffle_seed=8)
    data = CellDataConfig(seed=4, samples_per_cell=64, cycle_duration_s=64)
    return UpdateInfo(
        {"full": pipeline}, (ModelUpdate(1, battery_dataset_ref(1, 1, data), "full"),)
    )


def save_every_path(manager, models, visit=lambda path, set_id: None):
    """Drive one manager through every save path its approach has.

    initial → streaming → derived (→ snapshot) → compaction of the derived
    set; ``visit(path, set_id)`` is called after each.
    """
    approach = manager.approach
    initial = manager.save_set(models)
    visit("initial", initial)
    streamed = manager.save_set_streaming(
        models.architecture, iter(models.states), len(models)
    )
    visit("streaming", streamed)
    info = provenance_info() if approach.name == "provenance" else None
    derived = manager.save_set(nudged(models), base_set_id=initial, update_info=info)
    visit("derived", derived)
    if getattr(approach, "snapshot_interval", None) is not None:
        visit("snapshot", manager.save_set(nudged(models), base_set_id=derived))
    RetentionManager(manager.context).compact(derived)
    visit("compacted", derived)


class TestDescriptorTable:
    """``list(descriptor)`` and the artifact ids of every path.

    ``write_set_descriptors.json`` was generated at the parent commit of
    the change that introduced ``write_set`` (the hand-built descriptors);
    only its ``compacted`` rows of compactable sets were edited — a
    compacted set now has a full set's key order plus ``compacted_from``.
    Documents are stored in insertion order, so key order is stored bytes.
    """

    TABLE = json.loads(
        (Path(__file__).parent / "write_set_descriptors.json").read_text()
    )

    @pytest.mark.parametrize("dedup", [False, True])
    @pytest.mark.parametrize("approach,kwargs", CONFIGS)
    def test_key_order_and_artifact_ids(self, approach, kwargs, dedup):
        manager = MultiModelManager.with_approach(
            approach, ArchiveConfig(dedup=dedup), **kwargs
        )
        store, files = manager.context.document_store, manager.context.file_store
        seen, observed = set(), {}

        def record(path, set_id):
            new = sorted(set(files.ids()) - seen)
            seen.update(new)
            observed[path] = [list(store.peek(SETS_COLLECTION, set_id)), new]

        save_every_path(manager, ModelSet.build("FFNN-48", num_models=3, seed=0), record)
        assert observed == self.TABLE[label_of(approach, kwargs, dedup)]

    def test_table_covers_every_configuration(self):
        assert set(self.TABLE) == {
            label_of(approach, kwargs, dedup)
            for approach, kwargs in CONFIGS
            for dedup in (False, True)
        }


class TestArtifactStoredOnDedupContexts:
    """PAS and Provenance read their full sets with ``read_full_set``: on a
    ``dedup=True`` context they must keep saving artifact-stored sets."""

    @pytest.mark.parametrize("approach", ["pas-delta", "provenance"])
    def test_round_trip(self, approach):
        manager = MultiModelManager.with_approach(approach, ArchiveConfig(dedup=True))
        models = ModelSet.build("FFNN-48", num_models=4, seed=2)
        initial = manager.save_set(models)
        document = manager.context.document_store.peek(SETS_COLLECTION, initial)
        assert "storage" not in document
        assert manager.context.file_store.exists(document["params_artifact"])
        assert manager.recover_set(initial).equals(models)

        info = provenance_info() if approach == "provenance" else None
        derived_id = manager.save_set(nudged(models), base_set_id=initial, update_info=info)
        recovered = manager.recover_set(derived_id)
        if approach == "pas-delta":
            assert recovered.equals(nudged(models))
        for index in (0, 1):
            state = manager.recover_model(derived_id, index)
            expected = recovered.state(index)
            assert all(np.array_equal(state[name], expected[name]) for name in expected)
        assert ArchiveFsck(manager.context).run(deep=True, recover=True).ok


class TestBlocking:
    """A set beyond one block streams through a writer; nothing in the
    archive — bytes, accounting, simulated charges — may show it."""

    @staticmethod
    def archive(root, approach, kwargs, workers):
        manager = MultiModelManager.open(
            str(root), approach, ArchiveConfig(workers=workers, profile=ARCHIVE_PROFILE), **kwargs
        )
        save_every_path(manager, ModelSet.build("FFNN-48", num_models=5, seed=1))
        context = manager.context
        stats = (context.file_store.stats.snapshot(), context.document_store.stats.snapshot())
        return digest_dir(Path(root)), stats

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("approach,kwargs", CONFIGS)
    def test_one_model_blocks_build_the_same_archive(
        self, approach, kwargs, workers, tmp_path, monkeypatch
    ):
        whole = self.archive(tmp_path / "whole", approach, kwargs, workers)
        one_model = ModelSet.build("FFNN-48", num_models=1, seed=0).schema.num_bytes
        monkeypatch.setattr(baseline, "BLOCK_BYTES", one_model)
        blocked = self.archive(tmp_path / "blocked", approach, kwargs, workers)
        assert blocked == whole

    @pytest.mark.parametrize("dedup", [False, True])
    @pytest.mark.parametrize("approach", ["baseline", "baseline-fp16", "update"])
    @pytest.mark.parametrize("fault", ["schema", "count"])
    def test_error_in_the_third_block_leaves_nothing(
        self, approach, dedup, fault, tmp_path, monkeypatch
    ):
        models = ModelSet.build("FFNN-48", num_models=4, seed=0)
        # Two fp16 models fill one float32-model-sized block.
        block_models = 2 if approach == "baseline-fp16" else 1
        monkeypatch.setattr(baseline, "BLOCK_BYTES", models.schema.num_bytes)

        def states():
            yield from models.states[: 2 * block_models]
            if fault == "schema":
                yield build_ffnn69(rng=np.random.default_rng(0)).state_dict()

        manager = MultiModelManager.open(str(tmp_path), approach, ArchiveConfig(dedup=dedup))
        error = ArchitectureMismatchError if fault == "schema" else ValueError
        with pytest.raises(error):
            manager.save_set_streaming("FFNN-48", states(), num_models=3 * block_models)
        assert manager.context.file_store.ids() == []
        assert manager.list_sets() == []
        assert not list(tmp_path.rglob("*.tmp"))
        assert ArchiveFsck(manager.context).run().ok

    def test_one_block_set_is_one_put_per_replica(self, monkeypatch):
        """Beyond one block is the only case that pays for a writer: a
        replicated store hashes a streamed payload once per replica writer."""
        calls = {"put": 0, "open_writer": 0}
        for name in calls:
            original = getattr(FileStore, name)

            def spy(self, *args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(FileStore, name, spy)
        models = ModelSet.build("FFNN-48", num_models=6, seed=0)
        manager = MultiModelManager.with_approach("update", ArchiveConfig(replicas=3))
        manager.save_set(models)
        manager.save_set_streaming("FFNN-48", iter(models.states), num_models=6)
        assert calls == {"put": 6, "open_writer": 0}
        monkeypatch.setattr(baseline, "BLOCK_BYTES", models.schema.num_bytes)
        manager.save_set(models)
        assert calls == {"put": 6, "open_writer": 3}


class TestHalfPrecisionOnThePlan:
    def test_resolve_chain_plans_float16(self, context):
        approach = QuantizedBaselineApproach(context)
        models = ModelSet.build("FFNN-48", num_models=6, seed=0)
        set_id = approach.save_initial(models)
        document = context.document_store.peek(SETS_COLLECTION, set_id)
        plan = resolve_chain(document, [], set_id)
        (source,) = plan.sources
        assert plan.dtype == "float16" and source.whole
        assert source.total == 6 * models.num_parameters_per_model * 2
        assert source.total == context.file_store.size(document["params_artifact"])

    def test_recover_model_reads_one_models_half_bytes(self, context):
        approach = QuantizedBaselineApproach(context)
        models = ModelSet.build("FFNN-48", num_models=6, seed=0)
        set_id = approach.save_initial(models)
        before = context.file_store.stats.snapshot()
        state = approach.recover_model(set_id, 4)
        delta = context.file_store.stats.delta_since(before)
        assert (delta.reads, delta.bytes_read) == (1, models.num_parameters_per_model * 2)
        expected = models.state(4)
        assert all(np.allclose(state[name], expected[name], atol=1e-3) for name in expected)


class TestDrifts:
    """What the five hand-built descriptors and three writers had drifted
    into; each of these fails at the parent commit."""

    @pytest.mark.parametrize("approach", ["update", "pas-delta"])
    def test_compaction_keeps_the_architecture_source(self, approach):
        manager = MultiModelManager.with_approach(approach)
        models = ModelSet.build("FFNN-48", num_models=4, seed=0)
        ids = [manager.save_set(models)]
        for index in (1, 2):
            models = nudged(models, index)
            ids.append(manager.save_set(models, base_set_id=ids[-1]))
        RetentionManager(manager.context).keep_last(2)
        assert manager.list_sets() == ids[1:]
        survivor = manager.context.document_store.peek(SETS_COLLECTION, ids[1])
        assert survivor["kind"] == "full" and survivor["compacted_from"] == ids[0]
        assert survivor["architecture_code"] == get_architecture("FFNN-48").source_code
        assert ArchiveFsck(manager.context).run(deep=True, recover=True).ok
        assert manager.recover_set(ids[2]).equals(models)

    def test_half_precision_honours_workers(self):
        config = ArchiveConfig(workers=4, profile=ARCHIVE_PROFILE)
        models = ModelSet.build("FFNN-48", num_models=200, seed=0)
        reference = MultiModelManager.with_approach("baseline", config)
        reference.save_set(models)
        manager = MultiModelManager.with_approach("baseline-fp16", config)
        files = manager.context.file_store
        set_id = manager.save_set(models)
        nbytes = models.parameter_bytes // 2
        assert files.stats.bytes_written * 2 == reference.context.file_store.stats.bytes_written
        assert files.stats.simulated_write_s == files._write_cost(nbytes, 4)
        assert files._write_cost(nbytes, 4) < files._write_cost(nbytes, 1)
        assert files.stats.simulated_write_s < reference.context.file_store.stats.simulated_write_s
        manager.recover_set(set_id)
        assert files.stats.simulated_read_s == files._read_cost(nbytes, 4)

    def test_compaction_honours_workers(self):
        manager = MultiModelManager.with_approach(
            "update", ArchiveConfig(workers=4, profile=ARCHIVE_PROFILE)
        )
        models = ModelSet.build("FFNN-48", num_models=200, seed=0)
        derived = manager.save_set(nudged(models), base_set_id=manager.save_set(models))
        files = manager.context.file_store
        before = files.stats.snapshot()
        RetentionManager(manager.context).compact(derived)
        delta = files.stats.delta_since(before)
        assert delta.bytes_written == models.parameter_bytes
        assert delta.simulated_write_s == files._write_cost(models.parameter_bytes, 4)

    @staticmethod
    def traced_save(approach, dedup, streaming):
        manager = MultiModelManager.with_approach(
            approach,
            ArchiveConfig(
                dedup=dedup,
                profile=ARCHIVE_PROFILE,
                observability=ObservabilityConfig(tracing=True),
            ),
        )
        models = ModelSet.build("FFNN-48", num_models=8, seed=0)
        if streaming:
            manager.save_set_streaming("FFNN-48", iter(models.states), num_models=8)
        else:
            manager.save_set(models)
        context = manager.context
        charged = sum(
            stats.simulated_write_s + stats.simulated_read_s
            for stats in (context.file_store.stats, context.document_store.stats)
        )
        return phase_breakdown(context.tracer.last_root), charged

    @pytest.mark.parametrize("dedup", [False, True])
    @pytest.mark.parametrize("approach", ["baseline", "baseline-fp16", "update"])
    def test_every_traced_second_has_a_phase(self, approach, dedup):
        materialized, charged = self.traced_save(approach, dedup, streaming=False)
        streamed, streamed_charged = self.traced_save(approach, dedup, streaming=True)
        for phases, total in ((materialized, charged), (streamed, streamed_charged)):
            assert "other" not in phases
            assert {"store-write", "metadata"} <= set(phases)
            assert sum(phases.values()) == pytest.approx(total, abs=1e-12)
        assert streamed == materialized
