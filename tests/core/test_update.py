"""Tests for the Update approach (§3.3): hashing, deltas, chains, codecs."""

import numpy as np
import pytest

from repro.core.update import HASH_COLLECTION, UpdateApproach
from repro.core.model_set import ModelSet
from repro.errors import InvalidUpdatePlanError, RecoveryError
from repro.storage.document_store import thaw


@pytest.fixture
def approach(context):
    return UpdateApproach(context)


@pytest.fixture
def models():
    return ModelSet.build("FFNN-48", num_models=10, seed=0)


def perturb(models, model_index, layer_names):
    """Copy of ``models`` with the given layers of one model changed."""
    derived = models.copy()
    for name in layer_names:
        derived.state(model_index)[name] = (
            derived.state(model_index)[name] + 0.5
        ).astype(np.float32)
    return derived


class TestInitialSave:
    def test_roundtrip(self, approach, models):
        set_id = approach.save_initial(models)
        assert approach.recover(set_id).equals(models)

    def test_hash_info_saved_per_model_and_layer(self, approach, models):
        set_id = approach.save_initial(models)
        hashes = approach.context.document_store.get(HASH_COLLECTION, set_id)
        assert len(hashes["hashes"]) == len(models)
        assert len(hashes["hashes"][0]) == len(models.schema.entries)
        assert hashes["layers"] == models.schema.layer_names()

    def test_initial_costs_more_than_baseline(self, context, models):
        # Figure 3, U1: Update sits above Baseline because of hash info.
        from repro.core.baseline import BaselineApproach

        baseline = BaselineApproach(context)
        baseline.save_initial(models)
        baseline_bytes = (
            context.file_store.stats.bytes_written
            + context.document_store.stats.bytes_written
        )
        update_context = type(context).create()
        update = UpdateApproach(update_context)
        update.save_initial(models)
        update_bytes = (
            update_context.file_store.stats.bytes_written
            + update_context.document_store.stats.bytes_written
        )
        assert update_bytes > baseline_bytes


class TestDerivedSave:
    def test_only_changed_layers_stored(self, approach, models):
        base_id = approach.save_initial(models)
        derived = perturb(models, 2, ["4.weight"])
        before = approach.context.file_store.stats.bytes_written
        approach.save_derived(derived, base_id)
        delta_bytes = approach.context.file_store.stats.bytes_written - before
        assert delta_bytes == derived.state(2)["4.weight"].nbytes

    def test_no_changes_stores_empty_delta(self, approach, models):
        base_id = approach.save_initial(models)
        before = approach.context.file_store.stats.bytes_written
        set_id = approach.save_derived(models.copy(), base_id)
        assert approach.context.file_store.stats.bytes_written == before
        assert approach.recover(set_id).equals(models)

    def test_diff_list_identifies_models_and_layers(self, approach, models):
        base_id = approach.save_initial(models)
        derived = perturb(models, 5, ["0.weight", "6.bias"])
        set_id = approach.save_derived(derived, base_id)
        document = approach.context.set_document(set_id)
        layer_names = models.schema.layer_names()
        assert document["diff"] == [
            [5, [layer_names.index("0.weight"), layer_names.index("6.bias")]]
        ]

    def test_derived_roundtrip_exact(self, approach, models):
        base_id = approach.save_initial(models)
        derived = perturb(models, 1, ["2.weight", "2.bias"])
        set_id = approach.save_derived(derived, base_id)
        assert approach.recover(set_id).equals(derived)

    def test_multiple_models_changed(self, approach, models):
        base_id = approach.save_initial(models)
        derived = models.copy()
        for index in (0, 4, 9):
            derived.state(index)["4.weight"] = (
                derived.state(index)["4.weight"] * 2.0
            ).astype(np.float32)
        set_id = approach.save_derived(derived, base_id)
        assert approach.recover(set_id).equals(derived)

    def test_rejects_model_count_mismatch(self, approach, models):
        base_id = approach.save_initial(models)
        smaller = ModelSet.build("FFNN-48", num_models=5, seed=0)
        with pytest.raises(InvalidUpdatePlanError):
            approach.save_derived(smaller, base_id)

    def test_base_hashes_used_not_base_params(self, approach, models):
        # Change detection must read hash info only — never the base
        # parameter artifact (that is the whole point of saving hashes).
        base_id = approach.save_initial(models)
        reads_before = approach.context.file_store.stats.reads
        approach.save_derived(perturb(models, 0, ["0.bias"]), base_id)
        assert approach.context.file_store.stats.reads == reads_before


def traced_context():
    from repro.config import ArchiveConfig, ObservabilityConfig
    from repro.core.approach import SaveContext

    return SaveContext.create(
        ArchiveConfig(observability=ObservabilityConfig(tracing=True))
    )


def model_span_keys(root):
    """Keys of the ``model`` spans under each parent span name, in key order."""
    keys, stack = {}, [root]
    while stack:
        span = stack.pop()
        for child in span.children:
            if child.name == "model":
                keys.setdefault(span.name, []).append(child.key)
            stack.append(child)
    return {name: sorted(found) for name, found in keys.items()}


class TestTouchedHint:
    """``touched`` narrows the hash pass; the stored set must not change."""

    def test_same_set_as_the_full_pass(self, context, models):
        derived = perturb(models, 1, ["0.weight"])
        derived = perturb(derived, 7, ["6.bias"])
        documents = []
        for touched in (None, frozenset({1, 3, 7})):
            approach = UpdateApproach(type(context).create())
            base_id = approach.save_initial(models)
            set_id = approach.save_derived(derived, base_id, touched=touched)
            store = approach.context.document_store
            documents.append(
                (store.peek(HASH_COLLECTION, set_id), approach.context.set_document(set_id))
            )
            assert approach.recover(set_id).equals(derived)
        assert documents[0] == documents[1]

    def test_trace_keys_hash_spans_by_model_index(self):
        context = traced_context()
        approach = UpdateApproach(context)
        models = ModelSet.build("FFNN-48", num_models=4, seed=0)
        base_id = approach.save_initial(models)
        with context.trace("save_set") as root:
            approach.save_derived(
                perturb(models, 3, ["0.bias"]), base_id, touched=frozenset({3})
            )
        assert model_span_keys(root) == {"hash": [3], "serialize": [3]}

    def test_blocked_save_keys_hash_spans_by_model_index(self, monkeypatch):
        from repro.core import baseline

        models = ModelSet.build("FFNN-48", num_models=3, seed=0)
        monkeypatch.setattr(baseline, "BLOCK_BYTES", models.schema.num_bytes)
        context = traced_context()
        with context.trace("save_set") as root:
            UpdateApproach(context).save_initial(models)
        assert model_span_keys(root) == {"hash": [0, 1, 2], "serialize": [0, 1, 2]}

    def test_rejects_out_of_range_indices(self, approach, models):
        base_id = approach.save_initial(models)
        with pytest.raises(InvalidUpdatePlanError, match="out of range"):
            approach.save_derived(models.copy(), base_id, touched=frozenset({10}))


class TestChainRecovery:
    def test_three_level_chain(self, approach, models):
        ids = [approach.save_initial(models)]
        current = models
        for step in range(3):
            current = perturb(current, step, ["4.weight"])
            ids.append(approach.save_derived(current, ids[-1]))
        assert approach.recover(ids[-1]).equals(current)

    def test_intermediate_sets_recoverable(self, approach, models):
        first = approach.save_initial(models)
        middle_set = perturb(models, 0, ["0.weight"])
        middle = approach.save_derived(middle_set, first)
        last_set = perturb(middle_set, 1, ["0.weight"])
        approach.save_derived(last_set, middle)
        assert approach.recover(middle).equals(middle_set)

    def test_recovery_reads_grow_with_chain_length(self, approach, models):
        # The staircase TTR of Figure 5: deeper chains read more.
        ids = [approach.save_initial(models)]
        current = models
        for step in range(4):
            current = perturb(current, step, ["2.weight"])
            ids.append(approach.save_derived(current, ids[-1]))
        reads = []
        for set_id in (ids[1], ids[-1]):
            before = approach.context.document_store.stats.reads
            approach.recover(set_id)
            reads.append(approach.context.document_store.stats.reads - before)
        assert reads[1] > reads[0]


class TestSnapshotInterval:
    def test_snapshot_bounds_chain_depth(self, context, models):
        approach = UpdateApproach(context, snapshot_interval=2)
        ids = [approach.save_initial(models)]
        current = models
        for step in range(4):
            current = perturb(current, step % len(models), ["0.weight"])
            ids.append(approach.save_derived(current, ids[-1]))
        kinds = [context.set_document(i)["kind"] for i in ids]
        assert "full" in kinds[1:]  # periodic snapshots inserted
        assert approach.recover(ids[-1]).equals(current)

    def test_interval_validation(self, context):
        with pytest.raises(ValueError):
            UpdateApproach(context, snapshot_interval=0)


class TestCodecs:
    @pytest.mark.parametrize("codec", ["zlib", "shuffle-zlib"])
    def test_compressed_roundtrip(self, context, models, codec):
        approach = UpdateApproach(context, codec=codec)
        base_id = approach.save_initial(models)
        derived = perturb(models, 3, ["2.weight"])
        set_id = approach.save_derived(derived, base_id)
        assert context.set_document(set_id)["codec"] == codec
        assert approach.recover(set_id).equals(derived)

    def test_unknown_codec_rejected(self, context):
        with pytest.raises(ValueError):
            UpdateApproach(context, codec="brotli-9000")


class TestCorruption:
    def test_truncated_delta_detected(self, approach, models):
        base_id = approach.save_initial(models)
        derived = perturb(models, 0, ["0.weight"])
        set_id = approach.save_derived(derived, base_id)
        document = approach.context.set_document(set_id)
        artifact = document["params_artifact"]
        payload = approach.context.file_store._blobs[artifact]
        approach.context.file_store._blobs[artifact] = payload[:-8]
        with pytest.raises(RecoveryError):
            approach.recover(set_id)

    def test_oversized_delta_detected(self, approach, models):
        base_id = approach.save_initial(models)
        derived = perturb(models, 0, ["0.weight"])
        set_id = approach.save_derived(derived, base_id)
        document = approach.context.set_document(set_id)
        artifact = document["params_artifact"]
        approach.context.file_store._blobs[artifact] += b"\x00" * 8
        with pytest.raises(RecoveryError):
            approach.recover(set_id)

    @pytest.mark.parametrize("truncate", ["rows", "layers"])
    def test_truncated_base_hash_info_refused(self, approach, models, truncate):
        # A short matrix would silently drop models or layers from the
        # diff (the change below is to the last model's last layer), and
        # with the touched hint it would be copied forward.
        base_id = approach.save_initial(models)
        store = approach.context.document_store
        document = thaw(store.get(HASH_COLLECTION, base_id))
        if truncate == "rows":
            document["hashes"] = document["hashes"][:-1]
        else:
            document["hashes"][-1] = document["hashes"][-1][:-1]
        store.replace(HASH_COLLECTION, base_id, document)
        derived = perturb(models, len(models) - 1, [models.schema.layer_names()[-1]])
        with pytest.raises(InvalidUpdatePlanError, match=base_id):
            approach.save_derived(derived, base_id)
