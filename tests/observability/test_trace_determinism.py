"""Determinism contract of the trace layer.

The exported span tree is a function of the *operation*, never of
scheduling: the same save produces byte-identical structure (identities,
kinds, span ids) at ``workers=1`` and ``workers=4``, with or without
replication, healthy or degraded.  And the per-phase simulated times
always sum exactly to the TTS/TTR the storage stats charged — no second
is lost or double-counted by the instrumentation.
"""

import numpy as np
import pytest

from repro.bench.metrics import measure_recover, measure_save
from repro.config import ArchiveConfig, ObservabilityConfig
from repro.core.manager import MultiModelManager
from repro.core.model_set import ModelSet
from repro.observability import phase_breakdown, span_to_dict
from repro.storage.faults import FaultInjector, inject_replica_faults
from repro.storage.hardware import SERVER_PROFILE

NUM_MODELS = 4
TOLERANCE = 1e-9


def perturb(models, model_index, layer_names):
    derived = models.copy()
    for name in layer_names:
        derived.state(model_index)[name] = (
            derived.state(model_index)[name] + 0.5
        ).astype(np.float32)
    return derived


def run_cycle(workers, replicas=None, replica_down=False, tracing=True):
    """One U3 update cycle (U1 save, derived save, recover), measured."""
    config = ArchiveConfig(
        profile=SERVER_PROFILE,
        workers=workers,
        replicas=replicas,
        observability=ObservabilityConfig(tracing=tracing),
    )
    manager = MultiModelManager.with_approach("update", config)
    if replica_down:
        inject_replica_faults(
            manager.context,
            replicas - 1,
            FaultInjector(down_at=0, down_mode="before"),
        )
    models = ModelSet.build("FFNN-48", num_models=NUM_MODELS, seed=0)
    base_id = manager.save_set(models)
    derived = perturb(models, 1, ["0.weight", "4.weight"])
    if tracing:
        manager.context.tracer.clear()
    set_id, save_measurement = measure_save(
        manager, derived, base_set_id=base_id
    )
    recovered, recover_measurement = measure_recover(manager, set_id)
    assert recovered.equals(derived)
    tracer = manager.context.tracer
    return {
        "manager": manager,
        "set_id": set_id,
        "save_root": tracer.roots[0] if tracing else None,
        "recover_root": tracer.roots[1] if tracing else None,
        "save": save_measurement,
        "recover": recover_measurement,
    }


def strip_wall(node: dict) -> dict:
    """Exported span dict minus everything that legitimately varies.

    Wall time varies run to run; simulated floats vary across worker
    counts (striped transfers charge fewer seconds); events embed those
    per-replica costs.  What remains — ids, identities, kinds, keys,
    structure — must be invariant.
    """
    return {
        "id": node["id"],
        "identity": node["identity"],
        "kind": node["kind"],
        "key": node.get("key"),
        "children": [strip_wall(child) for child in node["children"]],
    }


class TestWorkerInvariance:
    @pytest.mark.parametrize("replicas", [None, 3])
    def test_signature_identical_workers_1_vs_4(self, replicas):
        serial = run_cycle(workers=1, replicas=replicas)
        parallel = run_cycle(workers=4, replicas=replicas)
        assert (
            serial["save_root"].signature()
            == parallel["save_root"].signature()
        )
        assert (
            serial["recover_root"].signature()
            == parallel["recover_root"].signature()
        )

    def test_signature_identical_with_one_replica_down(self):
        serial = run_cycle(workers=1, replicas=3, replica_down=True)
        parallel = run_cycle(workers=4, replicas=3, replica_down=True)
        assert (
            serial["save_root"].signature()
            == parallel["save_root"].signature()
        )
        assert (
            serial["recover_root"].signature()
            == parallel["recover_root"].signature()
        )

    @pytest.mark.parametrize("replicas", [None, 3])
    def test_span_ids_identical_workers_1_vs_4(self, replicas):
        serial = run_cycle(workers=1, replicas=replicas)
        parallel = run_cycle(workers=4, replicas=replicas)
        assert strip_wall(span_to_dict(serial["save_root"])) == strip_wall(
            span_to_dict(parallel["save_root"])
        )

    def test_identical_runs_identical_trees(self):
        first = run_cycle(workers=4)
        second = run_cycle(workers=4)
        assert strip_wall(span_to_dict(first["save_root"])) == strip_wall(
            span_to_dict(second["save_root"])
        )
        assert strip_wall(span_to_dict(first["recover_root"])) == strip_wall(
            span_to_dict(second["recover_root"])
        )


class TestPhaseSums:
    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("replicas,down", [(None, False), (3, False), (3, True)])
    def test_phases_sum_to_tts_and_ttr(self, workers, replicas, down):
        result = run_cycle(workers=workers, replicas=replicas, replica_down=down)
        save_sum = sum(phase_breakdown(result["save_root"]).values())
        recover_sum = sum(phase_breakdown(result["recover_root"]).values())
        assert abs(save_sum - result["save"].simulated_s) <= TOLERANCE
        assert abs(recover_sum - result["recover"].simulated_s) <= TOLERANCE
        # The roll-up agrees with the breakdown.
        assert (
            abs(result["save_root"].total_simulated_s() - save_sum) <= TOLERANCE
        )


class TestDegradedVisibility:
    def test_degraded_save_names_the_missed_replica(self):
        result = run_cycle(workers=1, replicas=3, replica_down=True)
        acks = [
            event
            for span in result["save_root"].walk()
            for event in span.events
            if event["name"] == "replica-acks"
        ]
        assert acks, "quorum writes must emit replica-acks events"
        for event in acks:
            assert event["missed"] == ["replica-2"]
            assert sorted(event["acks"]) == ["replica-0", "replica-1"]

    def test_degraded_compaction_names_the_missed_replica(self):
        # ``replace`` is the same charged quorum write as ``insert`` — the
        # one compaction issues — and reports its acks the same way.
        from repro.core.retention import RetentionManager

        result = run_cycle(workers=1, replicas=3, replica_down=True)
        context = result["manager"].context
        context.tracer.clear()
        with context.trace("compact"):
            RetentionManager(context).compact(result["set_id"])
        acks = [
            event
            for span in context.tracer.roots[0].walk()
            for event in span.events
            if event["name"] == "replica-acks"
        ]
        assert any(event["op"].startswith("replace ") for event in acks)
        for event in acks:
            assert event["missed"] == ["replica-2"]
            assert sorted(event["acks"]) == ["replica-0", "replica-1"]

    def test_healthy_save_misses_nobody(self):
        result = run_cycle(workers=1, replicas=3)
        acks = [
            event
            for span in result["save_root"].walk()
            for event in span.events
            if event["name"] == "replica-acks"
        ]
        assert acks and all(event["missed"] == [] for event in acks)


class TestDisabledTracing:
    def test_noop_recorder_causes_zero_stats_drift(self):
        traced = run_cycle(workers=1, tracing=True)
        untraced = run_cycle(workers=1, tracing=False)
        assert untraced["manager"].context.tracer is None
        for attr in ("file_store", "document_store"):
            traced_stats = getattr(traced["manager"].context, attr).stats
            untraced_stats = getattr(untraced["manager"].context, attr).stats
            assert traced_stats.snapshot() == untraced_stats.snapshot()
        assert traced["set_id"] == untraced["set_id"]
        assert traced["save"].bytes_written == untraced["save"].bytes_written
