"""Every recovery returns read-only rows (:mod:`repro.core.model_set`).

``recover_set`` and ``recover_model`` of every approach, on plain,
``dedup=True`` and fleet archives, with and without the serving cache,
hand back rows a write cannot change: it raises ``ValueError``, while
``copy()`` / ``copy_state()`` are writable copies and ``states[i] = ...``
still replaces a model.  A serving answer is a view of its tier-1 entry:
neither a miss nor a hit copies it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ArchiveConfig, ServingConfig
from repro.core.manager import MultiModelManager
from repro.core.model_set import ModelSet
from repro.fleet import FleetManager
from tests.core.test_write_set import nudged, provenance_info

ARCH = "FFNN-48"
APPROACHES = ["update", "baseline", "baseline-fp16", "pas-delta", "mmlib-base", "provenance"]
SERVING = ServingConfig(enabled=True)

#: Archive name -> how to open it for an approach.
ARCHIVES = {
    "plain": lambda approach: MultiModelManager.with_approach(approach),
    "dedup": lambda approach: MultiModelManager.with_approach(
        approach, ArchiveConfig(dedup=True)
    ),
    "fleet-serving": lambda approach: FleetManager.with_approach(
        approach, ArchiveConfig(shards=2, serving=SERVING)
    ),
    "dedup-serving": lambda approach: MultiModelManager.with_approach(
        approach, ArchiveConfig(dedup=True, serving=SERVING)
    ),
}


def refuses_writes(state) -> None:
    name = next(iter(state))
    with pytest.raises(ValueError, match="read-only"):
        state[name][...] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        state[name] = np.zeros_like(state[name])


def writable(state) -> None:
    name = next(iter(state))
    state[name] = state[name] + np.float32(1)


def saved_chain(manager, approach: str) -> "tuple[list[str], ModelSet]":
    """A base set and a set derived from it, and the base's models."""
    models = ModelSet.build(ARCH, num_models=3, seed=2)
    base_id = manager.save_set(models)
    info = provenance_info() if approach == "provenance" else None
    derived_id = manager.save_set(nudged(models), base_set_id=base_id, update_info=info)
    return [base_id, derived_id], models


class TestRecoveredRowsAreReadOnly:
    @pytest.mark.parametrize("archive", list(ARCHIVES))
    @pytest.mark.parametrize("approach", APPROACHES)
    def test_recover_set_and_recover_model_refuse_writes(self, approach, archive):
        manager = ARCHIVES[archive](approach)
        set_ids, _models = saved_chain(manager, approach)
        for set_id in set_ids:
            for _ in range(2):  # cold, then a hit where serving is on
                recovered = manager.recover_set(set_id)
                assert all(
                    row is not None and not row.flags.writeable for row in recovered.rows()
                )
                for index in range(len(recovered)):
                    refuses_writes(recovered.state(index))
                state = manager.recover_model(set_id, 1)
                assert not state.row.flags.writeable
                refuses_writes(state)
            copy = recovered.copy()
            writable(copy.state(0))
            writable(recovered.copy_state(2))
            assert not copy.equals(recovered)
            recovered.states[0] = copy.state(0)  # a model is still replaced
            assert recovered.state(0) is copy.state(0)
            # Nothing written above reached a later read.
            assert manager.recover_set(set_id).equals(
                manager.shards[manager.shard_of(set_id)].approach.recover(set_id)
            )

    def test_a_module_built_from_a_recovered_set_writes_its_own_copy(self):
        manager = MultiModelManager.with_approach("update")
        set_ids, _models = saved_chain(manager, "update")
        recovered = manager.recover_set(set_ids[0])
        module = recovered.build_model(1)
        for _name, parameter in module.named_parameters():
            parameter.data += np.float32(1)  # what an optimizer step does
        assert recovered.equals(manager.approach.recover(set_ids[0]))

    def test_update_replay_returns_read_only_rows(self):
        manager = MultiModelManager.with_approach("update", recovery="replay")
        set_ids, models = saved_chain(manager, "update")
        recovered = manager.recover_set(set_ids[-1])
        assert recovered.equals(nudged(models))
        assert not any(row.flags.writeable for row in recovered.rows())
        refuses_writes(manager.recover_model(set_ids[-1], 1))


class TestAnswersShareTheEntry:
    """One copy per read: the assembled matrix is the tier-1 entry, and
    every answer is a view of it."""

    @pytest.mark.parametrize(
        "approach,dedup",
        [("update", True), ("update", False), ("baseline", False), ("mmlib-base", False)],
    )
    def test_a_miss_and_a_hit_are_views_of_the_entry(self, approach, dedup):
        manager = MultiModelManager.with_approach(
            approach, ArchiveConfig(dedup=dedup, serving=SERVING)
        )
        serving = manager.context.serving
        set_id = manager.save_set(ModelSet.build(ARCH, num_models=3, seed=5))
        miss = manager.recover_set(set_id)
        entry = serving.sets.get((set_id, None))
        hit = manager.recover_set(set_id)
        assert serving.stats.set_hits == 1
        for answer in (miss, hit, serving.serve_stale(set_id)):
            assert all(np.shares_memory(row, entry.rows) for row in answer.rows())
        sliced = manager.recover_model(set_id, 2)  # a hit on the full-set entry
        assert np.shares_memory(sliced.row, entry.rows)

    def test_a_single_model_miss_is_a_view_of_its_entry(self):
        manager = MultiModelManager.with_approach(
            "update", ArchiveConfig(dedup=True, serving=SERVING)
        )
        serving = manager.context.serving
        set_id = manager.save_set(ModelSet.build(ARCH, num_models=3, seed=6))
        miss = manager.recover_model(set_id, 1)
        entry = serving.sets.get((set_id, 1))
        hit = manager.recover_model(set_id, 1)
        assert serving.stats.set_hits == 1
        assert np.shares_memory(miss.row, entry.rows)
        assert np.shares_memory(hit.row, entry.rows)


def buffer_of(array: np.ndarray):
    """The buffer that finally owns ``array``'s memory."""
    while isinstance(array, np.ndarray) and array.base is not None:
        array = array.base
    return array


class TestSingleModelRowsHoldOneModel:
    """``recover_model``'s row holds its model alone: the serving cache
    keeps it as the model's tier-1 entry, charged at one row, so a view
    of a larger buffer would keep that buffer alive past the budget."""

    @pytest.mark.parametrize(
        "approach,options",
        [(approach, {}) for approach in APPROACHES] + [("update", {"recovery": "replay"})],
        ids=APPROACHES + ["update-replay"],
    )
    def test_a_model_and_its_entry_own_one_row(self, approach, options):
        manager = MultiModelManager.with_approach(
            approach, ArchiveConfig(serving=SERVING), **options
        )
        set_ids, models = saved_chain(manager, approach)
        for set_id in set_ids:
            uncached = manager.approach.recover_model(set_id, 1)
            served = manager.recover_model(set_id, 1)  # a miss: the model's own entry
            entry = manager.context.serving.sets.get((set_id, 1))
            for array in (uncached.row, served.row, entry.rows):
                assert memoryview(buffer_of(array)).nbytes == models.schema.num_bytes
