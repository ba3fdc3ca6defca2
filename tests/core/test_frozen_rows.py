"""A committed ``save_set`` on an Update archive freezes the set's rows.

Each row-backed model becomes a private read-only copy, so writing into
a saved set raises and a view handed out before the save no longer
reaches it; the engine remembers the frozen rows, and a derived save
from that set id hashes only the models whose row is not the one frozen
at the same index.  A caller's dict is never frozen and always hashed.
Every other approach never reads ``touched``: its saved sets keep their
rows as handed in, and the engine records nothing.
``tests/properties/test_frozen_rows.py`` holds the archives to the full
pass's.
"""

from __future__ import annotations

from operator import is_
from unittest.mock import Mock

import numpy as np
import pytest

import repro.core.update as update
from repro.config import ArchiveConfig
from repro.core.manager import MultiModelManager
from repro.core.model_set import ModelSet
from repro.core.save_info import UpdateInfo
from repro.errors import DocumentNotFoundError, SimulatedCrashError
from repro.fleet import IngestQueue
from tests.fleet.test_ingest_identity import digest_dir

ARCH = "FFNN-48"


def row_set(num_models: int = 3) -> ModelSet:
    return ModelSet.build(ARCH, num_models=num_models, seed=0).copy()


def nudge(state) -> None:
    name = next(iter(state))
    state[name] = state[name] + np.float32(1)


@pytest.fixture
def hashed(monkeypatch):
    """The model indices each Update hash pass hashes, in call order."""
    calls: list[list[int]] = []
    original = update.layer_hashes

    def recording(states, layer_names, workers=1, indices=None):
        calls.append(list(range(len(states)) if indices is None else indices))
        return original(states, layer_names, workers, indices)

    monkeypatch.setattr(update, "layer_hashes", recording)
    return calls


class TestFreeze:
    def test_writing_into_a_saved_row_raises(self):
        manager = MultiModelManager.with_approach("update")
        models = row_set()
        manager.save_set(models)
        state = models.state(0)
        name = next(iter(state))
        with pytest.raises(ValueError, match="read-only"):
            state[name] = np.zeros_like(state[name])
        with pytest.raises(ValueError, match="read-only"):
            state[name][...] = 0.0
        copy = models.copy()
        nudge(copy.state(0))  # copy() is writable
        models.states[0] = copy.state(0)  # and a model is still replaced
        assert models.state(0) is copy.state(0)

    def test_a_view_taken_before_the_save_is_detached(self):
        manager = MultiModelManager.with_approach("update")
        models = row_set()
        before = models.state(1)
        layer = before[next(iter(before))]
        set_id = manager.save_set(models)
        nudge(before)
        layer[...] = 7.0
        assert models.state(1) is not before
        assert manager.recover_set(set_id).equals(models)
        assert not np.array_equal(models.state(1).row, before.row)

    def test_a_failed_save_freezes_and_records_nothing(self, tmp_path, monkeypatch):
        manager = MultiModelManager.open(tmp_path, "update", ArchiveConfig())
        base = row_set()
        base_id = manager.save_set(base)
        derived = row_set()
        with pytest.raises(DocumentNotFoundError):
            manager.save_set(derived, base_set_id="set-update-000099")
        # Written, then rolled back: the catalog record fails in the transaction.
        monkeypatch.setattr(
            manager.context.registry, "record_save", Mock(side_effect=SimulatedCrashError("kill"))
        )
        with pytest.raises(SimulatedCrashError):
            manager.save_set(derived, base_set_id=base_id)
        assert all(row.flags.writeable for row in derived.rows())
        assert list(manager._saved_rows) == [base_id]

    def test_a_dict_model_is_always_hashed(self, hashed):
        manager = MultiModelManager.with_approach("update")
        dicts = ModelSet.build(ARCH, num_models=3, seed=0)
        base_id = manager.save_set(dicts)
        assert dicts.rows() == (None, None, None)  # never frozen or packed
        again = ModelSet(ARCH, list(dicts.states))
        manager.save_set(again, base_set_id=base_id)
        assert hashed == [[0, 1, 2]]

    def test_shared_rows_are_proven_and_the_rest_hashed(self, hashed):
        manager = MultiModelManager.with_approach("update")
        base = row_set(4)
        base_id = manager.save_set(base)
        derived = ModelSet(ARCH, list(base.states))
        edited = base.copy_state(2)
        nudge(edited)
        derived.states[2] = edited
        derived.states[3] = base.state(0)  # frozen, but not model 3's
        derived_id = manager.save_set(derived, base_set_id=base_id)
        assert hashed == [[2, 3]]
        assert manager.set_info(derived_id)["diff"] == [[2, [0]], [3, list(range(8))]]
        assert derived.rows()[:2] == base.rows()[:2]  # kept, not copied again
        manager.save_set(derived, base_set_id=derived_id)
        assert hashed[-1] == []

    def test_another_engine_proves_nothing(self, hashed):
        first = MultiModelManager.with_approach("update")
        second = MultiModelManager.with_approach("update")
        base_id = second.save_set(row_set())
        base = row_set()
        assert first.save_set(base) == base_id  # the ids collide
        second.save_set(ModelSet(ARCH, list(base.states)), base_set_id=base_id)
        assert hashed == [[0, 1, 2]]


class TestOnlyUpdateFreezes:
    @pytest.mark.parametrize(
        "approach", ["baseline", "baseline-fp16", "mmlib-base", "provenance", "pas-delta"]
    )
    def test_a_saved_set_keeps_its_rows(self, approach):
        manager = MultiModelManager.with_approach(approach)
        base = row_set()
        rows = base.rows()
        base_id = manager.save_set(base)
        derived = base.copy()
        nudge(derived.state(1))
        derived_rows = derived.rows()
        manager.save_set(
            derived, base_set_id=base_id, update_info=UpdateInfo(pipelines={}, updates=())
        )
        for model_set, before in ((base, rows), (derived, derived_rows)):
            assert all(map(is_, model_set.rows(), before))
            assert all(row.flags.writeable for row in model_set.rows())
        assert not manager._saved_rows

    def test_an_ingest_flush_saves_what_a_direct_save_does(self, tmp_path):
        """On a Baseline archive the queue's ``touched`` is dropped: the
        flush and a direct derived save leave the same archive."""
        initial = ModelSet.build(ARCH, num_models=4, seed=3)
        edited = initial.copy_state(2)
        nudge(edited)
        queued = MultiModelManager.open(tmp_path / "ingest", "baseline", ArchiveConfig())
        root = queued.save_set(initial)
        with IngestQueue(queued, workers=0) as queue:
            queue.submit(root, 2, edited)
        direct = MultiModelManager.open(tmp_path / "direct", "baseline", ArchiveConfig())
        assert direct.save_set(initial) == root
        derived = initial.copy()
        derived.states[2] = edited
        assert [entry["set_id"] for entry in queue.flush_log] == [
            direct.save_set(derived, base_set_id=root)
        ]
        assert digest_dir(tmp_path / "ingest") == digest_dir(tmp_path / "direct")
