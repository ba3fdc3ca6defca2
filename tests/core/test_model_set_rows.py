"""The ModelSet representation contract: rows, handed-in dicts, and views.

A model is either a contiguous float32 row (what recovery, ``copy()``
and the serving cache build) or the caller's own state dict, kept as
handed in.  These tests pin what each operation does to each kind.
"""

from __future__ import annotations

import pickle
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.manager import MultiModelManager
from repro.core.model_set import ModelSet
from repro.errors import ArchitectureMismatchError
from repro.nn.serialization import ModelState, parameters_to_bytes
from repro.storage.hashing import hash_states

ARCH = "FFNN-48"


def dict_set(num_models: int = 3, seed: int = 0) -> ModelSet:
    """A set of caller-built dicts (``ModelSet.build`` hands dicts in)."""
    return ModelSet.build(ARCH, num_models=num_models, seed=seed)


def row_set(num_models: int = 3, seed: int = 0) -> ModelSet:
    return dict_set(num_models, seed).copy()


def fresh_state(seed: int) -> "OrderedDict[str, np.ndarray]":
    return dict_set(1, seed).state(0)


def detached(state) -> "OrderedDict[str, np.ndarray]":
    return OrderedDict((name, np.array(values)) for name, values in state.items())


class TestAliasing:
    def test_handed_in_dicts_are_kept_themselves(self):
        first, second = fresh_state(1), fresh_state(2)
        models = ModelSet(ARCH, [first, second])
        assert models.state(0) is first and models.states[1] is second
        replacement = fresh_state(3)
        models.states[1] = replacement
        assert models.state(1) is replacement
        name = next(iter(first))
        first[name][...] = 7.0
        assert (models.state(0)[name] == 7.0).all()

    def test_a_row_backed_state_handed_in_shares_its_row(self):
        rows = row_set()
        models = ModelSet(ARCH, [rows.state(0), rows.state(1)])
        models.states[1] = rows.state(2)
        for mine, theirs in ((0, 0), (1, 2)):
            assert isinstance(models.state(mine), ModelState)
            assert models.state(mine).row is rows.state(theirs).row
        name = next(iter(rows.state(0)))
        models.state(0)[name] = np.zeros_like(models.state(0)[name])
        assert (rows.state(0)[name] == 0.0).all()

    def test_recovery_builds_rows_only(self):
        manager = MultiModelManager.with_approach("update")
        base = dict_set(4, seed=5)
        recovered = manager.recover_set(manager.save_set(base))
        assert all(isinstance(state, ModelState) for state in recovered)
        assert recovered.equals(base)


class TestRowBackedState:
    def test_assignment_writes_into_the_row(self):
        models = row_set()
        state = models.state(1)
        name = list(state)[2]
        value = np.full(state[name].shape, 0.5, dtype=np.float64)
        state[name] = value
        assert models.state(1)[name].dtype == np.float32
        assert (models.state(1)[name] == 0.5).all()
        assert np.shares_memory(state[name], state.row)
        state.update({name: np.ones_like(value)})
        assert (models.state(1)[name] == 1.0).all()

    def test_wrong_shape_and_unknown_layer_are_refused(self):
        state = row_set().state(0)
        before = state.row.copy()
        name = next(iter(state))
        with pytest.raises(ArchitectureMismatchError):
            state[name] = np.zeros((1, 1), dtype=np.float32)
        with pytest.raises(ArchitectureMismatchError):
            state["no.such.layer"] = np.zeros(3, dtype=np.float32)
        with pytest.raises(ArchitectureMismatchError):
            state.setdefault("no.such.layer", np.zeros(3, dtype=np.float32))
        assert np.array_equal(state.row, before)
        assert list(state) == state.schema.layer_names()

    @pytest.mark.parametrize(
        "remove",
        [
            lambda state, name: state.__delitem__(name),
            lambda state, name: state.pop(name),
            lambda state, name: state.popitem(),
            lambda state, name: state.clear(),
            lambda state, name: state.move_to_end(name),
        ],
        ids=["del", "pop", "popitem", "clear", "move_to_end"],
    )
    def test_layers_cannot_be_removed_or_reordered(self, remove):
        state = row_set().state(0)
        name = next(iter(state))
        with pytest.raises(ArchitectureMismatchError):
            remove(state, name)
        assert list(state) == state.schema.layer_names()

    def test_pickles_as_a_plain_ordered_dict(self):
        state = row_set().state(2)
        loaded = pickle.loads(pickle.dumps(state))
        assert type(loaded) is OrderedDict
        assert list(loaded) == list(state)
        for name, values in state.items():
            assert loaded[name].tobytes() == values.tobytes()
            assert not np.shares_memory(loaded[name], state.row)

    def test_copy_copies_the_row(self):
        state = row_set().state(0)
        copied = state.copy()
        assert isinstance(copied, ModelState)
        assert not np.shares_memory(copied.row, state.row)
        assert copied.row.tobytes() == state.row.tobytes()


class TestCopy:
    @pytest.mark.parametrize("build", [dict_set, row_set], ids=["dicts", "rows"])
    def test_copy_shares_no_memory_with_its_source(self, build):
        source = build()
        copied = source.copy()
        assert copied.equals(source)
        for index in range(len(source)):
            assert isinstance(copied.state(index), ModelState)
            for name, values in source.state(index).items():
                assert not np.shares_memory(copied.state(index)[name], values)

    def test_copy_of_a_mismatched_dict_raises(self):
        models = dict_set()
        models.states[1] = OrderedDict([("0.weight", np.zeros((1, 1), np.float32))])
        with pytest.raises(ArchitectureMismatchError):
            models.copy()


class TestEquals:
    @pytest.mark.parametrize(
        "left, right",
        [(dict_set, dict_set), (dict_set, row_set), (row_set, dict_set), (row_set, row_set)],
        ids=["dict-dict", "dict-row", "row-dict", "row-row"],
    )
    def test_per_layer_meaning_across_representations(self, left, right):
        mine, theirs = left(), right()
        assert mine.equals(theirs)
        name = list(theirs.state(1))[1]
        bumped = np.array(theirs.state(1)[name])
        bumped.flat[0] = np.nextafter(bumped.flat[0], np.float32(np.inf))
        theirs.state(1)[name] = bumped  # one ulp
        assert not mine.equals(theirs)
        assert mine.equals(theirs, atol=1e-6)
        for models in (mine, theirs):
            nan = np.array(models.state(2)[name])
            nan.flat[0] = np.nan
            models.state(2)[name] = nan
        assert not mine.equals(theirs)
        assert not mine.equals(theirs, atol=1.0)
        assert not mine.equals(mine)  # NaN never equals, not even itself

    def test_schema_length_and_architecture_mismatches(self):
        models = row_set()
        assert not models.equals(row_set(num_models=2))
        other = row_set()
        other.architecture = "CIFAR"
        assert not models.equals(other)


# -- the property -----------------------------------------------------------
LAYERS = dict_set(1).schema.layer_names()

edits = st.lists(
    st.one_of(
        st.tuples(st.just("replace"), st.integers(0, 2), st.integers(0, 1000)),
        st.tuples(
            st.just("write"), st.integers(0, 2), st.sampled_from(LAYERS),
            st.integers(0, 1000),
        ),
        st.tuples(
            st.just("scribble"), st.integers(0, 2), st.sampled_from(LAYERS),
            st.floats(-4.0, 4.0, width=32),
        ),
        st.tuples(st.just("share"), st.integers(0, 2), st.integers(0, 2)),
        st.tuples(st.just("copy")),
    ),
    max_size=12,
)


class TestOracleProperty:
    @settings(max_examples=60, deadline=None)
    @given(start_rows=st.booleans(), script=edits)
    def test_edits_match_a_list_of_dicts(self, start_rows, script):
        """Any mix of ``states[i] =`` and ``state(i)[name] =`` edits leaves
        a set equal to a plain list-of-dicts oracle, which hashes and
        encodes to the same bytes.  Shared models stay shared in both."""
        models = row_set() if start_rows else dict_set()
        oracle = [detached(state) for state in models]
        for edit in script:
            if edit[0] == "replace":
                _, index, seed = edit
                state = fresh_state(seed)
                models.states[index] = state
                oracle[index] = detached(state)
            elif edit[0] == "write":
                _, index, name, seed = edit
                shape = oracle[index][name].shape
                value = np.random.default_rng(seed).normal(size=shape).astype(np.float32)
                models.state(index)[name] = value
                oracle[index][name] = value.copy()
            elif edit[0] == "scribble":
                _, index, name, value = edit
                models.state(index)[name][...] = value
                oracle[index][name][...] = value
            elif edit[0] == "share":
                _, index, source = edit
                models.states[index] = models.state(source)
                oracle[index] = oracle[source]
            else:
                models = models.copy()
                oracle = [detached(state) for state in oracle]
        expected = ModelSet(ARCH, [detached(state) for state in oracle])
        assert models.equals(expected) and expected.equals(models)
        assert hash_states(models.states, LAYERS, length=64) == hash_states(
            oracle, LAYERS, length=64
        )
        for index, state in enumerate(models):
            assert parameters_to_bytes(state) == parameters_to_bytes(oracle[index])
