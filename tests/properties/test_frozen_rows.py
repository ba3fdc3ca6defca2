"""Frozen rows change no stored byte: derived saves that prove models by
identity store what the paper's full hash pass stores.

Random edit sequences run on two in-memory archives in one process,
whose set ids collide.  Each save is repeated, on a ``copy()`` of the
set taken before it, through a freshly built engine over an oracle
context: that engine remembers no save, so it always takes the full
pass.  Every stored diff list, hash-info document and recovered set must
equal the oracle's.  Between saves the sequence writes through states
handed out before a save and through the buffers behind caller-made
read-only rows; neither may reach a saved set.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.config import ArchiveConfig
from repro.core.approach import SaveContext
from repro.core.manager import MultiModelManager
from repro.core.model_set import ModelSet
from repro.nn.serialization import ModelState

ARCH = "FFNN-48"
MODELS = 4

#: What a derived set holds at one index, relative to its source set.
KINDS = ("share", "edit", "same", "dict", "other", "read-only")

#: One step: ("derive", archive, source archive, one kind per model) |
#: ("resave", archive, archive, ()) — the newest set saved again on itself.
steps = st.one_of(
    st.tuples(
        st.just("derive"),
        st.integers(0, 1),
        st.integers(0, 1),
        st.lists(st.sampled_from(KINDS), min_size=MODELS, max_size=MODELS),
    ),
    st.tuples(st.just("resave"), st.integers(0, 1), st.integers(0, 1), st.just([])),
)


def nudged(values: np.ndarray, amount: float) -> np.ndarray:
    return (values + np.float32(amount)).astype(np.float32)


class Archive:
    """An engine under test, its oracle context and what it saved."""

    def __init__(self, dedup: bool, seed: int) -> None:
        config = ArchiveConfig(dedup=dedup)
        self.engine = MultiModelManager.with_approach("update", config)
        self.oracle = SaveContext.create(config)
        self.sets: list[ModelSet] = []
        self.ids: list[str] = []
        self.save(ModelSet.build(ARCH, num_models=MODELS, seed=seed).copy(), None)

    def save(self, model_set: ModelSet, base: "str | None") -> None:
        expected = model_set.copy()
        set_id = self.engine.save_set(model_set, base_set_id=base)
        fresh = MultiModelManager.with_approach("update", context=self.oracle)
        assert fresh.save_set(expected, base_set_id=base) == set_id
        mine, theirs = self.engine.context, self.oracle
        assert self.engine.set_info(set_id).get("diff") == fresh.set_info(set_id).get("diff")
        assert mine.document_store.peek("hash_info", set_id) == theirs.document_store.peek(
            "hash_info", set_id
        )
        assert self.engine.recover_set(set_id).equals(expected)
        assert model_set.equals(expected)
        self.sets.append(model_set)
        self.ids.append(set_id)


def derived_from(source: ModelSet, kinds, step: int) -> "tuple[ModelSet, list]":
    """A set built from ``source`` by ``kinds``, and the writable handles
    a caller still holds into it (read-only rows' buffers, edited states)."""
    states, handles = [], []
    for index, kind in enumerate(kinds):
        if kind == "share":
            states.append(source.state(index))
        elif kind == "other":
            states.append(source.state((index + 1) % MODELS))
        elif kind == "dict":
            states.append(
                OrderedDict(
                    (name, nudged(values, step)) for name, values in source.state(index).items()
                )
            )
        elif kind == "read-only":
            buffer = source.copy_state(index).row
            row = buffer.view()
            row.flags.writeable = False
            states.append(ModelState(source.schema, row))
            handles.append(buffer)
        else:
            state = source.copy_state(index)
            if kind == "edit":
                name = list(state)[step % len(state)]
                state[name] = nudged(state[name], 0.5)
            states.append(state)
            handles.append(state.row)
    return ModelSet(ARCH, states), handles


class TestFrozenRowsMatchTheFullPass:
    @given(dedup=st.booleans(), sequence=st.lists(steps, min_size=1, max_size=5))
    # Archive 0's set shared into archive 1's colliding base id.
    @example(dedup=False, sequence=[("derive", 0, 1, ["share"] * MODELS)])
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_every_save_stores_what_the_full_pass_stores(self, dedup, sequence):
        archives = [Archive(dedup, seed=0), Archive(dedup, seed=1)]
        assert archives[0].ids == archives[1].ids  # set ids collide
        for step, (action, target, source, kinds) in enumerate(sequence, 1):
            archive = archives[target]
            if action == "resave":
                archive.save(archive.sets[-1], archive.ids[-1])
                continue
            model_set, handles = derived_from(archives[source].sets[-1], kinds, step)
            archive.save(model_set, archive.ids[-1])
            for handle in handles:  # the caller writes on after the save
                handle += np.float32(3)
