"""Property-based tests of the content-addressed chunk layer.

The central contract: for *any* parameter values — including NaN, Inf,
subnormals, and duplicated layers engineered to maximize dedup — a
save→recover cycle with dedup on is byte-identical to the same cycle
with dedup off, for every approach that supports the knob.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import ArchiveConfig
from repro.core.manager import MultiModelManager
from repro.core.model_set import ModelSet
from repro.storage.hashing import DIGESTS

APPROACHES = ["baseline", "update", "baseline-fp16"]

#: Arbitrary float32 bit patterns: dedup must not canonicalize anything.
float_bits = st.integers(min_value=0, max_value=2**32 - 1)


def bits_to_model_set(bit_lists):
    """A FFNN-48 set whose first-layer biases carry the given raw bits.

    Reusing one bit list for several models produces identical layers —
    the dedup-heavy corner of the input space.
    """
    models = ModelSet.build("FFNN-48", num_models=len(bit_lists), seed=0)
    for model_index, bits in enumerate(bit_lists):
        values = np.array(bits, dtype=np.uint32).view(np.float32)
        state = models.state(model_index)
        state["0.bias"] = values.reshape(state["0.bias"].shape).copy()
    return models


@given(
    shared_bits=st.lists(float_bits, min_size=48, max_size=48),
    unique_bits=st.lists(float_bits, min_size=48, max_size=48),
    approach_index=st.integers(min_value=0, max_value=len(APPROACHES) - 1),
)
@settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_dedup_on_equals_dedup_off(shared_bits, unique_bits, approach_index):
    approach = APPROACHES[approach_index]
    # Three models, two sharing a layer bit-for-bit: exercises both the
    # dedup hit path and the miss path in one save.
    models = bits_to_model_set([shared_bits, shared_bits, unique_bits])
    on = MultiModelManager.with_approach(approach, ArchiveConfig(dedup=True))
    off = MultiModelManager.with_approach(approach, ArchiveConfig(dedup=False))
    recovered_on = on.recover_set(on.save_set(models))
    recovered_off = off.recover_set(off.save_set(models))
    for index in range(len(models)):
        state_on, state_off = recovered_on.state(index), recovered_off.state(index)
        assert list(state_on) == list(state_off)
        for name in state_on:
            assert (
                state_on[name].tobytes() == state_off[name].tobytes()
            ), f"model {index} layer {name}"


@given(
    base_bits=st.lists(float_bits, min_size=48, max_size=48),
    new_bits=st.lists(float_bits, min_size=48, max_size=48),
    approach_index=st.integers(min_value=0, max_value=len(APPROACHES) - 1),
)
@settings(
    max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_derived_save_dedup_on_equals_dedup_off(base_bits, new_bits, approach_index):
    approach = APPROACHES[approach_index]
    base = bits_to_model_set([base_bits, base_bits])
    derived = bits_to_model_set([new_bits, base_bits])
    results = {}
    for dedup in (True, False):
        manager = MultiModelManager.with_approach(approach, ArchiveConfig(dedup=dedup))
        base_id = manager.save_set(base)
        derived_id = manager.save_set(derived, base_set_id=base_id)
        results[dedup] = manager.recover_set(derived_id)
    for index in range(len(derived)):
        state_on = results[True].state(index)
        state_off = results[False].state(index)
        for name in state_on:
            assert state_on[name].tobytes() == state_off[name].tobytes()


@given(data=st.data())
@settings(
    max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_refcounts_match_live_references(data):
    """After any sequence of saves, every chunk's refcount equals the
    number of (model, layer) slots across live sets that reference it."""
    from collections import Counter

    from repro.core.retention import RetentionManager

    manager = MultiModelManager.with_approach("baseline", ArchiveConfig(dedup=True))
    num_saves = data.draw(st.integers(min_value=1, max_value=3))
    ids = []
    for save in range(num_saves):
        seed = data.draw(st.integers(min_value=0, max_value=5))
        models = ModelSet.build("FFNN-48", num_models=2, seed=seed)
        ids.append(manager.save_set(models))
    drop = data.draw(st.sets(st.sampled_from(ids), max_size=len(ids) - 1))
    keep = [set_id for set_id in ids if set_id not in drop]
    RetentionManager(manager.context).collect(keep=keep)

    expected = Counter()
    store = manager.context.document_store._collections["model_sets"]
    for set_id in keep:
        for row in store[set_id]["chunk_digests"]:
            expected.update(row)
    chunk_store = manager.context.chunk_store()
    assert len(chunk_store) == len(expected)
    for digest, count in expected.items():
        assert chunk_store.references(DIGESTS.intern(digest)) == count
