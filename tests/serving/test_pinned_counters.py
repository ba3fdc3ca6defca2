"""The serving counters of one fixed request sequence, pinned.

The sequence mixes derived saves, whole-set and single-model reads drawn
towards recent versions, and one retention pass (which sweeps the
chunks it released), on a dedup and a plain Update archive, with a tier
2 that holds half a set (so it evicts) and one that holds everything.  The
expected counters were recorded while tier 2 was keyed by hex digests:
the digest-id columns must change no hit, miss, byte or eviction.
"""

import numpy as np
import pytest

from repro.config import ArchiveConfig, ServingConfig
from repro.core.manager import MultiModelManager
from repro.core.model_set import ModelSet
from repro.core.retention import RetentionManager

PINNED = {
    (True, 0.5): {
        "chunk_hits": 247, "chunk_misses": 369, "bytes_saved": 2196548,
        "logical_bytes_served": 3135604, "set_hits": 20, "set_misses": 22,
        "invalidations": 0, "chunk_cache_evictions": 345, "set_cache_evictions": 18,
    },
    (True, 64): {
        "chunk_hits": 542, "chunk_misses": 74, "bytes_saved": 2965836,
        "logical_bytes_served": 3135604, "set_hits": 20, "set_misses": 22,
        "invalidations": 15, "chunk_cache_evictions": 0, "set_cache_evictions": 18,
    },
    (False, 0.5): {
        "chunk_hits": 215, "chunk_misses": 313, "bytes_saved": 2155624,
        "logical_bytes_served": 3135604, "set_hits": 20, "set_misses": 22,
        "invalidations": 1, "chunk_cache_evictions": 286, "set_cache_evictions": 17,
    },
    (False, 64): {
        "chunk_hits": 454, "chunk_misses": 74, "bytes_saved": 2746144,
        "logical_bytes_served": 3135604, "set_hits": 20, "set_misses": 22,
        "invalidations": 1, "chunk_cache_evictions": 0, "set_cache_evictions": 17,
    },
}


def run_sequence(dedup: bool, chunk_sets: float) -> dict:
    """Serve the fixed sequence; every read is checked against the oracle."""
    base = ModelSet.build("FFNN-48", num_models=6, seed=3)
    budget = base.parameter_bytes
    config = ArchiveConfig(
        dedup=dedup,
        serving=ServingConfig(
            enabled=True,
            set_cache_bytes=2 * budget,
            chunk_cache_bytes=int(chunk_sets * budget),
        ),
    )
    manager = MultiModelManager.with_approach("update", config)
    sets, ids = [base], [manager.save_set(base)]
    names = base.schema.layer_names()
    rng = np.random.default_rng(42)

    def recent() -> int:
        return len(ids) - 1 - min(int(rng.geometric(0.5)) - 1, len(ids) - 1)

    for step in range(60):
        op = int(rng.integers(0, 10))
        if step == 40:
            RetentionManager(manager.context).keep_last(3)
            kept = set(manager.list_sets())
            ids, sets = map(list, zip(*[(i, s) for i, s in zip(ids, sets) if i in kept]))
        if op < 2:
            derived = sets[-1].copy()
            for _ in range(int(rng.integers(1, 4))):
                state = derived.state(int(rng.integers(0, 6)))
                name = names[int(rng.integers(0, len(names)))]
                state[name] = (state[name] + np.float32(step + 1)).astype(np.float32)
            ids.append(manager.save_set(derived, base_set_id=ids[-1]))
            sets.append(derived)
        elif op < 6:
            pick = recent()
            assert manager.recover_set(ids[pick]).equals(sets[pick])
        elif op < 9:
            pick, index = recent(), int(rng.integers(0, 6))
            state = manager.recover_model(ids[pick], index)
            expected = sets[pick].state(index)
            assert all(state[n].tobytes() == expected[n].tobytes() for n in expected)
    counters = manager.context.serving.counters()
    return {key: counters[key] for key in PINNED[dedup, chunk_sets]}


@pytest.mark.parametrize("dedup, chunk_sets", list(PINNED))
def test_counters_are_pinned(dedup, chunk_sets):
    assert run_sequence(dedup, chunk_sets) == PINNED[dedup, chunk_sets]

