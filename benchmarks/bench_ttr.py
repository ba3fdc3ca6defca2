"""E6 — Figure 5: median time-to-recover per use case, M1 and server.

Times recovery of every saved set.  Shape claims from the paper:
MMlib-base and Baseline are flat across use cases (independent sets),
MMlib-base is far slower (per-model round trips), and Update shows the
staircase caused by its recursive chain recovery.  The Update series is
therefore pinned to ``recovery="replay"`` — the engine's default
delta-chain compaction flattens exactly this staircase, and its payoff
is asserted in ``tests/core/test_parallel_determinism.py``.  The Provenance
staircase is covered in ``bench_provenance_training.py``, mirroring the
paper's reduced-training methodology (§4.4).
"""

import pytest

from benchmarks.conftest import record_series
from repro.bench.metrics import measure_recover
from repro.bench.runner import _save_all
from repro.storage.hardware import M1_PROFILE, SERVER_PROFILE

PROFILES = {"server": SERVER_PROFILE, "m1": M1_PROFILE}


@pytest.mark.parametrize("profile_name", sorted(PROFILES))
@pytest.mark.parametrize("approach", ("mmlib-base", "baseline", "update"))
def test_ttr_per_use_case(benchmark, cases, approach, profile_name):
    profile = PROFILES[profile_name]
    kwargs = {"recovery": "replay"} if approach == "update" else {}
    manager, set_ids, _saves = _save_all(approach, cases, profile, **kwargs)

    def run():
        return [measure_recover(manager, set_id)[1] for set_id in set_ids]

    measurements = benchmark.pedantic(run, rounds=3, iterations=1)
    ttr = [m.total_s for m in measurements]
    record_series(benchmark, {f"{approach}@{profile_name}": ttr}, unit="s")
    if approach == "update":
        # Staircase: recovering U3-3 walks a 3-delta chain.  Assert on
        # the deterministic read counts — wall time is noisy at the
        # reduced bench scale.
        reads = [m.reads for m in measurements]
        assert reads[3] > reads[2] > reads[1] > reads[0]


def test_baseline_ttr_flat_and_fastest(benchmark, cases):
    managers = {
        approach: _save_all(approach, cases, SERVER_PROFILE)[:2]
        for approach in ("mmlib-base", "baseline", "update")
    }

    def run():
        result = {}
        for approach, (manager, set_ids) in managers.items():
            result[approach] = [
                measure_recover(manager, set_id)[1] for set_id in set_ids
            ]
        return result

    measurements = benchmark.pedantic(run, rounds=3, iterations=1)
    baseline = [m.total_s for m in measurements["baseline"]]
    # Flat across use cases (within noise) and better than MMlib-base.
    assert max(baseline) < 5 * min(baseline) + 1e-3
    for index in range(4):
        assert baseline[index] < measurements["mmlib-base"][index].total_s
    # Update's final-set recovery does strictly more I/O than Baseline's
    # (base snapshot plus the delta chain) — deterministic at any scale.
    assert (
        measurements["update"][3].bytes_read
        > measurements["baseline"][3].bytes_read
    )
