"""Parallel save/recover scaling and delta-chain compaction benchmark.

Sweeps the engine's ``workers`` knob over a U1 save and a deep-chain
recovery and quantifies what delta-chain compaction saves over the
paper's recursive recovery.  Two claims are checked:

* **scaling** — with ``workers = n`` the striped/vectored store transfers
  pay the makespan of their stripes across *n* lanes instead of the
  serial sum, so time-to-save and time-to-recover drop toward 1/n of the
  serial time on transfer-dominated profiles (the default
  :data:`~repro.storage.hardware.ARCHIVE_PROFILE` models such a store);
* **compaction** — recovering a depth-*d* chain reads exactly one full
  set of parameter bytes, strictly fewer than the recursive replay's
  base-plus-every-delta, while producing the identical model set.

Everything measured here is deterministic: the scenario is seeded and
the simulated store charges do not depend on the host.
"""

from __future__ import annotations

import hashlib
from typing import Any, Sequence

from repro.bench.metrics import measure_recover, measure_save
from repro.config import ArchiveConfig
from repro.core.manager import MultiModelManager
from repro.core.model_set import ModelSet
from repro.core.update import UpdateApproach
from repro.nn.serialization import parameters_to_bytes
from repro.storage.hardware import ARCHIVE_PROFILE, HardwareProfile
from repro.workloads.scenario import MultiModelScenario, ScenarioConfig, UseCase


def build_chain_cases(
    num_models: int,
    chain_depth: int,
    seed: int = 0,
    architecture: str = "FFNN-48",
) -> list[UseCase]:
    """A U1 save followed by ``chain_depth`` linearly chained U3 updates.

    Each cycle mixes full and partial model updates (the paper's U3), so
    the resulting delta chain exercises both whole-model and single-layer
    diff entries — the cases compaction must resolve correctly.
    """
    config = ScenarioConfig(
        num_models=num_models,
        architecture=architecture,
        num_update_cycles=chain_depth,
        full_update_fraction=0.05,
        partial_update_fraction=0.10,
        seed=seed,
    )
    return list(MultiModelScenario(config).use_cases())


def set_digest(model_set: ModelSet) -> str:
    """Content hash of a recovered set, for byte-identity checks."""
    hasher = hashlib.sha256()
    for state in model_set.states:
        hasher.update(parameters_to_bytes(state))
    return hasher.hexdigest()


def run_parallel_scaling(
    num_models: int = 1000,
    chain_depth: int = 6,
    workers: Sequence[int] = (1, 2, 4, 8),
    profile: HardwareProfile = ARCHIVE_PROFILE,
    seed: int = 0,
) -> dict[str, Any]:
    """Run the full sweep; returns a JSON-serializable report.

    For every worker count the same seeded scenario is saved with a fresh
    Update manager (U1 TTS and total chain TTS are recorded) and the
    deepest set is recovered (TTR).  The recovered sets' content digests
    are included so callers can assert byte-identity across worker
    counts, and a replay-vs-compact recovery of the same archive records
    the parameter bytes each strategy reads.
    """
    cases = build_chain_cases(num_models, chain_depth, seed=seed)
    report: dict[str, Any] = {
        "config": {
            "num_models": num_models,
            "chain_depth": chain_depth,
            "workers": list(workers),
            "profile": profile.name,
            "seed": seed,
        },
        "save": {},
        "recover": {},
    }

    for lane_count in workers:
        manager = MultiModelManager.with_approach(
            "update", ArchiveConfig(profile=profile, workers=lane_count)
        )
        set_ids: list[str] = []
        save_total = save_real = save_simulated = 0.0
        u1_tts = u1_simulated = 0.0
        for case in cases:
            base_id = (
                set_ids[case.base_index] if case.base_index is not None else None
            )
            set_id, measurement = measure_save(
                manager,
                case.model_set,
                base_set_id=base_id,
                update_info=case.update_info,
            )
            set_ids.append(set_id)
            save_total += measurement.total_s
            save_real += measurement.real_s
            save_simulated += measurement.simulated_s
            if case.base_index is None:
                u1_tts = measurement.total_s
                u1_simulated = measurement.simulated_s
        recovered, recover_measurement = measure_recover(manager, set_ids[-1])
        key = str(lane_count)
        report["save"][key] = {
            "u1_tts_s": u1_tts,
            "u1_simulated_s": u1_simulated,
            "chain_tts_s": save_total,
            "real_s": save_real,
            "simulated_s": save_simulated,
        }
        report["recover"][key] = {
            "ttr_s": recover_measurement.total_s,
            "real_s": recover_measurement.real_s,
            "simulated_s": recover_measurement.simulated_s,
            "bytes_read": recover_measurement.bytes_read,
            "digest": set_digest(recovered),
        }

    first, *rest = [str(lane_count) for lane_count in workers]
    report["speedup"] = {
        f"save_w{other}_vs_w{first}": (
            report["save"][first]["chain_tts_s"]
            / report["save"][other]["chain_tts_s"]
        )
        for other in rest
    } | {
        f"recover_w{other}_vs_w{first}": (
            report["recover"][first]["ttr_s"] / report["recover"][other]["ttr_s"]
        )
        for other in rest
    }
    report["compaction"] = _compare_recovery_bytes(cases, profile)
    return report


def _compare_recovery_bytes(
    cases: list[UseCase], profile: HardwareProfile
) -> dict[str, Any]:
    """Parameter bytes read by recursive vs. compacted chain recovery.

    Both strategies recover the deepest set of one shared archive with a
    serial engine; compaction must read strictly fewer file-store bytes
    (exactly one full set) and produce the identical models.  The
    recorded times tell the other half of the story: each compacted
    range pays the store's per-request latency, so on small-layer
    architectures a *serial* compaction can be slower than replay on
    high-latency stores — the ranges parallelize perfectly across worker
    lanes (see the main sweep's TTR column), which is where compaction
    also wins on time.
    """
    manager = MultiModelManager.with_approach("update", ArchiveConfig(profile=profile))
    set_ids: list[str] = []
    for case in cases:
        base_id = set_ids[case.base_index] if case.base_index is not None else None
        set_ids.append(
            manager.save_set(
                case.model_set, base_set_id=base_id, update_info=case.update_info
            )
        )
    context = manager.context
    replayer = MultiModelManager(UpdateApproach(context, recovery="replay"))
    compactor = MultiModelManager(UpdateApproach(context, recovery="compact"))
    replayed, replay_measurement = measure_recover(replayer, set_ids[-1])
    compacted, compact_measurement = measure_recover(compactor, set_ids[-1])
    return {
        "chain_depth": len(cases) - 1,
        "replay_file_bytes_read": replay_measurement.file_stats.bytes_read,
        "compact_file_bytes_read": compact_measurement.file_stats.bytes_read,
        "replay_ttr_s": replay_measurement.total_s,
        "compact_ttr_s": compact_measurement.total_s,
        "identical": set_digest(replayed) == set_digest(compacted),
    }


def format_report(report: dict[str, Any]) -> str:
    """Human-readable summary of a sweep report."""
    lines = [
        "Parallel scaling — {num_models} x FFNN, chain depth {chain_depth}, "
        "{profile} profile".format(**report["config"]),
    ]
    for key in (str(w) for w in report["config"]["workers"]):
        save = report["save"][key]
        recover = report["recover"][key]
        lines.append(
            f"  workers={key:>2}: chain TTS {save['chain_tts_s']:.4f}s "
            f"(U1 {save['u1_tts_s']:.4f}s), TTR {recover['ttr_s']:.4f}s"
        )
    compaction = report["compaction"]
    lines.append(
        f"  compaction: {compaction['compact_file_bytes_read']:,} bytes read "
        f"vs {compaction['replay_file_bytes_read']:,} recursive "
        f"(depth {compaction['chain_depth']})"
    )
    return "\n".join(lines)
