"""Content-addressed dedup benchmark: storage, TTS/TTR, and GC reclaim.

Runs the paper's default scenario (one U1 save plus three U3 update
cycles) twice per approach — chunk-layer dedup off and on — against the
same seeded model sets and the same simulated hardware profile, and
quantifies three claims:

* **storage** — with dedup on, the U3 cycles append only the chunks that
  actually changed, so parameter bytes drop sharply versus Baseline's
  full snapshots (and the *cross-model* duplicates within U1 are elided
  too);
* **time-to-save** — elided chunks cost no file-store operation, so the
  simulated TTS of the U3 cycles drops deterministically on
  transfer-dominated profiles;
* **recovery & GC** — recovered sets are byte-identical with the knob on
  or off, and after garbage-collecting everything but the newest set the
  sweep reclaims exactly the zero-reference chunk bytes.

Everything asserted on is deterministic: seeded scenario, simulated
store charges, content digests.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Any, Sequence

from repro.bench.metrics import measure_recover, measure_save
from repro.config import ArchiveConfig, ObservabilityConfig
from repro.core.manager import MultiModelManager
from repro.core.model_set import ModelSet
from repro.core.recovery import set_owns
from repro.core.retention import RetentionManager
from repro.nn.serialization import parameters_to_bytes
from repro.storage.hardware import ARCHIVE_PROFILE, HardwareProfile
from repro.workloads.scenario import MultiModelScenario, ScenarioConfig, UseCase

#: Approaches that support the dedup knob.
APPROACHES = ("baseline", "update", "baseline-fp16")


def build_cases(
    num_models: int,
    cycles: int,
    seed: int = 0,
    architecture: str = "FFNN-48",
) -> list[UseCase]:
    """U1 plus ``cycles`` U3 updates, each touching a fraction of models."""
    config = ScenarioConfig(
        num_models=num_models,
        architecture=architecture,
        num_update_cycles=cycles,
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


def _run_one(
    approach: str,
    cases: list[UseCase],
    profile: HardwareProfile,
    dedup: bool,
    workers: int,
    trace_roots: "list | None" = None,
) -> dict[str, Any]:
    """Save the scenario under one (approach, dedup) setting and measure."""
    manager = MultiModelManager.with_approach(
        approach,
        ArchiveConfig(
            profile=profile,
            workers=workers,
            dedup=dedup,
            observability=ObservabilityConfig(tracing=trace_roots is not None),
        ),
    )
    file_store = manager.context.file_store
    set_ids: list[str] = []
    u1_sim = u3_sim = 0.0
    u1_file_bytes = u3_file_bytes = 0
    for case in cases:
        base_id = set_ids[case.base_index] if case.base_index is not None else None
        before = file_store.total_bytes()
        set_id, measurement = measure_save(
            manager, case.model_set, base_set_id=base_id, update_info=case.update_info
        )
        set_ids.append(set_id)
        added = file_store.total_bytes() - before
        if case.base_index is None:
            u1_sim += measurement.simulated_s
            u1_file_bytes += added
        else:
            u3_sim += measurement.simulated_s
            u3_file_bytes += added
    recovered, recover_measurement = measure_recover(manager, set_ids[-1])
    stats = file_store.stats
    result: dict[str, Any] = {
        "file_bytes_total": file_store.total_bytes(),
        "stored_bytes_total": manager.total_stored_bytes(),
        "u1_file_bytes": u1_file_bytes,
        "u3_file_bytes": u3_file_bytes,
        "u1_simulated_tts_s": u1_sim,
        "u3_simulated_tts_s": u3_sim,
        "simulated_ttr_s": recover_measurement.simulated_s,
        "ttr_s": recover_measurement.total_s,
        "digest": set_digest(recovered),
        "chunks_total": stats.chunks_total,
        "chunks_deduped": stats.chunks_deduped,
        "dedup_ratio": stats.dedup_ratio,
    }
    if dedup:
        result["gc"] = _measure_gc(manager, set_ids)
    if trace_roots is not None:
        trace_roots.extend(manager.context.tracer.roots)
    return result


def _measure_gc(manager: MultiModelManager, set_ids: list[str]) -> dict[str, Any]:
    """Garbage-collect all but the newest set; check exact reclamation.

    The sweep must reclaim exactly the chunks referenced *only* by the
    doomed sets — no more (chunks shared with the survivor stay) and no
    less (nothing dead lingers) — and the survivor must still recover.
    """
    retention = RetentionManager(manager.context)
    chunk_store = manager.context.chunk_store()
    store = manager.context.document_store
    from repro.core.approach import SETS_COLLECTION

    survivor_digests: set[str] = set()
    doomed_digests: set[str] = set()
    for set_id in set_ids:
        document = store.peek(SETS_COLLECTION, set_id)
        matrix = set_owns(manager.context, set_id, document).matrix
        target = survivor_digests if set_id == set_ids[-1] else doomed_digests
        target.update(digest for row in matrix for digest in row)
    only_doomed = doomed_digests - survivor_digests
    predicted_chunks = len(only_doomed)
    predicted_bytes = sum(chunk_store.chunk_length(d) for d in only_doomed)

    bytes_before = chunk_store.stored_bytes()
    report = retention.collect(keep=[set_ids[-1]])
    survivor_digest = set_digest(manager.recover_set(set_ids[-1]))
    return {
        "deleted_sets": len(report.deleted_sets),
        "chunks_reclaimed": report.chunks_reclaimed,
        "predicted_chunks": predicted_chunks,
        "predicted_bytes": predicted_bytes,
        "chunk_bytes_before": bytes_before,
        "chunk_bytes_after": chunk_store.stored_bytes(),
        "dead_bytes_after": chunk_store.dead_bytes(),
        "exact": (
            report.chunks_reclaimed == predicted_chunks
            and chunk_store.stored_bytes() == bytes_before - predicted_bytes
            and chunk_store.dead_bytes() == 0
        ),
        "survivor_digest": survivor_digest,
    }


def run_dedup_benchmark(
    num_models: int = 100,
    cycles: int = 3,
    approaches: Sequence[str] = APPROACHES,
    profile: HardwareProfile = ARCHIVE_PROFILE,
    workers: int = 1,
    seed: int = 0,
    trace_path: "str | Path | None" = None,
) -> dict[str, Any]:
    """Run the on/off sweep for every approach; JSON-serializable report.

    ``trace_path`` additionally runs every sweep under span recording and
    writes one schema-conforming trace document (every ``save_set`` /
    ``recover_set`` root with its per-phase breakdown) to that path; the
    CI trace job validates it against ``benchmarks/trace_schema.json``.
    """
    cases = build_cases(num_models, cycles, seed=seed)
    trace_roots: "list | None" = [] if trace_path is not None else None
    report: dict[str, Any] = {
        "config": {
            "num_models": num_models,
            "cycles": cycles,
            "approaches": list(approaches),
            "profile": profile.name,
            "workers": workers,
            "seed": seed,
        },
        "approaches": {},
    }
    for approach in approaches:
        off = _run_one(
            approach, cases, profile, dedup=False, workers=workers,
            trace_roots=trace_roots,
        )
        on = _run_one(
            approach, cases, profile, dedup=True, workers=workers,
            trace_roots=trace_roots,
        )
        u3_off, u3_on = off["u3_file_bytes"], on["u3_file_bytes"]
        report["approaches"][approach] = {
            "off": off,
            "on": on,
            "u3_storage_reduction": 1 - u3_on / u3_off if u3_off else 0.0,
            "total_storage_reduction": (
                1 - on["file_bytes_total"] / off["file_bytes_total"]
                if off["file_bytes_total"]
                else 0.0
            ),
            "u3_simulated_tts_speedup": (
                off["u3_simulated_tts_s"] / on["u3_simulated_tts_s"]
                if on["u3_simulated_tts_s"]
                else float("inf")
            ),
            "recovery_identical": off["digest"] == on["digest"],
        }
    if trace_path is not None:
        from repro.observability import write_trace_json

        report["trace_path"] = str(
            write_trace_json(
                trace_path,
                trace_roots,
                meta={"benchmark": "dedup", **report["config"]},
            )
        )
    return report


def format_report(report: dict[str, Any]) -> str:
    """Human-readable summary of one sweep."""
    lines = [
        "Dedup chunk store — {num_models} models, {cycles} U3 cycles, "
        "{profile} profile".format(**report["config"]),
    ]
    for approach, entry in report["approaches"].items():
        off, on = entry["off"], entry["on"]
        lines.append(
            f"  {approach:>13}: file bytes {off['file_bytes_total']:,} -> "
            f"{on['file_bytes_total']:,} "
            f"(U3 reduction {entry['u3_storage_reduction']:.1%}), "
            f"U3 sim TTS x{entry['u3_simulated_tts_speedup']:.2f}, "
            f"dedup ratio {on['dedup_ratio']:.1%}, "
            f"identical={entry['recovery_identical']}"
        )
        gc = on.get("gc")
        if gc:
            lines.append(
                f"  {'':>13}  gc: {gc['chunks_reclaimed']} chunks reclaimed, "
                f"{gc['chunk_bytes_before']:,} -> {gc['chunk_bytes_after']:,} "
                f"chunk bytes, exact={gc['exact']}"
            )
    return "\n".join(lines)
