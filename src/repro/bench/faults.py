"""Fault-injection benchmark: crash matrix, retry overhead, salvage yield.

Quantifies the robustness subsystem the way the storage benchmarks
quantify cost, with everything driven from seeded fault schedules so the
numbers are reproducible run to run:

* **crash matrix** — for each approach (dedup off and on), enumerate the
  mutating operations of a derived save with a dry run, then kill the
  save at every one of them and check that journal recovery lands the
  archive back on the previous consistent state (prior set byte-identical,
  fsck clean);
* **retry resilience** — run the save workload under a seeded transient
  error rate with the exponential-backoff retry policy attached, and
  report how many retries fired and how much simulated backoff latency
  they charged;
* **salvage yield** — corrupt a single chunk of a deduplicated set and
  report exactly how many models the corruption-tolerant recovery still
  returns (all but the one model referencing the chunk).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.config import ArchiveConfig
from repro.core.approach import SaveContext
from repro.core.fsck import ArchiveFsck
from repro.core.manager import MultiModelManager
from repro.core.model_set import ModelSet
from repro.errors import SimulatedCrashError, TransientStorageError
from repro.storage.faults import (
    FaultInjector,
    RetryPolicy,
    attach_retries,
    corrupt_artifact,
    inject_faults,
)
from repro.storage.journal import attach_journal

#: Approaches swept by the crash matrix (all journaled save paths).
APPROACHES = ("baseline", "update", "mmlib-base", "pas-delta", "baseline-fp16")


def _make_manager(approach: str, dedup: bool) -> MultiModelManager:
    context = SaveContext.create(ArchiveConfig(dedup=dedup))
    attach_journal(context)
    return MultiModelManager.with_approach(approach, context=context)


def _model_sets(num_models: int, seed: int = 0):
    models = ModelSet.build("FFNN-48", num_models=num_models, seed=seed)
    derived = models.copy()
    derived.state(0)["0.bias"][:] += 1.0
    derived.state(num_models - 1)["4.weight"][:] *= 1.25
    return models, derived


def crash_matrix_entry(
    approach: str, dedup: bool, num_models: int, seed_base: int
) -> dict:
    """Kill one derived save at every fault point; count clean recoveries."""
    models, derived = _model_sets(num_models)

    probe = _make_manager(approach, dedup)
    probe_base = probe.save_set(models)
    injector = inject_faults(probe.context, FaultInjector())
    probe.save_set(derived, base_set_id=probe_base)
    ops = injector.ops
    ref_base = probe.recover_set(probe_base)

    consistent = 0
    for point in range(ops):
        manager = _make_manager(approach, dedup)
        base_id = manager.save_set(models)
        inject_faults(
            manager.context,
            FaultInjector(seed=seed_base + point, crash_at=point),
        )
        try:
            manager.save_set(derived, base_set_id=base_id)
        except SimulatedCrashError:
            pass
        report = manager.context.journal.recover()
        if (
            not report.clean
            and manager.list_sets() == [base_id]
            and manager.recover_set(base_id).equals(ref_base)
            and ArchiveFsck(manager.context).run().ok
        ):
            consistent += 1
    return {"fault_points": ops, "consistent_recoveries": consistent}


def retry_entry(
    num_models: int,
    seed: int,
    transient_rate: float = 0.1,
    attempts: int = 6,
) -> dict:
    """One save workload under seeded transient faults with retries on."""
    models, derived = _model_sets(num_models)
    context = SaveContext.create()
    attach_journal(context)
    inject_faults(context, FaultInjector(seed=seed, transient_rate=transient_rate))
    attach_retries(context, RetryPolicy(attempts=attempts))
    manager = MultiModelManager.with_approach("update", context=context)
    try:
        base_id = manager.save_set(models)
        derived_id = manager.save_set(derived, base_set_id=base_id)
        recovered = manager.recover_set(derived_id).equals(derived)
        succeeded = True
    except TransientStorageError:
        recovered = False
        succeeded = False
    stats = context.file_store.stats
    doc_stats = context.document_store.stats
    return {
        "seed": seed,
        "transient_rate": transient_rate,
        "succeeded": succeeded,
        "recovery_identical": recovered,
        "retries": stats.retries + doc_stats.retries,
        "simulated_retry_s": round(
            stats.simulated_retry_s + doc_stats.simulated_retry_s, 6
        ),
    }


def salvage_entry(num_models: int) -> dict:
    """Corrupt one chunk of a dedup set; count the models salvage saves."""
    from repro.core.recovery import digest_matrix

    models, derived = _model_sets(num_models)
    manager = _make_manager("update", dedup=True)
    context = manager.context
    base_id = manager.save_set(models)
    derived_id = manager.save_set(derived, base_set_id=base_id)

    document = manager.set_info(derived_id)
    matrix = digest_matrix(context, document, derived_id)
    base_matrix = digest_matrix(
        context, manager.set_info(base_id), base_id
    )
    others = {digest for row in base_matrix for digest in row}
    others.update(
        digest for index, row in enumerate(matrix) if index != 0 for digest in row
    )
    victim = next(digest for digest in matrix[0] if digest not in others)
    chunk = context.chunk_store()._chunks[victim]
    corrupt_artifact(context.file_store, chunk.artifact_id, offset=chunk.offset)
    context._invalidate_chunk_store()

    report = manager.recover_set(derived_id, salvage=True)
    return {
        "num_models": num_models,
        "corrupt_chunks": len(report.corrupt_chunks),
        "models_recovered": len(report.models),
        "models_lost": report.failed_indices,
        "base_set_complete": manager.recover_set(base_id, salvage=True).complete,
    }


def run_fault_benchmark(
    num_models: int = 10, seeds: tuple = (7, 9), seed_base: int = 0
) -> dict:
    """The full robustness report (crash matrix + retries + salvage)."""
    report: dict = {
        "num_models": num_models,
        "seeds": list(seeds),
        "crash_matrix": {},
        "retries": [retry_entry(num_models, seed) for seed in seeds],
        "salvage": salvage_entry(num_models),
    }
    for approach in APPROACHES:
        for dedup in (False, True):
            key = f"{approach}{'+dedup' if dedup else ''}"
            report["crash_matrix"][key] = crash_matrix_entry(
                approach, dedup, num_models, seed_base
            )
    return report


def format_report(report: dict) -> str:
    lines = [
        f"fault injection @ {report['num_models']} models",
        "crash matrix (derived save, kill at every mutating op):",
    ]
    for key, entry in report["crash_matrix"].items():
        lines.append(
            f"  {key:24s} {entry['consistent_recoveries']:3d}/"
            f"{entry['fault_points']:3d} fault points recover consistent"
        )
    lines.append("retry resilience (transient faults + backoff):")
    for entry in report["retries"]:
        status = "ok" if entry["succeeded"] else "EXHAUSTED"
        lines.append(
            f"  seed {entry['seed']:<6d} {status:9s} retries={entry['retries']} "
            f"backoff={entry['simulated_retry_s']:.3f}s"
        )
    salvage = report["salvage"]
    lines.append(
        f"salvage: 1 corrupt chunk -> {salvage['models_recovered']}/"
        f"{salvage['num_models']} models recovered, lost {salvage['models_lost']}"
    )
    return "\n".join(lines)


def write_report(report: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2) + "\n")
