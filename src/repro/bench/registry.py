"""Registry query benchmark: catalog latency over a long version chain.

Builds an in-memory update-approach archive with one synthetic family of
``versions`` delta saves (each perturbing a single layer, the shape a
long fine-tuning run leaves behind), then times the public query surface
— ``families`` / ``versions`` / ``resolve`` / ``derived_from`` /
``diff`` — against the populated catalog.

The headline claim measured here is the one the registry exists for:
``diff`` answers layer-level change sets from stored hash metadata with
**zero parameter-byte reads**, no matter how long the chain is.  The
report carries the file-store stats delta observed around the diff calls
so the benchmark (and CI) can assert it, not just state it.
"""

import statistics
import time
from typing import Any

from repro.core.manager import MultiModelManager
from repro.core.model_set import ModelSet
from repro.core.save_info import SetMetadata

FAMILY = "bench"


def _build_chain(
    versions: int, num_models: int, architecture: str
) -> tuple[MultiModelManager, list[str]]:
    manager = MultiModelManager.with_approach("update")
    models = ModelSet.build(architecture, num_models=num_models, seed=0)
    names = models.schema.layer_names()
    set_ids = [
        manager.save_set(models, metadata=SetMetadata(extra={"family": FAMILY}))
    ]
    for step in range(versions - 1):
        models = models.copy()
        state = models.state(step % num_models)
        name = names[step % len(names)]
        state[name] = (state[name] + 0.25).astype(state[name].dtype)
        set_ids.append(manager.save_set(models, base_set_id=set_ids[-1]))
    return manager, set_ids


def _timed(fn, repeats: int) -> dict[str, float]:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) * 1e3)
    return {
        "mean_ms": statistics.fmean(samples),
        "p50_ms": statistics.median(samples),
        "max_ms": max(samples),
    }


def run_registry_benchmark(
    versions: int = 500,
    num_models: int = 4,
    architecture: str = "FFNN-48",
    repeats: int = 25,
) -> dict[str, Any]:
    build_start = time.perf_counter()
    manager, set_ids = _build_chain(versions, num_models, architecture)
    build_s = time.perf_counter() - build_start
    registry = manager.context.registry
    root, head = set_ids[0], set_ids[-1]
    mid = set_ids[len(set_ids) // 2]

    queries = {
        "families": lambda: registry.families(),
        "versions": lambda: registry.versions(FAMILY),
        "resolve_latest": lambda: registry.resolve(FAMILY),
        "derived_from_transitive": lambda: registry.derived_from(
            root, transitive=True
        ),
        "diff_adjacent": lambda: registry.diff(mid, head),
        "diff_root_to_head": lambda: registry.diff(root, head),
    }

    # Stats delta around the diff timing loops proves the layer-level
    # change sets come from stored hashes, not recovered parameters.
    before = manager.context.file_store.stats.snapshot()
    latency = {name: _timed(fn, repeats) for name, fn in queries.items()}
    delta = manager.context.file_store.stats.delta_since(before)

    head_diff = registry.diff(root, head)
    return {
        "config": {
            "versions": versions,
            "num_models": num_models,
            "architecture": architecture,
            "repeats": repeats,
        },
        "build_s": build_s,
        "catalog": {
            "families": len(registry.families()),
            "versions_in_family": len(registry.versions(FAMILY)),
            "resolved_latest": registry.resolve(FAMILY),
        },
        "diff_root_to_head": {
            "source": head_diff.source,
            "models_changed": len(head_diff.changed),
        },
        "latency": latency,
        "stats": {
            "parameter_reads": delta.reads,
            "parameter_bytes_read": delta.bytes_read,
        },
    }


def format_report(report: dict[str, Any]) -> str:
    """Human-readable registry-latency summary."""
    config = report["config"]
    stats = report["stats"]
    lines = [
        "Registry queries — {versions}-version {architecture} family "
        "x {num_models} models ({repeats} repeats)".format(**config),
        "",
        f"build      : {report['build_s']:.2f}s to save the chain",
        f"diff       : root->head touches "
        f"{report['diff_root_to_head']['models_changed']} models "
        f"(source: {report['diff_root_to_head']['source']}), "
        f"{stats['parameter_bytes_read']:,} parameter bytes read "
        f"({stats['parameter_reads']} reads)",
    ]
    for name, timing in sorted(report["latency"].items()):
        lines.append(
            f"{name:<24}: p50 {timing['p50_ms']:.2f}ms  "
            f"mean {timing['mean_ms']:.2f}ms  max {timing['max_ms']:.2f}ms"
        )
    return "\n".join(lines)
