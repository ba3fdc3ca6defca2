"""Inspection and transformation verbs.

``info`` summarizes the whole archive view; ``lineage``/``verify``/
``fsck``/``scrub`` audit one shard (a plain archive is a view of one);
``history``/``export`` read through the view's engine;
``compact``/``migrate``/``stats`` read or rewrite one shard's contents;
``trace`` runs the synthetic traced update cycle.
"""

from __future__ import annotations

import argparse
import sys

from repro.cli.common import ArchiveView, _detect_approach, config_from_args
from repro.config import ArchiveConfig, ObservabilityConfig
from repro.core.approach import SETS_COLLECTION, SaveContext
from repro.core.fsck import ArchiveFsck, FsckReport, scrub_archive
from repro.core.lineage import LineageGraph, model_history
from repro.core.manager import MultiModelManager
from repro.core.migration import migrate_archive
from repro.core.retention import RetentionManager
from repro.storage.hardware import SERVER_PROFILE


def _cmd_info(view: ArchiveView, args: argparse.Namespace) -> int:
    """Summarize every shard; a fleet first prints its totals and families."""
    if view.sharded:
        print(f"fleet: {view.num} shards")
        if view.missing:
            print(f"fleet shards DOWN: {len(view.missing)}")
        print(f"fleet sets: {len(view.engine.list_sets())}")
        print(f"fleet stored bytes: {view.engine.total_stored_bytes():,}")
        families = view.catalog.families() if view.has_catalog else []
        if families:
            print(f"fleet families: {', '.join(families)}")
    return view.each(lambda index, context: _shard_info(context, view.families(index)))


def _shard_info(context: SaveContext, families: "list[str]") -> int:
    from repro.storage.chunk_index import PACKS_COLLECTION

    lineage = LineageGraph.from_context(context)
    set_ids = context.document_store.collection_ids(SETS_COLLECTION)
    print(f"sets: {len(set_ids)}")
    print(f"stored bytes: {context.total_bytes():,}")
    print(f"approach: {_detect_approach(context) or 'mixed/empty'}")
    from repro.storage.replication import replicated_stores

    file_rep, _doc_rep = replicated_stores(context)
    if file_rep is not None:
        open_breakers = sum(
            1 for entry in file_rep.health() if entry["breaker_open"]
        )
        print(
            f"replication: {len(file_rep.replicas)} replicas, "
            f"W={file_rep.write_quorum} R={file_rep.read_quorum}, "
            f"{open_breakers} breaker(s) open"
        )
    if set_ids:
        print(f"roots: {', '.join(lineage.roots())}")
        print(f"leaves: {', '.join(lineage.leaves())}")
    if families:
        print(f"families: {', '.join(families)}")
    if context.document_store.count(PACKS_COLLECTION):
        chunks = context.chunk_store()
        print(
            f"chunks: {len(chunks)} unique, {chunks.total_references():,} "
            f"references (dedup ratio {chunks.dedup_ratio():.1%})"
        )
        print(
            f"chunk bytes: {chunks.live_bytes():,} live, "
            f"{chunks.dead_bytes():,} reclaimable"
        )
    return 0


def _cmd_lineage(context: SaveContext, args: argparse.Namespace) -> int:
    lineage = LineageGraph.from_context(context)
    for set_id in context.document_store.collection_ids(SETS_COLLECTION):
        info = lineage.node_info(set_id)
        base = lineage.base_of(set_id)
        chain = lineage.chain_depth(set_id)
        parent = f" <- {base}" if base else ""
        print(
            f"{set_id}  [{info.get('approach')}/{info.get('kind')}] "
            f"models={info.get('num_models')} chain_depth={chain}{parent}"
        )
    return 0


def _cmd_verify(context: SaveContext, args: argparse.Namespace) -> int:
    """The audit with ``--deep`` adding every set's recovery: exits 0 or 1."""
    report = ArchiveFsck(context).run(deep=args.deep, recover=args.deep)
    return min(_print_audit(report, "archive is clean"), 1)


def _cmd_fsck(context: SaveContext, args: argparse.Namespace) -> int:
    report = ArchiveFsck(context).run(deep=args.deep)
    return _print_audit(report, "archive is consistent")


def _print_audit(report: FsckReport, clean: str) -> int:
    """Print one audit report, a line per finding; returns its exit code."""
    print(
        f"checked {report.sets_checked} sets, {report.artifacts_checked} "
        f"artifacts, {report.chunks_checked} chunks"
    )
    if report.ok:
        print(clean)
        return 0
    print(f"ISSUES: {report.summary()}")
    for txn in report.pending_journal:
        print(f"PENDING-TXN {txn} (reopen the archive to roll it back)")
    for entry in report.missing_artifacts:
        print(f"MISSING {entry['artifact']} (referenced by {entry['set_id']})")
    for artifact in report.orphan_artifacts:
        print(f"ORPHAN {artifact}")
    for entry in report.refcount_mismatches:
        print(
            f"REFCOUNT {entry['digest'][:16]}… expected {entry['expected']}, "
            f"ledger says {entry['actual']}"
        )
    for artifact in report.corrupt_artifacts:
        print(f"CORRUPT {artifact}")
    for digest in report.corrupt_chunks:
        print(f"CORRUPT-CHUNK {digest[:16]}…")
    for digest in report.quarantined_chunks:
        print(f"QUARANTINED {digest[:16]}…")
    for entry in report.short_packs:
        print(
            f"SHORT-PACK {entry['artifact']}: {entry['size']} bytes, its "
            f"chunks end at {entry['needs']}"
        )
    for artifact in report.degraded_artifacts:
        print(f"DEGRADED {artifact} (a clean replica copy survives; run scrub)")
    for entry in report.replica_divergence:
        if entry.get("unreachable"):
            print(f"DIVERGENT {entry['replica']}: unreachable")
            continue
        print(
            f"DIVERGENT {entry['replica']}: "
            f"{len(entry['missing_artifacts'])} missing / "
            f"{len(entry['extra_artifacts'])} extra / "
            f"{len(entry['divergent_artifacts'])} divergent artifacts, "
            f"{entry['missing_documents']} missing / "
            f"{entry['extra_documents']} extra / "
            f"{entry['divergent_documents']} divergent documents"
        )
    for issue in report.set_issues:
        print(f"ISSUE {issue}")
    return report.exit_code


def _cmd_scrub(context: SaveContext, args: argparse.Namespace) -> int:
    report = scrub_archive(context, deep=not args.shallow)
    print(report.summary())
    for replica, artifact in report.artifacts_healed:
        print(f"HEALED {replica}: {artifact}")
    for replica, artifact in report.artifacts_pruned:
        print(f"PRUNED {replica}: {artifact}")
    for artifact in report.packs_reassembled:
        print(f"REASSEMBLED {artifact}")
    for digest in report.chunks_repaired:
        print(f"CHUNK-REPAIRED {digest[:16]}…")
    for replica in report.unreachable_replicas:
        print(f"UNREACHABLE {replica} (repairs deferred to the next scrub)")
    for artifact in report.lost_artifacts:
        print(f"LOST {artifact} (no recoverable copy on any replica)")
    return report.exit_code


def _cmd_history(view: ArchiveView, args: argparse.Namespace) -> int:
    context = view.owner(args.set_id)
    engine = view.bound
    chain = LineageGraph.from_context(context).recovery_chain(args.set_id)
    history = model_history(engine, chain, args.model_index)
    print(f"model {args.model_index} across {len(chain)} generations:")
    for set_id, drift in zip(history.set_ids, history.drift_from_start):
        print(f"  {set_id}  drift={drift:.6f}")
    return 0


def _cmd_compact(context: SaveContext, args: argparse.Namespace) -> int:
    RetentionManager(context).compact(args.set_id)
    print(f"compacted {args.set_id} into a full snapshot")
    return 0


def _cmd_export(view: ArchiveView, args: argparse.Namespace) -> int:
    from repro.core.export import export_models

    view.owner(args.set_id)  # an unknown set is refused first, as by history
    manager = view.bound
    indices = args.models if args.models else None
    manifest = export_models(
        manager,
        args.set_id,
        args.output_dir,
        model_indices=indices,
        salvage=args.salvage,
    )
    if args.salvage:
        import json

        bundle = json.loads(manifest.read_text())
        exported = len(bundle["models"])
        skipped = bundle.get("salvage", {}).get("skipped", [])
        print(
            f"exported {exported} models to {args.output_dir} "
            f"(manifest: {manifest})"
        )
        for entry in skipped:
            print(f"SKIPPED model {entry['model']}: {entry['reason']}")
        return 1 if skipped else 0
    count = len(indices) if indices else manager.set_info(args.set_id)["num_models"]
    print(f"exported {count} models to {args.output_dir} (manifest: {manifest})")
    return 0


def _cmd_migrate(context: SaveContext, args: argparse.Namespace) -> int:
    target = MultiModelManager.open(
        args.target_dir, args.target_approach, ArchiveConfig(dedup=args.dedup)
    )
    report = migrate_archive(context, target)
    print(f"migrated {report.sets_migrated} sets to {args.target_dir}")
    print(
        f"storage: {report.source_bytes:,} -> {report.target_bytes:,} bytes "
        f"({report.storage_ratio:.1%})"
    )
    stats = target.context.file_store.stats
    if stats.chunks_total:
        print(
            f"chunks: {stats.chunks_total:,} written, "
            f"{stats.chunks_deduped:,} deduplicated "
            f"({stats.dedup_ratio:.1%})"
        )
    for old, new in report.id_map.items():
        print(f"  {old} -> {new}")
    return 0


def _print_serving_stats(context: SaveContext) -> None:
    serving = context.serving
    if serving is None:
        return
    counters = serving.counters()
    print(
        f"serving cache: {counters['requests']} requests, "
        f"tier-1 {counters['set_hits']} hits / {counters['set_misses']} "
        f"misses ({counters['set_hit_rate']:.1%}), "
        f"tier-2 {counters['chunk_hits']} hits / "
        f"{counters['chunk_misses']} misses "
        f"({counters['chunk_hit_rate']:.1%})"
    )
    print(
        f"  tier 1: {counters['set_cache_entries']} entries, "
        f"{counters['set_cache_bytes']:,} B, "
        f"{counters['set_cache_evictions']} evictions"
    )
    print(
        f"  tier 2: {counters['chunk_cache_entries']} chunks, "
        f"{counters['chunk_cache_bytes']:,} B, "
        f"{counters['chunk_cache_evictions']} evictions"
    )
    print(
        f"  served {counters['logical_bytes_served']:,} logical B, "
        f"saved {counters['bytes_saved']:,} B of store reads, "
        f"{counters['invalidations']} invalidations"
    )


def _cmd_stats(context: SaveContext, args: argparse.Namespace) -> int:
    if args.live:
        import json

        from repro.observability import metrics_json, prometheus_text
        from repro.observability.metrics import global_registry

        registry = context.metrics or global_registry()
        if args.format == "prometheus":
            sys.stdout.write(prometheus_text(registry))
        elif args.format == "json":
            print(json.dumps(metrics_json(registry), indent=2))
        else:
            for name, value in sorted(registry.collect().items()):
                print(f"{name} = {value}")
        return 0
    for label, stats in (
        ("file_store", context.file_store.stats),
        ("document_store", context.document_store.stats),
    ):
        snap = stats.snapshot()
        print(
            f"{label}: {snap.writes} writes ({snap.bytes_written:,} B), "
            f"{snap.reads} reads ({snap.bytes_read:,} B), "
            f"{snap.deletes} deletes ({snap.bytes_deleted:,} B), "
            f"sim {snap.simulated_write_s + snap.simulated_read_s:.6f}s"
        )
        for category, count in sorted(snap.bytes_by_category.items()):
            print(f"  {category}: {count:,} B stored")
    _print_serving_stats(context)
    return 0


def _trace_report(title: str, root, simulated_s: float) -> bool:
    """Print one trace tree + phase breakdown; True when phases sum to TTS."""
    from repro.observability import phase_breakdown, render_tree

    print(f"== {title} ==")
    print(render_tree(root))
    phases = phase_breakdown(root)
    total = sum(phases.values())
    for phase, seconds in phases.items():
        print(f"  phase {phase:<12} {seconds * 1000:10.6f} ms")
    print(f"  phase sum          {total * 1000:10.6f} ms")
    print(f"  simulated total    {simulated_s * 1000:10.6f} ms")
    ok = abs(total - simulated_s) <= 1e-9
    if not ok:
        print(
            f"  MISMATCH: phases sum to {total!r}, "
            f"stats charged {simulated_s!r}"
        )
    return ok


def _cmd_trace(args: argparse.Namespace) -> int:
    """Synthetic U3 update cycle under tracing (ignores the directory).

    Builds a fresh in-memory archive from the global flags (``--profile``
    defaults to ``server`` here so store operations charge nonzero
    simulated latency), saves an initial set, perturbs one model and
    saves the derived set, recovers it — then prints both span trees and
    checks that each trace's per-phase simulated times sum exactly to the
    simulated TTS/TTR the storage stats charged.
    """
    import numpy as np

    from repro.bench.metrics import measure_recover, measure_save
    from repro.core.model_set import ModelSet
    from repro.observability import write_trace_json

    config = config_from_args(args)
    if getattr(args, "profile_name", None) is None:
        config = config.with_(profile=SERVER_PROFILE)
    config = config.with_(
        observability=ObservabilityConfig(
            tracing=True, trace_path=config.observability.trace_path
        )
    )
    if args.replica_down and (config.replicas or 1) < 2:
        print("error: --replica-down needs --replicas >= 2", file=sys.stderr)
        return 2
    manager = MultiModelManager.with_approach("update", config)
    context = manager.context
    if args.replica_down:
        from repro.storage.faults import FaultInjector, inject_replica_faults

        inject_replica_faults(
            context,
            config.replicas - 1,
            FaultInjector(down_at=0, down_mode="before"),
        )
        print(f"replica-{config.replicas - 1} is down for the whole cycle")

    models = ModelSet.build("FFNN-48", num_models=args.models, seed=0)
    base_id = manager.save_set(models)
    derived = models.copy()
    layer_names = models.schema.layer_names()
    for name in (layer_names[0], layer_names[-1]):
        derived.state(1)[name] = (derived.state(1)[name] + 0.5).astype(
            np.float32
        )

    context.tracer.clear()
    set_id, save_measurement = measure_save(
        manager, derived, base_set_id=base_id
    )
    save_root = context.tracer.last_root
    recovered, recover_measurement = measure_recover(manager, set_id)
    recover_root = context.tracer.last_root

    print(
        f"U3 update cycle: {base_id} -> {set_id} "
        f"({args.models} models, workers={config.workers}, "
        f"replicas={config.replicas or 1})"
    )
    ok = _trace_report(
        f"save_set {set_id} (TTS {save_measurement.total_s:.6f}s = "
        f"{save_measurement.real_s:.6f}s real + "
        f"{save_measurement.simulated_s:.6f}s simulated)",
        save_root,
        save_measurement.simulated_s,
    )
    ok &= _trace_report(
        f"recover_set {set_id} (TTR {recover_measurement.total_s:.6f}s = "
        f"{recover_measurement.real_s:.6f}s real + "
        f"{recover_measurement.simulated_s:.6f}s simulated)",
        recover_root,
        recover_measurement.simulated_s,
    )
    if not recovered.equals(derived):
        print("MISMATCH: recovered set differs from the saved one")
        ok = False
    if config.observability.trace_path:
        path = write_trace_json(
            config.observability.trace_path,
            context.tracer.roots,
            meta={
                "workers": config.workers,
                "replicas": config.replicas or 1,
                "replica_down": bool(args.replica_down),
                "num_models": args.models,
            },
        )
        print(f"trace written to {path}")
    return 0 if ok else 1
