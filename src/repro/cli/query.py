"""Catalog verbs: the ``query`` group and ``register --rebuild``.

``query`` answers questions from the model registry — the catalog of
families, versions, tags, and the derivation DAG that
:meth:`~repro.core.manager.MultiModelManager.save_set` maintains
transactionally.  ``query diff`` reports layer-level change sets
computed purely from stored hash metadata (it reads zero parameter
bytes for Update archives and prints the storage-stats proof).

``register --rebuild`` reconstructs the registry from the archive's set
descriptors — the recovery path for archives that predate the registry
or whose catalog was lost.  On a fleet it rebuilds the single
fleet-level catalog at the root from every shard's descriptors.

Both verbs use the archive view's catalog (the plain context's registry,
or the fleet root's); they never iterate shards the way the inspection
verbs do, and refuse a fleet with missing shards.
"""

from __future__ import annotations

import argparse
import json

from repro.cli.common import ArchiveView
from repro.errors import ReproError


def _print_versions(records, as_json: bool) -> None:
    if as_json:
        print(json.dumps([record.to_json() for record in records], indent=2))
        return
    for record in records:
        base = f" <- {record.base_set}" if record.base_set else ""
        shard = f" shard={record.shard}" if record.shard is not None else ""
        print(
            f"v{record.version}  {record.set_id}  "
            f"[{record.approach}/{record.kind}] "
            f"models={record.num_models}{shard}{base}"
        )


def _print_diff(diff, reads, bytes_read, as_json: bool) -> int:
    if as_json:
        payload = diff.to_json()
        payload["parameter_reads"] = reads
        payload["parameter_bytes_read"] = bytes_read
        print(json.dumps(payload, indent=2))
        return 0
    print(
        f"diff {diff.set_a} -> {diff.set_b}: "
        f"{len(diff.changed_models)} of {diff.num_models} models changed "
        f"(source: {diff.source})"
    )
    for entry in diff.changed:
        if not entry.changed_layers:
            continue
        layers = ", ".join(entry.changed_layers)
        print(f"  model {entry.model_index}: {layers}")
    if diff.identical:
        print("  sets are byte-identical")
    print(f"parameter bytes read: {bytes_read:,} ({reads} reads)")
    return 0


def _cmd_query(view: ArchiveView, args: argparse.Namespace) -> int:
    view.require_complete("restore the shard directories before querying the registry")
    registry, contexts = view.catalog, view.contexts
    verb = args.query_command
    as_json = getattr(args, "json", False)
    if verb == "families":
        families = registry.families()
        if as_json:
            print(json.dumps(families, indent=2))
        else:
            for family in families:
                print(family)
            if not families:
                print("no families registered")
        return 0
    if verb == "versions":
        _print_versions(registry.versions(args.family), as_json)
        return 0
    if verb == "derived-from":
        derived = registry.derived_from(args.set_id, transitive=args.transitive)
        if as_json:
            print(json.dumps(derived, indent=2))
        else:
            for set_id in derived:
                print(set_id)
            if not derived:
                print(f"no sets derive from {args.set_id}")
        return 0
    if verb == "resolve":
        set_id = registry.resolve(args.family, args.tag)
        if as_json:
            print(
                json.dumps(
                    {"family": args.family, "tag": args.tag, "set_id": set_id}
                )
            )
        else:
            print(set_id)
        return 0
    if verb == "tag":
        registry.tag(args.family, args.tag, args.set_id)
        print(f"tagged {args.family}:{args.tag} -> {args.set_id}")
        return 0
    if verb == "diff":
        # Snapshot parameter-plane stats around the diff: the catalog
        # answers from stored hash metadata, so for Update archives the
        # delta proves zero parameter bytes were read.
        before = [context.file_store.stats.snapshot() for context in contexts]
        diff = registry.diff(args.set_a, args.set_b)
        deltas = [
            context.file_store.stats.delta_since(earlier)
            for context, earlier in zip(contexts, before)
        ]
        reads = sum(delta.reads for delta in deltas)
        bytes_read = sum(delta.bytes_read for delta in deltas)
        return _print_diff(diff, reads, bytes_read, as_json)
    raise ReproError(f"unknown query verb {verb!r}")  # pragma: no cover


def _cmd_register(view: ArchiveView, args: argparse.Namespace) -> int:
    if not args.rebuild:
        raise ReproError("register requires --rebuild (incremental "
                         "registration happens automatically at save time)")
    view.require_complete("a rebuild from partial shards would drop their records")
    print(f"registered {view.engine.rebuild_registry()} sets")
    return 0
