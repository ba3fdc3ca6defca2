"""Retention and cache-maintenance verbs: ``gc``/``maintain``/``warm``/``evict``.

``gc`` applies a retention policy once; ``maintain`` runs scheduler
passes (retention, compaction, chunk sweep, scrub) as atomic journal
transactions; ``warm``/``evict`` manage the tiered serving cache.
``gc``, ``maintain`` and ``warm`` take the whole archive view (a plain
archive is a view of one shard); ``evict`` runs per shard.
"""

from __future__ import annotations

import argparse
from itertools import chain

from repro.cli.common import ArchiveView
from repro.core.approach import SETS_COLLECTION, SaveContext
from repro.core.retention import RetentionManager, older_than_newest
from repro.errors import DocumentNotFoundError, ReproError


def _gc(view: ArchiveView, args: argparse.Namespace) -> int:
    """Apply one retention decision to every shard of the view.

    ``--keep-last K`` retires everything older than the newest K sets
    across every shard (ids are fleet-ordered); ``--keep`` keeps the named
    sets plus the chains they need, checked against every shard before
    anything is deleted.  Each shard's pass records itself in the catalog.
    """
    contexts = view.contexts
    listings = [
        context.document_store.collection_ids(SETS_COLLECTION)
        for context in contexts
    ]
    if args.keep_last is not None:
        doomed = older_than_newest(args.keep_last, listings)
        reports = [RetentionManager(context).retire(doomed) for context in contexts]
    else:
        held = set(chain.from_iterable(listings))
        unknown = [set_id for set_id in args.keep if set_id not in held]
        if unknown:
            raise DocumentNotFoundError(f"keep list references unknown sets {unknown}")
        reports = [
            RetentionManager(context).collect(
                keep=[set_id for set_id in shard_ids if set_id in args.keep]
            )
            for context, shard_ids in zip(contexts, listings)
        ]

    def gathered(name: str) -> list[str]:
        return sorted(chain.from_iterable(getattr(report, name) for report in reports))

    deleted, retained = gathered("deleted_sets"), gathered("retained_for_chains")
    print(f"deleted {len(deleted)} sets")
    for set_id in deleted:
        print(f"  - {set_id}")
    if retained:
        print(f"retained for recovery chains: {retained}")
    chunks = sum(report.chunks_reclaimed for report in reports)
    if chunks:
        print(f"swept {chunks} zero-reference chunks")
    print(f"reclaimed {sum(report.bytes_reclaimed for report in reports):,} bytes")
    return 0


def _maintain(view: ArchiveView, args: argparse.Namespace) -> int:
    """Run ``--cycles`` maintenance passes over every shard of the view.

    Each pass runs every shard's mutating tasks (compaction, GC, chunk
    sweep) as one atomic journal transaction, then drains replica repair
    queues and scrubs.  Exit follows the 0/1/2 contract across all
    cycles: 0 — nothing needed doing, 1 — maintenance did work
    (reclaimed, compacted, healed), 2 — a scrub found unrecoverable
    data.
    """
    from repro.config import MaintenanceConfig
    from repro.maintenance import MaintenanceScheduler

    config = MaintenanceConfig(
        enabled=True,
        gc_keep_last=args.keep_last,
        compact_chain_depth=args.compact_depth,
        scrub=not args.no_scrub,
        scrub_deep=bool(args.deep),
    )
    scheduler = MaintenanceScheduler.for_manager(view.engine, config=config)
    worst = 0
    for cycle in range(args.cycles):
        report = scheduler.run_pass()
        worst = max(worst, report.exit_code)
        for entry in report.shards:
            line = (
                f"pass {cycle} {entry.shard}: "
                f"deleted {entry.sets_deleted} set(s), "
                f"compacted {entry.sets_compacted}, "
                f"reclaimed {entry.bytes_reclaimed:,} bytes"
            )
            if entry.chunks_swept:
                line += f", swept {entry.chunks_swept} chunk(s)"
            if entry.repairs_drained:
                line += f", drained {entry.repairs_drained} repair(s)"
            if entry.scrubbed:
                line += f", scrub exit {entry.scrub_exit}"
            print(line)
            for artifact in entry.lost_artifacts:
                print(f"  LOST: {artifact}")
    return worst


def _warm(view: ArchiveView, args: argparse.Namespace) -> int:
    """Warm each named set on the shard owning it; ``--all`` warms every shard."""
    if args.all:
        return view.each(lambda index, _context: _cmd_warm(view, index, args))
    owned: dict[int, list[str]] = {}
    for set_id in args.set_ids:
        owned.setdefault(view.engine.shard_of(set_id), []).append(set_id)
    return max(
        (
            _cmd_warm(view, index, argparse.Namespace(**{**vars(args), "set_ids": set_ids}))
            for index, set_ids in owned.items()
        ),
        default=0,
    )


def _cmd_warm(view: ArchiveView, index: int, args: argparse.Namespace) -> int:
    shard = view.bound.shards[index]
    serving = shard.context.serving
    if serving is None:  # pragma: no cover - warm implies --serve-cache
        raise ReproError("serving cache is disabled; pass --serve-cache")
    if args.all:
        set_ids = shard.list_sets()
    else:
        set_ids = args.set_ids
    summary = serving.warm(set_ids, shard.approach)
    print(f"warmed {len(summary['warmed'])} sets into the serving cache")
    for set_id in summary["warmed"]:
        print(f"  - {set_id}")
    print(
        f"tier 1 now holds {summary['set_cache_entries']} entries "
        f"({summary['set_cache_bytes']:,} B), tier 2 "
        f"{summary['chunk_cache_entries']} chunks "
        f"({summary['chunk_cache_bytes']:,} B)"
    )
    return 0


def _cmd_evict(context: SaveContext, args: argparse.Namespace) -> int:
    serving = context.serving
    if serving is None:  # pragma: no cover - evict implies --serve-cache
        raise ReproError("serving cache is disabled; pass --serve-cache")
    summary = serving.evict(
        set_ids=args.set_ids or None, chunks=args.chunks
    )
    print(f"evicted {summary['evicted_sets']} set entries")
    if args.chunks:
        print(f"evicted {summary['evicted_chunks']} cached chunks")
    return 0
