"""Argument parsing and the one dispatcher of ``repro-archive``.

The parser is assembled here; the verb implementations live in the
sibling modules (:mod:`repro.cli.archive`, :mod:`repro.cli.maintenance`,
:mod:`repro.cli.fleet`, :mod:`repro.cli.query`).  ``trace`` runs before
any archive is opened; every other verb runs against the archive view
(:func:`repro.cli.common.open_view`), where a plain archive is the
engine's one shard rooted at its own directory.  Each verb is written once:
inspection verbs loop over the shards, set-addressed verbs go to the
owning shard, and the whole-view verbs (``info``, ``gc``, ``maintain``,
``warm``, ``query``, ``register``, ``deadletter``) take the view.
"""

from __future__ import annotations

import argparse
import sys

from repro.cli.archive import (
    _cmd_compact,
    _cmd_export,
    _cmd_fsck,
    _cmd_history,
    _cmd_info,
    _cmd_lineage,
    _cmd_migrate,
    _cmd_scrub,
    _cmd_stats,
    _cmd_trace,
    _cmd_verify,
)
from repro.cli.common import PROFILES, ArchiveView, config_from_args, open_view
from repro.cli.fleet import _cmd_deadletter
from repro.cli.maintenance import _cmd_evict, _gc, _maintain, _warm
from repro.cli.query import _cmd_query, _cmd_register
from repro.core.manager import APPROACHES
from repro.errors import ReproError

#: Whole-view verbs that run on a degraded fleet (the catalog verbs
#: refuse one themselves, with their own reason).
_DEGRADED_OK = {
    "info": _cmd_info,
    "query": _cmd_query,
    "register": _cmd_register,
    "deadletter": _cmd_deadletter,
}
#: Per-shard inspection verbs: a missing shard prints DOWN.
_INSPECTION = {
    "lineage": _cmd_lineage,
    "verify": _cmd_verify,
    "fsck": _cmd_fsck,
    "scrub": _cmd_scrub,
    "stats": _cmd_stats,
}
#: Whole-view verbs that need every shard.
_WHOLE = {
    "gc": _gc, "maintain": _maintain, "warm": _warm,
    "history": _cmd_history, "export": _cmd_export,
}
#: Verbs run once per shard (``migrate`` merges every shard into one
#: target: fleet ids are unique, so per-shard migration cannot collide).
_EACH = {"evict": _cmd_evict, "migrate": _cmd_migrate}


def _keep_count(text: str) -> int:
    """``--keep-last`` values: a count of sets, at least one."""
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-archive", description="Operate a durable model archive."
    )
    parser.add_argument("directory", help="archive root directory")
    parser.add_argument(
        "--approach",
        default=None,
        help="override the auto-detected approach (needed for mixed archives)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="parallelism of the save/recover engine (1 serial, 0 = one "
        "lane per CPU); results are byte-identical at any setting",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help="partition the archive across N independent shard subtrees "
        "operated as one fleet (default: auto-detect the existing "
        "shard-<i>/ topology)",
    )
    parser.add_argument(
        "--replicas",
        type=int,
        default=None,
        help="replicate the archive across N backend subtrees (default: "
        "auto-detect the existing topology); composes under sharding — "
        "each shard carries its own replicas",
    )
    parser.add_argument(
        "--write-quorum",
        type=int,
        default=None,
        help="replica acknowledgements a write needs (default: majority)",
    )
    parser.add_argument(
        "--read-quorum",
        type=int,
        default=None,
        help="replicas a consistent document read polls (default: N-W+1)",
    )
    parser.add_argument(
        "--profile",
        dest="profile_name",
        choices=sorted(PROFILES),
        default=None,
        help="simulated-latency hardware profile charged per store "
        "operation (default: local, which charges zero)",
    )
    parser.add_argument(
        "--dedup",
        action="store_true",
        help="route parameter writes through the content-addressed chunk "
        "layer",
    )
    parser.add_argument(
        "--no-journal",
        action="store_true",
        help="skip the write-ahead save journal (saves are no longer "
        "atomic under crashes)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="retry transiently failing store operations up to N times "
        "with exponential backoff",
    )
    parser.add_argument(
        "--serve-cache",
        action="store_true",
        help="serve reads through the tiered recovery cache (implied by "
        "the warm and evict verbs)",
    )
    parser.add_argument(
        "--set-cache-bytes",
        type=int,
        default=None,
        metavar="N",
        help="tier-1 budget: bytes of materialized model sets kept hot",
    )
    parser.add_argument(
        "--chunk-cache-bytes",
        type=int,
        default=None,
        metavar="N",
        help="tier-2 budget: bytes of decoded chunks shared across sets",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="record hierarchical spans for whatever command runs",
    )
    parser.add_argument(
        "--trace-json",
        default=None,
        metavar="PATH",
        help="write the recorded trace as a schema-validated JSON "
        "document (implies --trace)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("info", help="summarize the archive")
    subparsers.add_parser("lineage", help="print the derivation chains")

    verify = subparsers.add_parser(
        "verify", help="audit the archive as fsck does, exiting 0 (clean) or 1"
    )
    verify.add_argument(
        "--deep",
        action="store_true",
        help="also re-hash every stored byte and recover every set against "
        "its stored hash info",
    )

    fsck = subparsers.add_parser(
        "fsck", help="audit the archive (journal, references, orphans, refcounts, "
        "set descriptors)"
    )
    fsck.add_argument(
        "--deep",
        action="store_true",
        help="also re-hash every artifact and chunk against its checksum",
    )

    scrub = subparsers.add_parser(
        "scrub",
        help="anti-entropy pass: converge every replica onto the majority "
        "state and heal missing/corrupt copies",
    )
    scrub.add_argument(
        "--shallow",
        action="store_true",
        help="trust recorded digests instead of re-hashing every copy "
        "(misses torn writes)",
    )

    history = subparsers.add_parser("history", help="one model's drift over time")
    history.add_argument("set_id")
    history.add_argument("model_index", type=int)

    compact = subparsers.add_parser(
        "compact", help="rewrite a derived set as a full snapshot"
    )
    compact.add_argument("set_id")

    gc = subparsers.add_parser("gc", help="garbage-collect old sets")
    group = gc.add_mutually_exclusive_group(required=True)
    group.add_argument("--keep-last", type=_keep_count, default=None)
    group.add_argument("--keep", nargs="+", default=None, metavar="SET_ID")

    maintain = subparsers.add_parser(
        "maintain",
        help="run background-maintenance passes: retention GC, chunk "
        "sweep, and delta-chain compaction as one atomic journal txn "
        "per shard, then repair-queue draining and an anti-entropy "
        "scrub",
    )
    maintain.add_argument(
        "--cycles",
        type=int,
        default=1,
        metavar="N",
        help="maintenance passes to run (default: one)",
    )
    maintain.add_argument(
        "--keep-last",
        type=_keep_count,
        default=None,
        metavar="K",
        help="retention policy: keep the newest K sets fleet-wide "
        "(default: no GC)",
    )
    maintain.add_argument(
        "--compact-depth",
        type=int,
        default=None,
        metavar="D",
        help="compact kept delta chains at or beyond this recovery depth "
        "(default: only the retention policy's chain cut)",
    )
    maintain.add_argument(
        "--no-scrub",
        action="store_true",
        help="skip the anti-entropy scrub passes",
    )
    maintain.add_argument(
        "--deep",
        action="store_true",
        help="re-hash every replica copy during the scrub (catches torn "
        "writes; default trusts recorded digests)",
    )

    export = subparsers.add_parser(
        "export", help="write models as a self-contained deployment bundle"
    )
    export.add_argument("set_id")
    export.add_argument("output_dir")
    export.add_argument(
        "--models", nargs="+", type=int, default=None, metavar="INDEX"
    )
    export.add_argument(
        "--salvage",
        action="store_true",
        help="tolerate corruption: export every model that still verifies "
        "and record the skipped ones in the manifest",
    )

    migrate = subparsers.add_parser(
        "migrate", help="re-encode the archive under another approach"
    )
    migrate.add_argument("target_dir")
    migrate.add_argument(
        "--target-approach",
        default="update",
        choices=[n for n in sorted(APPROACHES) if n != "provenance"],
    )
    migrate.add_argument(
        "--dedup",
        action="store_true",
        help="store the target archive through the content-addressed "
        "chunk layer (identical layer tensors stored once)",
    )

    warm = subparsers.add_parser(
        "warm", help="pre-materialize sets into the serving cache"
    )
    warm.add_argument("set_ids", nargs="*", metavar="SET_ID")
    warm.add_argument(
        "--all", action="store_true", help="warm every set in the archive"
    )

    evict = subparsers.add_parser(
        "evict", help="drop serving-cache entries"
    )
    evict.add_argument(
        "set_ids",
        nargs="*",
        metavar="SET_ID",
        help="sets to drop from tier 1 (default: all of them)",
    )
    evict.add_argument(
        "--chunks",
        action="store_true",
        help="also empty the tier-2 decoded-chunk cache",
    )

    stats = subparsers.add_parser(
        "stats", help="storage accounting and metrics-registry export"
    )
    stats.add_argument(
        "--live",
        action="store_true",
        help="export through the process-wide metrics registry instead "
        "of printing a static storage summary",
    )
    stats.add_argument(
        "--format",
        choices=["human", "json", "prometheus"],
        default="human",
        help="registry export format for --live",
    )

    deadletter = subparsers.add_parser(
        "deadletter",
        help="inspect, replay, or purge dead-lettered ingest batches "
        "(fleet archives only)",
    )
    deadletter.add_argument(
        "action",
        choices=["list", "replay", "purge"],
        help="list parked batches, replay them through the normal ingest "
        "path, or drop them",
    )
    deadletter.add_argument(
        "--shard",
        type=int,
        default=None,
        metavar="I",
        help="restrict to entries parked for shard I",
    )
    deadletter.add_argument(
        "--ids",
        nargs="+",
        default=None,
        metavar="ENTRY_ID",
        help="purge only these entry ids",
    )

    trace = subparsers.add_parser(
        "trace",
        help="run a traced synthetic U3 update cycle in memory and print "
        "the span tree (the archive directory is not touched)",
    )
    trace.add_argument(
        "--models",
        type=int,
        default=4,
        metavar="N",
        help="models in the synthetic set",
    )
    trace.add_argument(
        "--replica-down",
        action="store_true",
        help="take the last replica down for the whole cycle (needs "
        "--replicas >= 2) to show degraded-mode traces",
    )

    query = subparsers.add_parser(
        "query",
        help="answer catalog questions from the model registry: "
        "families, versions, tags, derivation, layer-level diffs",
    )
    qsub = query.add_subparsers(dest="query_command", required=True)

    qfamilies = qsub.add_parser("families", help="list registered model families")
    qfamilies.add_argument("--json", action="store_true")

    qversions = qsub.add_parser(
        "versions", help="list a family's versions in save order"
    )
    qversions.add_argument("family")
    qversions.add_argument("--json", action="store_true")

    qderived = qsub.add_parser(
        "derived-from", help="sets saved with this set as their base"
    )
    qderived.add_argument("set_id")
    qderived.add_argument(
        "--transitive",
        action="store_true",
        help="follow the derivation DAG to every descendant",
    )
    qderived.add_argument("--json", action="store_true")

    qdiff = qsub.add_parser(
        "diff",
        help="layer-level change sets between two versions, computed "
        "from stored hash metadata without reading parameter bytes",
    )
    qdiff.add_argument("set_a")
    qdiff.add_argument("set_b")
    qdiff.add_argument("--json", action="store_true")

    qresolve = qsub.add_parser(
        "resolve", help="the set id a family tag points at"
    )
    qresolve.add_argument("family")
    qresolve.add_argument("tag", nargs="?", default="latest")
    qresolve.add_argument("--json", action="store_true")

    qtag = qsub.add_parser("tag", help="pin a named tag to a family version")
    qtag.add_argument("family")
    qtag.add_argument("tag")
    qtag.add_argument("set_id")

    register = subparsers.add_parser(
        "register",
        help="rebuild the registry from the archive's set descriptors "
        "(fleets rebuild the single root-level catalog)",
    )
    register.add_argument(
        "--rebuild",
        action="store_true",
        help="drop the current catalog and re-derive it from stored "
        "metadata (required; registration is otherwise automatic)",
    )
    return parser


def _run(view: ArchiveView, args: argparse.Namespace) -> int:
    command = args.command
    if command in _DEGRADED_OK:
        return _DEGRADED_OK[command](view, args)
    if command == "stats" and args.live:
        # The metrics registry is process-wide: one export covers every shard.
        return _cmd_stats(view.contexts[0], args)
    if command in _INSPECTION:
        return view.each(lambda _index, context: _INSPECTION[command](context, args))
    view.require_complete(
        "only the per-shard inspection verbs (info/lineage/verify/fsck/scrub/"
        "stats) run against a degraded fleet — restore the missing shard "
        "directories first"
    )
    if command in _WHOLE:
        return _WHOLE[command](view, args)
    if command == "compact":
        return _cmd_compact(view.owner(args.set_id), args)
    return view.each(
        lambda _index, context: _EACH[command](context, args),
        banner=command != "migrate",
    )


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "trace":
            return _cmd_trace(args)
        config = config_from_args(args)
        view = open_view(args.directory, config, args.approach)
        result = _run(view, args)
    except (ReproError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    trace_path = config.observability.trace_path
    tracer = view.contexts[0].tracer if view.contexts else None
    if trace_path and tracer is not None and tracer.roots:
        from repro.observability import write_trace_json

        meta = {"command": args.command}
        if view.sharded:
            meta["shards"] = view.num
        print(f"trace written to {write_trace_json(trace_path, tracer.roots, meta=meta)}")
    return result
