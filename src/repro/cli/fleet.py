"""Fleet (sharded-archive) dispatch for the ``repro-archive`` verbs.

A fleet layout (``shard-<i>/`` subtrees) routes every verb through
:func:`_run_fleet`: inspection verbs iterate the shards and aggregate
the worst exit code, set-addressed verbs route to the owning shard, and
``gc``/``maintain`` apply one fleet-wide policy decision.  The
``deadletter`` verb group (parked ingest batches) is fleet-only and
handled by :func:`_cmd_deadletter`.
"""

from __future__ import annotations

import argparse

from repro.cli.archive import _cmd_stats
from repro.cli.common import _detect_approach
from repro.cli.maintenance import _cmd_warm, _gc, _maintain
from repro.config import ArchiveConfig, ObservabilityConfig
from repro.core.approach import SETS_COLLECTION, SaveContext
from repro.errors import ReproError
from repro.storage.persistent import open_context

#: Verbs that run once per shard and aggregate the worst exit code.
_FLEET_ITERATED = {"info", "lineage", "verify", "fsck", "scrub", "stats"}
#: Verbs addressed by set id, routed to the shard owning the set.
_FLEET_ROUTED = {"history", "compact", "export"}


def _fleet_shard_count(directory: str, config: ArchiveConfig) -> int:
    """Shards to open: detected layout, ``--shards``, or their agreement."""
    from repro.storage.persistent import detect_shards

    detected = detect_shards(directory)
    if config.shards is None:
        return detected
    num = int(config.shards)
    if detected and detected != num:
        raise ReproError(
            f"archive at {directory} has {detected} shard(s) but "
            f"--shards {num} was requested; resharding an existing fleet "
            "is not supported"
        )
    from pathlib import Path

    root = Path(directory)
    if not detected and ((root / "artifacts").is_dir() or (root / "documents").is_dir()):
        raise ReproError(
            f"{directory} holds a plain single archive; move its contents "
            "into shard-0/ to adopt the fleet layout (or drop --shards)"
        )
    return num


def _open_fleet_contexts(
    directory: str, indices: "list[int]", config: ArchiveConfig
) -> list[SaveContext]:
    """Open the given ``shard-<i>/`` contexts, with fleet observability.

    ``indices`` is normally ``range(num)``; a degraded fleet (some shard
    directory missing) passes only the present shards so the others are
    reported DOWN instead of being silently recreated empty.  Tracing
    shares one recorder across shards (concurrent fleet traces stay one
    stream); metrics register each shard's stats under a
    ``fleet_shard_<i>_`` prefix instead of the colliding single-archive
    names.  Shards carry no per-shard registry — the fleet catalog
    lives at the root, opened by the ``query`` verbs directly.
    """
    from pathlib import Path

    shard_config = config.with_(
        shards=None, registry=False, observability=ObservabilityConfig()
    )
    contexts = [
        open_context(str(Path(directory) / f"shard-{index}"), config=shard_config)
        for index in indices
    ]
    settings = config.observability
    if settings.tracing:
        from repro.observability.trace import TraceRecorder, install_tracing

        recorder = TraceRecorder()
        for context in contexts:
            install_tracing(context, recorder)
    if settings.metrics:
        from repro.observability.metrics import global_registry

        registry = global_registry()
        for index, context in zip(indices, contexts):
            registry.register_stats(
                f"fleet_shard_{index}_file_store", context.file_store.stats
            )
            registry.register_stats(
                f"fleet_shard_{index}_document_store",
                context.document_store.stats,
            )
            context.metrics = registry
    return contexts


def _fleet_catalog_hook(directory: str):
    """The root catalog's retention call, or ``None`` for a fleet without one."""
    from pathlib import Path

    from repro.registry import REGISTRY_DIR, open_fleet_registry

    registry_dir = Path(directory) / REGISTRY_DIR
    if not registry_dir.is_dir():
        return None
    return open_fleet_registry(registry_dir).record_retention


def _owning_context(contexts: list[SaveContext], set_id: str) -> SaveContext:
    for context in contexts:
        if context.document_store.exists(SETS_COLLECTION, set_id):
            return context
    raise ReproError(
        f"set {set_id!r} not found on any of the {len(contexts)} shard(s)"
    )


def _cmd_fleet_warm(contexts: list[SaveContext], args: argparse.Namespace) -> int:
    """Warm each set on the shard that owns it (``--all``: every shard)."""
    codes: list[int] = []
    if args.all:
        for index, context in enumerate(contexts):
            print(f"== shard-{index} ==")
            codes.append(_cmd_warm(context, args))
        return max(codes) if codes else 0
    routed: dict[int, tuple[SaveContext, list[str]]] = {}
    for set_id in args.set_ids:
        context = _owning_context(contexts, set_id)
        routed.setdefault(id(context), (context, []))[1].append(set_id)
    for context, set_ids in routed.values():
        shard_args = argparse.Namespace(**{**vars(args), "set_ids": set_ids})
        codes.append(_cmd_warm(context, shard_args))
    return max(codes) if codes else 0


def _cmd_deadletter(
    args: argparse.Namespace, config: ArchiveConfig, num: int
) -> int:
    """``deadletter list|replay|purge`` on a fleet's parked ingest batches.

    Exit codes follow the degraded-archive convention: 0 when nothing is
    pending (or everything replayed), 1 when entries remain parked,
    skipped, or failed, 2 on operational errors.
    """
    from pathlib import Path

    from repro.fleet.deadletter import DEADLETTER_DIR, DeadLetterStore

    if num <= 0:
        raise ReproError(
            "deadletter operates on fleet archives (no shard-<i>/ layout "
            f"found at {args.directory})"
        )
    root = Path(args.directory)
    store_dir = root / DEADLETTER_DIR
    if args.action == "list":
        if not store_dir.is_dir():
            print("0 dead-letter entries")
            return 0
        entries = DeadLetterStore(store_dir).entries(shard=args.shard)
        print(f"{len(entries)} dead-letter entries")
        for entry in entries:
            print(
                f"  {entry['id']}  shard={entry['shard']}  "
                f"root={entry['root']}  models={len(entry['models'])}  "
                f"updates={entry['updates']}  error={entry['error']}"
            )
        return 1 if entries else 0
    if args.action == "purge":
        if not store_dir.is_dir():
            print("purged 0 dead-letter entries")
            return 0
        count = DeadLetterStore(store_dir).purge(
            entry_ids=args.ids, shard=args.shard
        )
        print(f"purged {count} dead-letter entries")
        return 0
    # replay: re-submit parked batches through the normal ingest path so
    # lineage and byte-identity of the recovered chains are preserved.
    if not store_dir.is_dir():
        print("0 dead-letter entries to replay")
        return 0
    approach = args.approach
    if approach is None:
        shard_config = config.with_(
            shards=None, registry=False, observability=ObservabilityConfig()
        )
        for index in range(num):
            shard_dir = root / f"shard-{index}"
            if not shard_dir.is_dir():
                continue
            approach = _detect_approach(
                open_context(str(shard_dir), config=shard_config)
            )
            if approach is not None:
                break
    if approach is None:
        raise ReproError(
            "could not detect the fleet's approach; pass --approach"
        )
    from repro.errors import IngestError
    from repro.fleet import FleetManager, IngestQueue

    fleet = FleetManager.open(args.directory, approach, config)
    if fleet.deadletter.count == 0:
        print("0 dead-letter entries to replay")
        return 0
    queue = IngestQueue(fleet, flush_max_updates=10**9, workers=0)
    try:
        summary = queue.replay_dead_letters(shard=args.shard)
    finally:
        try:
            queue.close()
        except IngestError:
            pass
    for entry_id in summary["replayed"]:
        print(f"replayed {entry_id}")
    for entry_id in summary["skipped"]:
        print(f"skipped {entry_id} (shard still down)")
    for failure in summary["failed"]:
        print(
            f"failed {failure['id']}: {failure['error']} "
            f"(re-parked as {', '.join(failure['reparked'])})"
        )
    print(
        f"replayed {len(summary['replayed'])} entries, "
        f"{len(summary['skipped'])} skipped, {len(summary['failed'])} failed"
    )
    return 0 if not summary["skipped"] and not summary["failed"] else 1


def _run_fleet(
    args: argparse.Namespace, config: ArchiveConfig, num: int, commands: dict
) -> int:
    from pathlib import Path

    command = args.command
    missing = [
        index
        for index in range(num)
        if not (Path(args.directory) / f"shard-{index}").is_dir()
    ]
    if missing and command not in _FLEET_ITERATED:
        names = ", ".join(f"shard-{index}" for index in missing)
        raise ReproError(
            f"fleet at {args.directory} is degraded: {names} missing; only "
            "per-shard inspection verbs (info/lineage/verify/fsck/scrub/"
            "stats) run against a degraded fleet — restore the missing "
            "shard directories first"
        )
    present = [index for index in range(num) if index not in missing]
    contexts = _open_fleet_contexts(args.directory, present, config)
    if command in ("gc", "maintain"):
        # One fleet-wide retention decision, per-shard atomic passes; the
        # shards carry no registry, so the root catalog hears what each
        # committed pass deleted and compacted.
        verb = _gc if command == "gc" else _maintain
        result = verb(contexts, args, _fleet_catalog_hook(args.directory))
    elif command == "warm":
        result = _cmd_fleet_warm(contexts, args)
    elif command == "evict":
        # Eviction is fleet-wide: every shard drops its entries.
        codes = []
        for index, context in enumerate(contexts):
            print(f"== shard-{index} ==")
            codes.append(commands[command](context, args))
        result = max(codes) if codes else 0
    elif command == "stats" and getattr(args, "live", False):
        # The registry is process-wide; one export covers every shard.
        result = _cmd_stats(contexts[0], args)
    elif command in _FLEET_ITERATED:
        total_sets = sum(
            len(context.document_store.collection_ids(SETS_COLLECTION))
            for context in contexts
        )
        total_bytes = sum(context.total_bytes() for context in contexts)
        if command == "info":
            print(f"fleet: {num} shards")
            if missing:
                print(f"fleet shards DOWN: {len(missing)}")
            print(f"fleet sets: {total_sets}")
            print(f"fleet stored bytes: {total_bytes:,}")
        # A missing shard floors the exit at 1 (degraded, like a missing
        # replica) but never blocks inspecting the healthy shards.
        codes = [1] if missing else []
        by_index = dict(zip(present, contexts))
        for index in range(num):
            print(f"== shard-{index} ==")
            if index in by_index:
                codes.append(commands[command](by_index[index], args))
            else:
                print("DOWN: shard directory missing")
        result = max(codes) if codes else 0
    elif command in _FLEET_ROUTED:
        result = commands[command](_owning_context(contexts, args.set_id), args)
    elif command == "migrate":
        # Merge every shard into one target archive: fleet ids are
        # unique, so sequential per-shard migration cannot collide.
        codes = [commands[command](context, args) for context in contexts]
        result = max(codes) if codes else 0
    else:  # pragma: no cover - argparse restricts the verb set
        raise ReproError(f"command {command!r} does not support fleet archives")
    trace_path = config.observability.trace_path
    tracer = contexts[0].tracer if contexts else None
    if trace_path and tracer is not None and tracer.roots:
        from repro.observability import write_trace_json

        path = write_trace_json(
            trace_path,
            tracer.roots,
            meta={"command": args.command, "shards": num},
        )
        print(f"trace written to {path}")
    return result
