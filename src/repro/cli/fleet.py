"""The fleet-only ``deadletter`` verb group: parked ingest batches.

Every other verb runs on plain archives and fleets alike through the
archive view (:class:`repro.cli.common.ArchiveView`); dead letters exist
only where an :class:`~repro.fleet.IngestQueue` parks them, at a fleet
root, so :func:`_cmd_deadletter` refuses a plain view.
"""

from __future__ import annotations

import argparse

from repro.cli.common import ArchiveView
from repro.errors import IngestError, ReproError


def _cmd_deadletter(view: ArchiveView, args: argparse.Namespace) -> int:
    """``deadletter list|replay|purge`` on a fleet's parked ingest batches.

    Exit codes follow the degraded-archive convention: 0 when nothing is
    pending (or everything replayed), 1 when entries remain parked,
    skipped, or failed, 2 on operational errors.
    """
    from repro.fleet.deadletter import DEADLETTER_DIR, DeadLetterStore

    if not view.sharded:
        raise ReproError(
            "deadletter operates on fleet archives (no shard-<i>/ layout "
            f"found at {view.directory})"
        )
    store_dir = view.directory / DEADLETTER_DIR
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
    # replay: re-submit parked batches through the normal ingest path, on
    # the view's engine, exactly as an in-process queue replays them.
    if not store_dir.is_dir() or view.engine.deadletter.count == 0:
        print("0 dead-letter entries to replay")
        return 0
    from repro.fleet import IngestQueue

    queue = IngestQueue(view.bound, flush_max_updates=10**9, workers=0)
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
