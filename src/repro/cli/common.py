"""Shared plumbing for the ``repro-archive`` verb modules.

Every verb module receives the same two building blocks: the
:class:`~repro.config.ArchiveConfig` derived from the global flags
(:func:`config_from_args`) and a manager bound to the archive's
auto-detected approach (:func:`_manager_for`).  Keeping them here means
a verb module imports exactly one sibling and the argparse wiring in
:mod:`repro.cli.main` stays declarative.
"""

from __future__ import annotations

import argparse

from repro.config import ArchiveConfig, ObservabilityConfig, ServingConfig
from repro.core.approach import SETS_COLLECTION, SaveContext
from repro.core.manager import APPROACHES, MultiModelManager
from repro.errors import ReproError
from repro.storage.hardware import (
    ARCHIVE_PROFILE,
    LOCAL_PROFILE,
    M1_PROFILE,
    SERVER_PROFILE,
)

#: ``--profile`` choices → the latency model charged per store operation.
PROFILES = {
    "local": LOCAL_PROFILE,
    "server": SERVER_PROFILE,
    "m1": M1_PROFILE,
    "archive": ARCHIVE_PROFILE,
}


def config_from_args(args: argparse.Namespace) -> ArchiveConfig:
    """The :class:`ArchiveConfig` described by the global CLI flags.

    Each flag maps onto exactly one config field: ``--profile`` →
    ``profile``, ``--workers`` → ``workers``, ``--dedup`` → ``dedup``,
    ``--no-journal`` → ``journal=False``, ``--retries`` → ``retry``,
    ``--replicas``/``--write-quorum``/``--read-quorum`` → the replication
    topology, ``--serve-cache``/``--set-cache-bytes``/
    ``--chunk-cache-bytes`` → ``serving`` (the ``warm`` and ``evict``
    verbs imply ``--serve-cache``), and ``--trace``/``--trace-json`` →
    ``observability``.
    """
    retry = None
    if getattr(args, "retries", None):
        from repro.storage.faults import RetryPolicy

        retry = RetryPolicy(attempts=args.retries)
    trace_path = getattr(args, "trace_json", None)
    # warm/evict operate on the serving cache, so they imply it.
    serve = bool(
        getattr(args, "serve_cache", False)
        or getattr(args, "command", None) in ("warm", "evict")
    )
    serving = ServingConfig(
        enabled=serve,
        set_cache_bytes=getattr(args, "set_cache_bytes", None)
        or ServingConfig.set_cache_bytes,
        chunk_cache_bytes=getattr(args, "chunk_cache_bytes", None)
        or ServingConfig.chunk_cache_bytes,
    )
    return ArchiveConfig(
        profile=PROFILES[getattr(args, "profile_name", None) or "local"],
        workers=args.workers,
        dedup=getattr(args, "dedup", False),
        journal=not getattr(args, "no_journal", False),
        retry=retry,
        shards=getattr(args, "shards", None),
        replicas=args.replicas,
        write_quorum=args.write_quorum,
        read_quorum=args.read_quorum,
        serving=serving,
        observability=ObservabilityConfig(
            tracing=bool(getattr(args, "trace", False) or trace_path),
            metrics=bool(getattr(args, "live", False)),
            trace_path=trace_path,
        ),
    )


def _detect_approach(context: SaveContext) -> str | None:
    """The single approach used by the archive, or None if empty/mixed."""
    types = {
        str(doc.get("type"))
        for doc in context.document_store.peek_collection(SETS_COLLECTION).values()
    }
    return types.pop() if len(types) == 1 else None


def _manager_for(context: SaveContext, approach: str | None) -> MultiModelManager:
    detected = _detect_approach(context)
    name = approach or detected
    if name is None:
        raise ReproError(
            "archive is empty or mixes approaches; pass --approach explicitly"
        )
    if name not in APPROACHES:
        raise ReproError(f"unknown approach {name!r}; known: {sorted(APPROACHES)}")
    return MultiModelManager.with_approach(name, context=context)
