"""Shared plumbing for the ``repro-archive`` verb modules.

Every verb module receives the same building blocks: the
:class:`~repro.config.ArchiveConfig` derived from the global flags
(:func:`config_from_args`) and the :class:`ArchiveView` of the directory
(:func:`open_view`), whose one engine is bound to the archive's
approach.  Keeping them here means a verb module imports exactly one
sibling and the argparse wiring in :mod:`repro.cli.main` stays
declarative.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from repro.config import ArchiveConfig, ObservabilityConfig, ServingConfig
from repro.core.approach import SETS_COLLECTION, SaveContext
from repro.core.manager import MultiModelManager, open_shards
from repro.errors import ReproError
from repro.registry import attach_registry
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


def _detect_approach(*contexts: SaveContext) -> str | None:
    """The single approach the contexts' sets use, or None if empty/mixed."""
    types = {
        str(doc.get("type"))
        for context in contexts
        for doc in context.document_store.peek_collection(SETS_COLLECTION).values()
    }
    return types.pop() if len(types) == 1 else None


@dataclass
class ArchiveView:
    """The shards a verb runs against, plain or fleet alike.

    ``engine`` is the archive engine opened over the directory (see
    :func:`open_view`): a plain archive is its one shard, labelled
    ``archive``, with the catalog in place; a fleet is its ``shard-<i>/``
    shards and the root ``registry/`` catalog.  ``missing`` holds the
    shards that could not be opened (directory gone or unreadable);
    ``contexts`` the others, in index order, and ``indices`` their shard
    numbers.
    """

    directory: Path
    engine: MultiModelManager
    missing: "list[int]"

    @property
    def sharded(self) -> bool:
        return self.engine.sharded

    @property
    def num(self) -> int:
        return self.engine.num_shards

    @property
    def indices(self) -> "list[int]":
        return [index for index in range(self.num) if index not in self.missing]

    @property
    def contexts(self) -> "list[SaveContext]":
        return [self.engine.shards[index].context for index in self.indices]

    def each(self, verb, banner: bool = True) -> int:
        """Run ``verb(index, context)`` on every shard; the worst exit wins.

        On a fleet each shard's output follows an ``== shard-<i> ==``
        banner (unless ``banner=False``), and a missing shard prints
        DOWN and floors the exit code at 1 — degraded, like a missing
        replica — without blocking the healthy shards.
        """
        present = dict(zip(self.indices, self.contexts))
        codes = [1] if self.missing else []
        for index in range(self.num):
            if self.sharded and banner:
                print(f"== shard-{index} ==")
            if index in present:
                codes.append(verb(index, present[index]))
            else:
                print("DOWN: shard directory missing")
        return max(codes, default=0)

    def require_complete(self, reason: str) -> None:
        """Refuse to run on a fleet with missing shards."""
        if self.missing:
            names = ", ".join(f"shard-{index}" for index in self.missing)
            raise ReproError(
                f"fleet at {self.directory} is degraded ({names} missing); {reason}"
            )

    def owner(self, set_id: str) -> SaveContext:
        """The context holding ``set_id``."""
        return self.engine.shards[self.engine.shard_of(set_id)].context

    @property
    def bound(self) -> MultiModelManager:
        """The engine, for verbs that save or recover: it needs an approach."""
        if self.engine.approach_name is None:
            raise ReproError("archive is empty or mixes approaches; pass --approach explicitly")
        return self.engine

    @property
    def has_catalog(self) -> bool:
        """Whether a catalog is kept; asking never creates a fleet's."""
        return self.engine.has_catalog

    @cached_property
    def catalog(self):
        """The engine's catalog (a fleet's is created on first use)."""
        return self.engine.registry

    def families(self, index: int) -> "list[str]":
        """Families with a version on shard ``index`` (all, on a plain archive)."""
        if not self.has_catalog:
            return []
        if not self.sharded:
            return self.catalog.families()
        return sorted(
            {record.family for record in self.catalog.records() if record.shard == index}
        )


def open_view(
    directory: str, config: ArchiveConfig, approach: "str | None" = None
) -> ArchiveView:
    """Open the archive at ``directory`` as an :class:`ArchiveView`.

    The engine's own shard assembly
    (:func:`~repro.core.manager.open_shards`; ``--shards`` is
    ``config.shards``) with ``registry=False``, so no fleet catalog is
    created at open: a fleet's root ``registry/`` is kept when it exists,
    and a plain archive's catalog, which lives in its own document store,
    is kept always.  Every verb records into the catalog kept.  Missing
    shards are reported, never recreated.  The engine is bound to
    ``approach`` (``--approach``), else to the one approach the shards
    hold, else to none (an empty or mixed archive).
    """
    config = config.with_(registry=False)
    shards = open_shards(directory, config)
    if not shards.sharded:
        attach_registry(shards.contexts[0])
    approach = approach or _detect_approach(*shards.contexts)
    return ArchiveView(
        Path(directory), MultiModelManager(approach, config, shards), sorted(shards.down)
    )
