"""Shared plumbing for the ``repro-archive`` verb modules.

Every verb module receives the same building blocks: the
:class:`~repro.config.ArchiveConfig` derived from the global flags
(:func:`config_from_args`), the :class:`ArchiveView` of the directory
(:func:`open_view`), and a manager bound to the archive's auto-detected
approach (:func:`_manager_for`).  Keeping them here means a verb module
imports exactly one sibling and the argparse wiring in
:mod:`repro.cli.main` stays declarative.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from repro.config import ArchiveConfig, ObservabilityConfig, ServingConfig
from repro.core.approach import SETS_COLLECTION, SaveContext
from repro.core.manager import APPROACHES, MultiModelManager
from repro.errors import RegistryError, ReproError
from repro.registry import REGISTRY_DIR
from repro.storage.hardware import (
    ARCHIVE_PROFILE,
    LOCAL_PROFILE,
    M1_PROFILE,
    SERVER_PROFILE,
)
from repro.storage.persistent import open_context, shard_roots

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


@dataclass
class ArchiveView:
    """The shards a verb runs against, plain or fleet alike.

    A plain archive is a fleet of one shard rooted at its own directory:
    one context labelled ``archive``, its catalog the context-attached
    registry.  A fleet is its ``shard-<i>/`` contexts, labelled
    ``shard-<i>``, and the root ``registry/`` catalog.  ``contexts`` holds
    the present shards in index order, ``indices`` their shard numbers,
    ``missing`` the shards whose directory is gone.
    """

    directory: Path
    sharded: bool
    contexts: "list[SaveContext]"
    indices: "list[int]"
    missing: "list[int]"

    @property
    def num(self) -> int:
        return len(self.indices) + len(self.missing)

    @property
    def sources(self) -> "list[tuple[int | None, SaveContext]]":
        """``(shard, context)`` pairs as the catalog tags them (``None`` plain)."""
        return [
            (index if self.sharded else None, context)
            for index, context in zip(self.indices, self.contexts)
        ]

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
        """The context holding ``set_id`` (a plain archive's only one)."""
        if not self.sharded:
            return self.contexts[0]
        for context in self.contexts:
            if context.document_store.exists(SETS_COLLECTION, set_id):
                return context
        raise ReproError(
            f"set {set_id!r} not found on any of the {len(self.contexts)} shard(s)"
        )

    @property
    def has_catalog(self) -> bool:
        """Whether a catalog exists; asking never creates a fleet's."""
        return not self.sharded or (self.directory / REGISTRY_DIR).is_dir()

    @cached_property
    def catalog(self):
        """The registry: the plain context's, or the fleet root's (opened,
        and created when absent, on first use)."""
        if not self.sharded:
            return self.contexts[0].registry
        from repro.registry import open_fleet_registry

        by_shard = dict(self.sources)

        def resolver(shard):
            if shard not in by_shard:
                raise RegistryError(f"registry record routes to unknown shard {shard!r}")
            return by_shard[shard]

        return open_fleet_registry(self.directory / REGISTRY_DIR, resolver=resolver)

    def families(self, index: int) -> "list[str]":
        """Families with a version on shard ``index`` (all, on a plain archive)."""
        if not self.has_catalog:
            return []
        if not self.sharded:
            return self.catalog.families()
        return sorted(
            {record.family for record in self.catalog.records() if record.shard == index}
        )

    def maintenance_targets(self) -> list:
        from repro.maintenance import MaintenanceTarget

        return [
            MaintenanceTarget(
                f"shard-{index}" if self.sharded else "archive", context, context.mutex
            )
            for index, context in zip(self.indices, self.contexts)
        ]


def open_view(directory: str, config: ArchiveConfig) -> ArchiveView:
    """Open the archive at ``directory`` as an :class:`ArchiveView`.

    The topology comes from :func:`~repro.storage.persistent.shard_roots`
    (``--shards`` is ``config.shards``).  A fleet's shards open without a
    registry of their own — bound to the root catalog when ``registry/``
    exists — and with fleet observability: one trace recorder shared
    across shards (concurrent fleet traces stay one stream), and metrics
    registering each shard's stats under a ``fleet_shard_<i>_`` prefix
    instead of the colliding single-archive names.  Missing shards are
    reported, never recreated.
    """
    root = Path(directory)
    roots, missing = shard_roots(root, config.shards)
    if roots == [root]:
        return ArchiveView(root, False, [open_context(root, config=config)], [0], [])
    shard_config = config.with_(
        shards=None, registry=False, observability=ObservabilityConfig()
    )
    indices = [index for index in range(len(roots)) if index not in missing]
    contexts = [open_context(roots[index], config=shard_config) for index in indices]
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
                f"fleet_shard_{index}_document_store", context.document_store.stats
            )
            context.metrics = registry
    view = ArchiveView(root, True, contexts, indices, missing)
    if view.has_catalog:
        # Each shard records into the root catalog as it commits, the
        # way a FleetManager's shards do.
        for index, context in zip(indices, contexts):
            context.registry = view.catalog.bind(index, context)
    return view
