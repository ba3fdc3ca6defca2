"""The archive engine: one save/recover interface over one or more shards.

:class:`MultiModelManager` — and :class:`~repro.fleet.FleetManager`, the
same class under its fleet name — holds a list of shards, each an
approach over its own save context, a timed lock and a label, and
routes every save, recovery and deletion to exactly one of them::

    manager = MultiModelManager.with_approach("update")
    set_id = manager.save_set(models)                       # U1
    new_id = manager.save_set(updated, base_set_id=set_id)  # U3
    recovered = manager.recover_set(new_id)

A plain archive is the engine's one shard rooted at the archive
directory; a fleet is one shard per ``shard-<i>/`` subtree.  The
directory's topology (:func:`~repro.storage.persistent.shard_roots`)
decides which; the two names differ only in what a fresh directory or
an in-memory archive becomes.  Label, metric names, trace envelope,
health gating and catalog follow from the topology, derived once in
:func:`open_shards` and :func:`~repro.core.approach.build_context`
(DESIGN.md §12).  Initial saves hash their engine-allocated id with
:func:`shard_for`; derived saves follow their base, so recovery never
crosses shards.  There is no cross-shard lock: each shard's mutex is
wrapped in a :class:`~repro.observability.metrics.TimedLock`, and the
engine's own lock guards only the id counter and placement map.
"""

from __future__ import annotations

import hashlib
import itertools
import threading
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from operator import is_not
from pathlib import Path
from typing import Any, Callable

from repro.config import ArchiveConfig, resolve_config
from repro.core.approach import (
    _NULL_CONTEXT,
    SETS_COLLECTION,
    SaveApproach,
    SaveContext,
    ShardWiring,
    id_order,
)
from repro.core.baseline import BaselineApproach
from repro.core.mmlib_base import MMlibBaseApproach
from repro.core.model_set import ModelSet, SavedRows
from repro.core.pas import PasDeltaApproach
from repro.core.provenance import ProvenanceApproach
from repro.core.quantized import QuantizedBaselineApproach
from repro.core.save_info import SetMetadata, UpdateInfo
from repro.core.update import UpdateApproach
from repro.errors import (
    DocumentNotFoundError,
    RegistryError,
    ShardUnavailableError,
    StorageError,
)
from repro.observability import trace as _trace
from repro.observability.metrics import TimedLock
from repro.storage.document_store import thaw
from repro.storage.persistent import SHARD_PREFIX, open_context, shard_roots

#: Approach name -> class, for :meth:`MultiModelManager.with_approach`.
APPROACHES: dict[str, type[SaveApproach]] = {
    BaselineApproach.name: BaselineApproach,
    UpdateApproach.name: UpdateApproach,
    ProvenanceApproach.name: ProvenanceApproach,
    MMlibBaseApproach.name: MMlibBaseApproach,
    PasDeltaApproach.name: PasDeltaApproach,
    QuantizedBaselineApproach.name: QuantizedBaselineApproach,
}

def shard_for(set_id: str, num_shards: int) -> int:
    """The shard owning ``set_id``: stable hash, independent of process.

    Uses the first 8 bytes of ``sha256(set_id)`` so placement survives
    reopen, other processes, and Python hash randomization.
    """
    if num_shards <= 1:
        return 0
    digest = hashlib.sha256(set_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % num_shards


@dataclass
class Shards:
    """What :func:`open_shards` assembled: the contexts and what they
    share; ``down`` maps each shard that could not be opened (its context
    an empty in-memory placeholder the engine pins DOWN) to the reason."""

    contexts: "list[SaveContext]"
    sharded: bool
    root: "Path | None" = None
    down: "dict[int, str]" = field(default_factory=dict)
    tracer: Any = None
    metrics: Any = None
    catalog: Any = None

    def open_catalog(self):
        """A catalog over these shards: a plain archive's in its own
        document store, a fleet's under ``root/registry/`` (created when
        absent; in memory without a root)."""
        from repro.registry import REGISTRY_DIR, Registry, open_fleet_registry

        if not self.sharded:
            return Registry.for_context(self.contexts[0])
        return open_fleet_registry(
            None if self.root is None else self.root / REGISTRY_DIR,
            resolver=lambda shard: self.contexts[shard],
            metrics=lambda: self.metrics,
        )


def open_shards(
    directory: "str | Path | None", config: ArchiveConfig, fresh: "int | None" = None
) -> Shards:
    """The one shard-assembly path: the topology, then every shard's context.

    The topology comes from :func:`~repro.storage.persistent.shard_roots`
    (``directory=None`` assembles in memory; ``fresh`` is what an empty
    directory or an in-memory archive becomes without ``config.shards``),
    each context from :func:`~repro.core.approach.build_context`, a
    fleet's with the :class:`~repro.core.approach.ShardWiring` its shards
    share.  A missing or unreadable shard of an existing fleet gets an
    in-memory placeholder, never a crash or a silent empty recreation.
    """
    if directory is None:
        root = None
        count = config.shards if config.shards is not None else fresh
        roots: "list[Path | None]" = [None] * int(count or 1)
        sharded, missing = count is not None, []
    else:
        root = Path(directory)
        roots, missing = shard_roots(root, config.shards, fresh)
        sharded = roots != [root]
    # No shard directory at all is a fresh archive: create every shard.
    existing = len(missing) < len(roots)
    shards = Shards([], sharded, root)
    if config.observability.metrics:
        from repro.observability.metrics import global_registry

        shards.metrics = global_registry()
    recorder = chunk_cache = None
    if sharded:
        if config.observability.tracing:
            from repro.observability.trace import TraceRecorder

            recorder = shards.tracer = TraceRecorder()
        if config.serving.enabled:
            from repro.serving import ChunkCache

            chunk_cache = ChunkCache(config.serving.chunk_cache_bytes)
        from repro.registry import REGISTRY_DIR

        # A fleet keeps the root catalog it has, whatever the config says.
        if config.registry or (root is not None and (root / REGISTRY_DIR).is_dir()):
            shards.catalog = shards.open_catalog()
    for index, shard_root in enumerate(roots):
        wiring = (
            ShardWiring(index, recorder, chunk_cache, shards.catalog) if sharded else None
        )
        if existing and index in missing:
            shards.down[index] = f"shard directory missing at open: {shard_root}"
        elif shard_root is None:
            shards.contexts.append(SaveContext.create(config, wiring))
            continue
        else:
            try:
                shards.contexts.append(open_context(shard_root, config, wiring))
                continue
            except (OSError, StorageError) as error:
                if not (sharded and existing):
                    raise
                shards.down[index] = (
                    f"shard unreadable at open: {type(error).__name__}: {error}"
                )
        shards.contexts.append(SaveContext.create(config, wiring))
    if not sharded:
        shards.tracer = shards.contexts[0].tracer
    return shards


@dataclass
class Shard:
    """One shard of the engine: an approach over its context, the timed
    lock every engine operation on the shard takes, and its label."""

    approach: "SaveApproach | None"
    context: SaveContext
    lock: TimedLock
    label: str

    def list_sets(self) -> list[str]:
        """Ids of the sets committed on this shard (an uncharged listing)."""
        return self.context.document_store.collection_ids(SETS_COLLECTION)

    def total_stored_bytes(self) -> int:
        return self.context.total_bytes()


class MultiModelManager:
    """The archive engine over one shard (a plain archive) or many (a fleet).

    Build one with :meth:`with_approach` (in memory) or :meth:`open`
    (durable).  ``approach=None`` on the constructor binds no approach:
    the shards are open for management only (the CLI's archive view).
    """

    #: What a fresh directory or an in-memory archive becomes without a
    #: ``config.shards`` count: ``None`` the directory itself (a plain
    #: archive), ``1`` a one-shard fleet under ``shard-0/``.
    fresh_shards: "int | None" = None

    def __init__(
        self,
        approach: "str | None",
        config: ArchiveConfig,
        shards: Shards,
        **approach_kwargs: Any,
    ) -> None:
        from repro.fleet.health import FleetHealthTracker

        if approach is not None and approach not in APPROACHES:
            raise ValueError(f"unknown approach {approach!r}; known: {sorted(APPROACHES)}")
        self.approach_name = approach
        self.config = config
        self.root = shards.root
        self.sharded = shards.sharded
        self.tracer = shards.tracer
        #: What the shards share, read late by the fleet catalog.
        self._shared = shards
        #: The catalog the shards record into (``None``: no catalog kept).
        self._catalog = shards.catalog if self.sharded else shards.contexts[0].registry
        counting = self.sharded and self.metrics is not None
        if counting:
            self.metrics.gauge(
                "fleet_shards", "number of archive shards in the fleet"
            ).set(len(shards.contexts))
            self.metrics.register_provider("fleet:shards", self._shard_metrics)
        self.shards = [
            Shard(
                None if approach is None else APPROACHES[approach](context, **approach_kwargs),
                context,
                TimedLock(
                    context.mutex,
                    counter=self.metrics.counter(
                        f"fleet_shard_{index}_lock_wait_s_total",
                        "seconds fleet operations spent waiting on this shard's mutex",
                    )
                    if counting
                    else None,
                ),
                f"{SHARD_PREFIX}{index}" if self.sharded else "archive",
            )
            for index, context in enumerate(shards.contexts)
        ]
        #: Engine lock for id allocation + placement bookkeeping only.
        #: Never held across storage I/O.
        self._fleet_lock = threading.Lock()
        self._placement: dict[str, int] = {}
        self._root_of: dict[str, str] = {}
        self._deadletter = None
        self._deadletter_lock = threading.Lock()
        self._registry_lock = threading.Lock()
        self._unkept = None
        #: Set id -> the rows this engine's committed ``save_set`` froze,
        #: held only while the saved set holds them.  Per engine: set ids
        #: collide across archives.
        self._saved_rows: "weakref.WeakValueDictionary[str, SavedRows]" = (
            weakref.WeakValueDictionary()
        )
        #: Per-shard circuit breakers gating every save/recover route; a
        #: plain archive's never refuse.
        self.health = FleetHealthTracker(
            len(self.shards),
            config.health if self.sharded else replace(config.health, enabled=False),
            on_transition=self._on_health_transition,
        )
        for index, shard in enumerate(self.shards):
            for set_id in shard.list_sets():
                self._placement[set_id] = index
        self._ids = (
            self.shards[0].context._set_counter
            if len(self.shards) == 1
            else itertools.count(max(map(id_order, self._placement), default=(-1,))[0] + 1)
        )
        for index, reason in sorted(shards.down.items()):
            self.health.pin_down(index, reason)
        if self._catalog is not None and self.sharded:
            # A kill between a shard's commit and its root record loses
            # that one record; opening records it again.
            self._catalog.heal(
                [
                    shard.context
                    for index, shard in enumerate(self.shards)
                    if not self.health.is_down(index)
                ]
            )


    # -- construction ------------------------------------------------------
    @classmethod
    def with_approach(
        cls,
        name: str,
        config: "ArchiveConfig | None" = None,
        *,
        context: SaveContext | None = None,
        **approach_kwargs: Any,
    ) -> "MultiModelManager":
        """Create an in-memory engine for the named approach.

        ``name`` is a key of :data:`APPROACHES`; ``config`` the
        :class:`~repro.config.ArchiveConfig` of the archive to create
        (``None``: the defaults).  ``context`` wraps an existing context
        as a plain archive, shared with other approaches: the config's
        ``workers``/``dedup`` knobs are applied onto it and every other
        field is ignored.  ``approach_kwargs`` are approach options, e.g.
        ``snapshot_interval=4`` for Update; per-knob archive settings
        (``workers=``, ...) raise :class:`TypeError` — pass a config.
        """
        explicit_config = config is not None
        config = resolve_config(f"{cls.__name__}.with_approach", config, approach_kwargs)
        if context is None:
            shards = open_shards(None, config, cls.fresh_shards)
        else:
            if explicit_config:
                # A shared context already has its stores; only the engine
                # knobs of the config can meaningfully apply to it.
                context.workers = config.workers
                context.dedup = config.dedup
            config = context.config or config
            shards = Shards([context], False, tracer=context.tracer, metrics=context.metrics)
        return cls(name, config, shards, **approach_kwargs)

    @classmethod
    def open(
        cls,
        directory: "str | Path",
        approach: str,
        config: "ArchiveConfig | None" = None,
        **approach_kwargs: Any,
    ) -> "MultiModelManager":
        """Open (or create) a durable archive rooted at ``directory``.

        Artifacts and documents are persisted to disk (atomic writes,
        checksummed artifacts); reopening the same directory resumes
        exactly where the previous process left off — including the
        set-id sequence and the chunk index, so derived saves keep
        chaining (and deduplicating) correctly.

        The directory's own topology decides plain or fleet:
        ``config.shards=None`` reopens whatever is on disk.  A shard count
        asked of a plain archive raises
        :class:`~repro.errors.StorageError`, one contradicting an existing
        fleet :class:`~repro.errors.ConfigError`.  With ``journal=True``
        (the default) every save is an atomic write-ahead transaction and
        opening first rolls back what a crashed process left behind (see
        :attr:`recovery_report`); ``replicas=None`` auto-detects an
        existing replicated layout.
        """
        config = resolve_config(f"{cls.__name__}.open", config, approach_kwargs)
        return cls(
            approach, config, open_shards(directory, config, cls.fresh_shards),
            **approach_kwargs,
        )

    # -- shard views -------------------------------------------------------
    def _only(self) -> Shard:
        if len(self.shards) != 1:
            raise AttributeError(
                f"this archive has {len(self.shards)} shards; use shards[i]"
            )
        return self.shards[0]

    @property
    def context(self) -> SaveContext:
        """The save context of a one-shard archive."""
        return self._only().context

    @property
    def approach(self) -> SaveApproach:
        """The approach of a one-shard archive."""
        return self._only().approach

    @property
    def recovery_report(self):
        """What crash recovery repaired when a one-shard archive was opened.

        ``None`` for unjournaled contexts; otherwise a
        :class:`~repro.storage.journal.RecoveryReport` whose ``clean``
        flag is ``False`` when a torn save was rolled back.
        """
        return self._only().context.recovery_report

    @property
    def recovery_reports(self) -> list:
        """Per-shard crash-recovery reports (``None`` when unjournaled)."""
        return [shard.context.recovery_report for shard in self.shards]

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def shard_locks(self) -> "list[TimedLock]":
        return [shard.lock for shard in self.shards]

    @property
    def metrics(self):
        """The metrics registry the engine exports to (``None``: off)."""
        return self._shared.metrics

    @metrics.setter
    def metrics(self, registry) -> None:
        self._shared.metrics = registry

    @property
    def serving_caches(self) -> list:
        """The shards' serving caches (empty when serving is disabled);
        a fleet's share :attr:`chunk_cache` as their tier 2."""
        return [shard.context.serving for shard in self.shards if shard.context.serving]

    @property
    def chunk_cache(self):
        caches = self.serving_caches
        return caches[0].chunks if caches else None

    def serving_counters(self) -> "dict | None":
        """Serving counters summed over shards (``None`` when disabled)."""
        caches = self.serving_caches
        if not caches:
            return None
        totals: dict = {}
        for cache in caches:
            for name, value in cache.counters().items():
                if name.endswith("_rate"):
                    continue
                # Tier 2 is one shared cache; summing its gauges over
                # shards would multiply them by the shard count.
                if name.startswith("chunk_cache_"):
                    totals[name] = value
                    continue
                totals[name] = totals.get(name, 0) + value
        for tier in ("set", "chunk"):
            hits, misses = totals.get(f"{tier}_hits", 0), totals.get(f"{tier}_misses", 0)
            totals[f"{tier}_hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
        return totals

    def _shard_metrics(self) -> dict:
        values: dict[str, float] = {}
        simulated = self.shard_simulated_s()
        for index, shard in enumerate(self.shards):
            prefix = f"fleet_shard_{index}"
            values[f"{prefix}_sets"] = len(self._held(index))
            values[f"{prefix}_stored_bytes"] = shard.total_stored_bytes()
            values[f"{prefix}_simulated_s"] = simulated[index]
            values[f"{prefix}_lock_wait_s"] = shard.lock.wait_s
            values[f"{prefix}_health"] = self.health.level(index)
        return values

    def _on_health_transition(
        self, shard: int, old: str, new: str, reason: str
    ) -> None:
        """Health state change: bump the counter, record a trace event."""
        if self.metrics is not None:
            self.metrics.counter(
                "fleet_health_transitions_total",
                "shard health state transitions (any direction)",
            ).inc()
        if self.tracer is None:
            return
        # With no span current (a bookkeeping path), a zero-length marker
        # span still lands the event in the trace.
        with (
            _NULL_CONTEXT
            if _trace.active()
            else self.tracer.trace(
                "health-transition",
                key=f"health-{SHARD_PREFIX}{shard}",
                shard=shard,
                old=old,
                new=new,
            )
        ):
            _trace.add_event(
                "health-transition", shard=shard, old=old, new=new, reason=reason
            )

    @property
    def deadletter(self):
        """The dead-letter store, built on first use: ``root/deadletter/``
        outside every shard (parking works while a shard is DOWN), or in
        memory; archives that never park grow no subtree."""
        with self._deadletter_lock:
            if self._deadletter is None:
                from repro.fleet.deadletter import DEADLETTER_DIR, DeadLetterStore

                directory = (
                    self.root / DEADLETTER_DIR if self.root is not None else None
                )
                self._deadletter = DeadLetterStore(directory)
            return self._deadletter

    @property
    def registry(self):
        """The archive's model catalog: the one the shards record into
        (:attr:`has_catalog`) — a plain archive's in its own document
        store, a fleet's under ``root/registry/``, queryable while a shard
        is DOWN — or, when none is kept, one opened on first use that no
        save records into (on a fleet this creates ``registry/``)."""
        if self._catalog is not None:
            return self._catalog
        with self._registry_lock:
            if self._unkept is None:
                self._unkept = self._shared.open_catalog()
            return self._unkept

    @property
    def has_catalog(self) -> bool:
        """Whether the shards record into a catalog (see :attr:`registry`)."""
        return self._catalog is not None

    def rebuild_registry(self) -> int:
        """Re-derive the catalog from every shard's descriptors (``register
        --rebuild``); returns the number of sets registered."""
        return self.registry.rebuild(
            [
                (index if self.sharded else None, shard.context)
                for index, shard in enumerate(self.shards)
            ]
        )

    # -- introspection -----------------------------------------------------
    def _locate(self, set_id: str) -> int:
        """The shard holding ``set_id``; the caller holds the engine lock.

        An id the placement map does not hold (saved through another
        manager sharing a context) is looked up on the shards, once.
        """
        shard = self._placement.get(set_id)
        if shard is not None:
            return shard
        for index, candidate in enumerate(self.shards):
            if not self.health.is_down(index) and candidate.context.document_store.exists(
                SETS_COLLECTION, set_id
            ):
                self._placement[set_id] = index
                return index
        raise DocumentNotFoundError(
            f"set {set_id!r} not found on any of the archive's "
            f"{self.num_shards} shard(s)"
        )

    def shard_of(self, set_id: str) -> int:
        """Which shard holds ``set_id`` (raises if unknown)."""
        with self._fleet_lock:
            return self._locate(set_id)

    def root_of(self, set_id: str) -> str:
        """The chain root of ``set_id`` (the set with no stored base).

        Walks ``base_set`` links through descriptor documents; memoized,
        and a missing base (e.g. garbage-collected) terminates the walk.
        """
        with self._fleet_lock:
            cached = self._root_of.get(set_id)
        if cached is not None:
            return cached
        shard = self.shard_of(set_id)
        chain = []
        current = set_id
        while True:
            with self._fleet_lock:
                known = self._root_of.get(current)
            if known is not None:
                root = known
                break
            chain.append(current)
            try:
                document = self.shards[shard].context.set_document(current)
            except DocumentNotFoundError:
                root = current
                break
            base = document.get("base_set")
            if base is None:
                root = current
                break
            current = base
        with self._fleet_lock:
            for seen in chain:
                self._root_of[seen] = root
        return root

    def _held(self, index: int) -> "list[str]":
        """The sets on shard ``index``: its own listing, so retention run
        on the shard directly shows at once; a DOWN shard cannot answer,
        so its last known placement stands in."""
        if self.health.is_down(index):
            with self._fleet_lock:
                return [s for s, shard in self._placement.items() if shard == index]
        return self.shards[index].list_sets()

    def list_sets(self) -> list[str]:
        """Ids of all committed sets across every shard, sorted."""
        return sorted(itertools.chain.from_iterable(map(self._held, range(self.num_shards))))

    def set_info(self, set_id: str) -> dict:
        """The raw descriptor document of a saved set: a plain dict the
        caller may edit (a :func:`~repro.storage.document_store.thaw` of
        the store's read-only document)."""
        return thaw(self.shards[self.shard_of(set_id)].context.set_document(set_id))

    def find_sets(
        self,
        architecture: str | None = None,
        approach: str | None = None,
        use_case: str | None = None,
    ) -> list[str]:
        """Ids of saved sets matching the given attributes, over every shard.

        ``use_case`` matches the set's :class:`SetMetadata.use_case`
        field; the other filters match descriptor fields directly.
        """
        filters: dict[str, Any] = {}
        if architecture is not None:
            filters["architecture"] = architecture
        if approach is not None:
            filters["type"] = approach
        matches = [
            match
            for shard in self.shards
            for match in shard.context.document_store.find(SETS_COLLECTION, **filters)
        ]
        if use_case is not None:
            matches = [
                (set_id, doc)
                for set_id, doc in matches
                if doc.get("metadata", {}).get("use_case") == use_case
            ]
        return sorted(set_id for set_id, _doc in matches)

    def total_stored_bytes(self) -> int:
        """Bytes currently held across every shard's stores."""
        return sum(shard.total_stored_bytes() for shard in self.shards)

    def shard_simulated_s(self) -> list[float]:
        """Per-shard simulated store seconds charged so far: shards run
        concurrently, so a fleet's time-to-save is the makespan (max) of
        the per-shard deltas, not their sum."""
        return [shard.context.simulated_s() for shard in self.shards]

    # -- routing core ------------------------------------------------------
    def allocate_save(
        self, base_set_id: "str | None" = None, shard: "int | None" = None
    ) -> tuple[str, int]:
        """Reserve the next set id and pick its shard.

        Split from :meth:`execute_save` so the ingest queue can allocate
        ids in dispatch order (deterministic) while the saves themselves
        run later on worker threads.  Derived saves follow their base's
        shard; initial saves hash the new id.  A caller that knows the
        chain's shard passes it: the ingest queue's base may be an
        allocation whose failed attempt has just dropped its placement
        while a retry is pending.
        """
        with self._fleet_lock:
            if base_set_id is not None and shard is None:
                shard = self._locate(base_set_id)
            set_id = f"set-{self.approach_name}-{next(self._ids):06d}"
            if base_set_id is None:
                shard = shard_for(set_id, self.num_shards)
            else:
                root = self._root_of.get(base_set_id)
                if root is not None:
                    # Propagate the chain root eagerly so a batch queued
                    # behind this (still unsaved) id resolves its chain.
                    self._root_of[set_id] = root
            self._placement[set_id] = shard
        return set_id, shard

    def forget_allocation(self, set_id: str) -> None:
        """Release an id from :meth:`allocate_save` whose save never ran
        (its number is not reused)."""
        self.forget_sets([set_id])

    def reinstate_allocation(
        self, set_id: str, shard: int, root: "str | None" = None
    ) -> None:
        """Restore the placement (and chain root) a failed
        :meth:`execute_save` dropped, before a flush retries the same
        allocation, so batches queued behind the id still resolve."""
        with self._fleet_lock:
            self._placement[set_id] = shard
            if root is not None:
                self._root_of[set_id] = root

    def forget_sets(self, set_ids: "list[str]") -> None:
        """Drop placement and chain-root bookkeeping for sets no longer on a shard
        (released allocations, :meth:`delete_sets`, a maintenance pass's
        post-commit hook).  No I/O; the catalog heard from the shard."""
        with self._fleet_lock:
            for set_id in set_ids:
                self._placement.pop(set_id, None)
                self._root_of.pop(set_id, None)

    def _envelope(self, operation: str, set_id: str, shard: int):
        """A fleet's ``fleet`` span + ``shard-<i>`` child (no-op plain or
        untraced): a root keyed by set id (deterministic span ids under
        concurrency), or a child of the current span, as
        :meth:`SaveContext.trace` nests."""
        if self.tracer is None or not self.sharded:
            return _NULL_CONTEXT
        return self._fleet_span(operation, set_id, shard)

    @contextmanager
    def _fleet_span(self, operation: str, set_id: str, shard: int):
        if _trace.active():
            with _trace.span("fleet", key=set_id, op=operation):
                with _trace.span(f"{SHARD_PREFIX}{shard}", shard=shard):
                    yield
            return
        with self.tracer.trace("fleet", key=set_id, op=operation):
            with _trace.span(f"{SHARD_PREFIX}{shard}", shard=shard):
                yield

    def execute_save(
        self,
        set_id: str,
        shard: int,
        model_set: ModelSet,
        base_set_id: "str | None" = None,
        update_info: "UpdateInfo | None" = None,
        metadata: "SetMetadata | None" = None,
        coalesce: "dict | None" = None,
        *,
        touched: "frozenset[int] | None" = None,
    ) -> str:
        """Run a save allocated by :meth:`allocate_save` on its shard.

        ``coalesce`` attaches the ingest queue's batch accounting to a
        ``coalesce`` span between the fleet envelope and the shard save.
        ``touched`` is the ingest queue's vouch that every other model
        is the base set's byte for byte; a derived Update save then
        hashes only those models (DESIGN.md §9), and any other approach
        never sees it.  The set is not frozen.
        """
        return self._run_save(
            set_id,
            shard,
            "save_set",
            "initial" if base_set_id is None else "derived",
            self._writer(shard, model_set, base_set_id, update_info, metadata, lambda: touched),
            coalesce,
        )

    def _writer(
        self,
        shard: int,
        model_set: ModelSet,
        base_set_id: "str | None",
        update_info: "UpdateInfo | None",
        metadata: "SetMetadata | None",
        touched: "Callable[[], frozenset[int] | None]",
    ) -> "Callable[[], str]":
        """The shard approach's save of ``model_set``; a derived save on an
        approach that :attr:`~SaveApproach.reads_touched` asks ``touched()``
        inside the save's span."""
        approach = self.shards[shard].approach
        if base_set_id is None:
            return lambda: approach.save_initial(model_set, metadata=metadata)
        if not approach.reads_touched:
            return lambda: approach.save_derived(
                model_set, base_set_id, update_info=update_info, metadata=metadata
            )
        return lambda: approach.save_derived(
            model_set,
            base_set_id,
            update_info=update_info,
            metadata=metadata,
            touched=touched(),
        )

    def _unproven(self, model_set: ModelSet, base_set_id: str) -> "frozenset[int] | None":
        """The identity test: the models of ``model_set`` whose row is not
        the one this engine's ``save_set`` of ``base_set_id`` froze at the
        same index (a caller's dict never is); ``None`` (every model) when
        that save is unknown here or had another length."""
        saved = self._saved_rows.get(base_set_id)
        if saved is None or len(saved.rows) != len(model_set):
            return None
        unproven = map(is_not, model_set.rows(), saved.rows)
        return frozenset(itertools.compress(itertools.count(), unproven))

    def _run_save(
        self,
        set_id: str,
        shard: int,
        span: str,
        mode: str,
        write: "Callable[[], str]",
        coalesce: "dict | None" = None,
        committed: "Callable[[], None] | None" = None,
    ) -> str:
        """Gate, lock and envelope one save, with ``set_id`` reserved on
        the shard; a save that fails before consuming its id drops the
        reservation and the optimistic placement.  ``committed`` runs
        after the commit, inside the save's span."""
        if not self.health.allow(shard):
            raise ShardUnavailableError(
                f"shard {shard} is down ({self.health.reason(shard)}); "
                f"refusing to save {set_id!r}",
                shard=shard,
                set_id=set_id,
            )
        target = self.shards[shard]
        context = target.context
        try:
            with target.lock:
                with self._envelope("save", set_id, shard):
                    context.reserve_set_id(set_id)
                    try:
                        with (
                            _NULL_CONTEXT
                            if coalesce is None
                            else _trace.span("coalesce", **coalesce)
                        ):
                            saved = self._save(target, span, mode, write, committed)
                    finally:
                        if context._reserved_set_id is not None:
                            context._reserved_set_id = None
                            self.forget_sets([set_id])
        except (OSError, StorageError) as error:
            # Storage-substrate failures drive the shard breaker; client
            # errors (bad plans, crashes the journal handles at reopen)
            # deliberately do not.
            self.health.record_failure(shard, error, saving=True)
            raise
        self.health.record_success(shard)
        if saved != set_id:  # pragma: no cover - defensive
            raise StorageError(
                f"shard {shard} saved under {saved!r}, expected {set_id!r}"
            )
        return saved

    @staticmethod
    def _save(
        shard: Shard,
        span: str,
        mode: str,
        write: "Callable[[], str]",
        committed: "Callable[[], None] | None" = None,
    ) -> str:
        """The one save wrapper: mutex → trace span → journal transaction →
        ``write()`` → catalog record, still inside the transaction so the
        record commits (or rolls back) atomically with the save — on a
        fleet shard, ``context.registry`` is the root catalog's binding,
        which applies the record once the shard commits — then
        ``committed()``, which a raise or rollback never reaches."""
        context = shard.context
        with context.mutex:
            with context.trace(span, approach=shard.approach.name, mode=mode):
                with context.save_transaction("save", shard.approach.name):
                    set_id = write()
                    if context.registry is not None:
                        context.registry.record_save(set_id)
                if committed is not None:
                    committed()
                return set_id

    # -- save / recover / delete -------------------------------------------
    def _allocated(self, base_set_id: "str | None", run: "Callable[[str, int], str]") -> str:
        """Allocate an id and run the save; a save that never happened
        (breaker refusal, storage failure) leaves no optimistic placement
        behind.  The ingest queue manages its own allocations.  One shard
        allocates under its lock, so its ids commit in id order, which
        the catalog's versions and ``Registry.rebuild`` rely on."""
        with self.shards[0].lock if len(self.shards) == 1 else _NULL_CONTEXT:
            set_id, shard = self.allocate_save(base_set_id)
            try:
                return run(set_id, shard)
            except BaseException:
                self.forget_allocation(set_id)
                raise

    def save_set(
        self,
        model_set: ModelSet,
        base_set_id: "str | None" = None,
        update_info: "UpdateInfo | None" = None,
        metadata: "SetMetadata | None" = None,
    ) -> str:
        """Persist a model set; derived saves pass their ``base_set_id``.

        On a journaled archive the save is one atomic commit (a crash
        rolls it back at the next :meth:`open`), serialized under the
        owning shard's mutex against every other writer of that shard.
        On an approach that :attr:`~SaveApproach.reads_touched` (Update),
        a committed save freezes ``model_set``'s rows (read-only private
        copies, :meth:`ModelSet.freeze`), and this engine remembers them
        while the set holds them: a later derived save from this set id
        hashes only the models whose row is not the one frozen at the
        same index (DESIGN.md §9).  On any other approach the set keeps
        its rows as handed in.
        """

        def run(set_id: str, shard: int) -> str:
            touched = None  # every model, unless the identity test ran

            def prove() -> "frozenset[int] | None":
                nonlocal touched
                touched = self._unproven(model_set, base_set_id)
                return touched

            def freeze() -> None:
                self._saved_rows[set_id] = model_set.freeze(touched)

            return self._run_save(
                set_id,
                shard,
                "save_set",
                "initial" if base_set_id is None else "derived",
                self._writer(shard, model_set, base_set_id, update_info, metadata, prove),
                committed=freeze if self.shards[shard].approach.reads_touched else None,
            )

        return self._allocated(base_set_id, run)

    def save_set_streaming(
        self,
        architecture: str,
        states,
        num_models: int,
        metadata: SetMetadata | None = None,
    ) -> str:
        """Persist an initial set from an iterable of state dicts.

        :meth:`save_set` over an iterable: Baseline, the fp16 tier and
        Update consume it in one validating pass with peak memory of one
        block (a set within one block is a single ``put``, exactly the
        materialized save); other approaches fall back to materializing.
        """

        def run(set_id: str, shard: int) -> str:
            approach = self.shards[shard].approach
            return self._run_save(
                set_id,
                shard,
                "save_set_streaming",
                "initial",
                lambda: approach.save_initial_streaming(
                    architecture, states, num_models, metadata=metadata
                ),
            )

        return self._allocated(None, run)

    def _refuse_read(self, set_id: str, shard: int, model_index=None):
        """DOWN-shard read: a stale-but-committed serving-cache hit
        (counted in ``stale_hits``), else a typed refusal."""
        serving = self.shards[shard].context.serving
        if serving is not None:
            served = serving.serve_stale(set_id, model_index=model_index)
            if served is not None:
                return served
        raise ShardUnavailableError(
            f"shard {shard} is down ({self.health.reason(shard)}) and "
            f"{set_id!r} is not servable from its cache",
            shard=shard,
            set_id=set_id,
        )

    def recover_set(
        self,
        set_id: "str | None" = None,
        salvage: bool = False,
        *,
        family: "str | None" = None,
        tag: "str | None" = None,
    ):
        """Reconstruct a saved model set from the shard that owns it.

        Named by raw ``set_id`` or by catalog coordinates (``family=``,
        optional ``tag=``, default ``"latest"``); both spellings recover
        identical bytes.  Returns a :class:`ModelSet` of read-only rows
        (``copy()`` is the writable copy; :mod:`repro.core.model_set`)
        and raises on any corruption; ``salvage=True`` returns a
        :class:`~repro.core.fsck.SalvageReport` of every model that still
        verifies and why the others were lost, bypassing the serving
        cache (:class:`~repro.config.ServingConfig`), which otherwise
        fronts the read with byte-identical results.  A DOWN fleet shard
        serves the set stale from its cache, else raises
        :class:`~repro.errors.ShardUnavailableError`.
        """
        if family is not None:
            if set_id is not None:
                raise ValueError("pass either set_id or family=..., not both")
            if self._catalog is None:
                raise RegistryError(
                    "this archive maintains no registry "
                    "(ArchiveConfig(registry=False)); recover by raw set id"
                )
            set_id = self._catalog.resolve(family, tag if tag is not None else "latest")
        elif tag is not None:
            raise ValueError("tag= requires family=")
        elif set_id is None:
            raise ValueError("recover_set needs a set_id or family=...")
        shard = self.shard_of(set_id)
        if not self.health.gate_read(shard):
            return self._refuse_read(set_id, shard)
        return self._read_set(shard, set_id, salvage)

    def _read(self, shard: int, set_id: str, span: str, read, **attrs):
        """Run ``read(approach, context)`` on ``shard`` under its lock, the
        fleet envelope and the ``span`` span."""
        target = self.shards[shard]
        with target.lock:
            with self._envelope(attrs.pop("op", span), set_id, shard):
                with target.context.trace(
                    span, approach=target.approach.name, set_id=set_id, **attrs
                ):
                    return read(target.approach, target.context)

    def _read_set(self, shard: int, set_id: str, salvage: bool = False):
        """One whole-set read on ``shard``: salvage, the serving cache, or
        the approach's own recovery."""

        def read(approach: SaveApproach, context: SaveContext):
            if salvage:
                from repro.core.fsck import salvage_recover

                return salvage_recover(context, set_id)
            if context.serving is not None:
                return context.serving.recover_set(set_id, approach)
            return approach.recover(set_id)

        return self._read(shard, set_id, "recover_set", read, op="recover")

    def recover_set_for_flush(self, set_id: str):
        """Materialization read for the ingest flush path: never gated.

        The flush's save is what the health breaker admits (its half-open
        probes included); gating this read too would refuse every probe
        before its save could run.  The serving cache still fronts it; a
        cold read of a dead store fails into the retry/dead-letter path.
        """
        return self._read_set(self.shard_of(set_id), set_id)

    def recover_model(self, set_id: str, model_index: int):
        """Reconstruct a single model's parameter dictionary.

        Much cheaper than :meth:`recover_set` for the paper's
        post-accident-analysis scenario: all approaches use range reads
        or per-model provenance replay instead of materializing the set.
        Returns a :class:`~repro.nn.serialization.ModelState` over a
        read-only row (``copy()`` is the writable copy).
        """
        shard = self.shard_of(set_id)
        if not self.health.gate_read(shard):
            return self._refuse_read(set_id, shard, model_index=model_index)

        def read(approach, context):
            if context.serving is not None:
                return context.serving.recover_model(set_id, model_index, approach)
            return approach.recover_model(set_id, model_index)

        return self._read(shard, set_id, "recover_model", read, model_index=model_index)

    def delete_sets(self, set_ids: "list[str]") -> dict[int, object]:
        """Garbage-collect the given sets from their shards.

        Routes each id to its owning shard and runs one retention pass
        per affected shard (keeping everything else).  Chain ancestors
        still needed by surviving descendants are retained, exactly as
        single-archive GC does.  Returns ``{shard_index:
        CollectionReport}``.
        """
        from repro.core.retention import RetentionManager

        doomed_by_shard: dict[int, set[str]] = {}
        for set_id in set_ids:
            doomed_by_shard.setdefault(self.shard_of(set_id), set()).add(set_id)
        reports: dict[int, object] = {}
        for index, doomed in sorted(doomed_by_shard.items()):
            shard = self.shards[index]
            keep = [sid for sid in shard.list_sets() if sid not in doomed]
            with shard.lock:
                report = RetentionManager(shard.context).collect(keep=keep)
            reports[index] = report
            self.forget_sets(list(report.deleted_sets))
        return reports
