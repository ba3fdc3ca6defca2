"""Sharded fleet engine: N independent archive shards behind one facade.

A :class:`FleetManager` owns ``config.shards`` full archives (each with
its own journal, chunk store, replicas, and stats) and routes every
save/recover/delete to exactly one of them:

* **initial saves** hash their (fleet-allocated) set id with
  :func:`shard_for` — a stable ``sha256(set_id) % num_shards``, so the
  same id lands on the same shard across processes and reopens;
* **derived saves** follow their base set's shard, keeping every
  recovery chain shard-local (recovering a set never crosses shards).

Set ids come from one fleet-wide counter and are *reserved* on the
owning shard's context before the save runs
(:meth:`~repro.core.approach.SaveContext.reserve_set_id`), so a
one-shard fleet allocates the exact id sequence a plain
:class:`~repro.core.manager.MultiModelManager` would — and produces a
byte-identical archive under ``shard-0/``.

Concurrency: there is **no cross-shard lock**.  Each shard's context
mutex is wrapped in a :class:`~repro.observability.metrics.TimedLock`,
so lock-wait seconds are a per-shard measurement (exported as
``fleet_shard_<i>_lock_wait_s``) rather than an assumption; the only
fleet-wide lock guards the id counter and the placement map, held for
dictionary operations only — never across storage I/O.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Any

from repro.config import (
    ArchiveConfig,
    MaintenanceConfig,
    ObservabilityConfig,
    ServingConfig,
)
from repro.core.manager import MultiModelManager
from repro.core.model_set import ModelSet
from repro.core.save_info import SetMetadata, UpdateInfo
from repro.errors import (
    ConfigError,
    DocumentNotFoundError,
    ShardUnavailableError,
    StorageError,
)
from repro.fleet.health import FleetHealthTracker
from repro.observability import trace as _trace
from repro.observability.metrics import TimedLock
from repro.storage.persistent import SHARD_PREFIX, detect_shards, shard_roots


def shard_for(set_id: str, num_shards: int) -> int:
    """The shard owning ``set_id``: stable hash, independent of process.

    Uses the first 8 bytes of ``sha256(set_id)`` so placement survives
    reopen, other processes, and Python hash randomization.
    """
    if num_shards <= 1:
        return 0
    digest = hashlib.sha256(set_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % num_shards


def _shard_config(config: ArchiveConfig) -> ArchiveConfig:
    """Per-shard config: no nested sharding, observability fleet-owned.

    The fleet installs one shared trace recorder and registers its own
    per-shard metrics providers, so shards must not each grab the global
    registry under colliding names.  Serving is likewise fleet-owned:
    the fleet installs one cache per shard sharing a single tier-2
    chunk cache (chunk content addressing is shard-agnostic), so shards
    must not each build a private one.
    """
    return config.with_(
        shards=None,
        observability=ObservabilityConfig(),
        serving=ServingConfig(),
        # Maintenance is likewise fleet-owned: one scheduler coordinates
        # every shard (see repro.maintenance), shards never self-schedule.
        maintenance=MaintenanceConfig(),
        # The registry too: the fleet keeps ONE catalog at the root
        # (outside every shard, like deadletter/) so cross-shard families
        # resolve in one place; shards must not each grow a private one
        # (each records through its binding of the root catalog).
        registry=False,
    )


class FleetManager:
    """Facade routing archive operations across independent shards.

    Build one with :meth:`with_approach` (in-memory shards) or
    :meth:`open` (durable shards under ``root/shard-<i>/``).  The API
    mirrors :class:`~repro.core.manager.MultiModelManager` — same
    ``save_set``/``recover_set``/``list_sets`` signatures, driven by the
    same :class:`~repro.config.ArchiveConfig` (plus the ``shards``
    knob) — so callers scale out without changing call sites.
    """

    def __init__(
        self,
        shards: "list[MultiModelManager]",
        approach_name: str,
        config: ArchiveConfig,
        root: "Path | None" = None,
        down_at_open: "dict[int, str] | None" = None,
    ) -> None:
        if not shards:
            raise ConfigError("a fleet needs at least one shard")
        self.shards = shards
        self.approach_name = approach_name
        self.config = config
        self.root = root
        import threading

        #: Fleet-wide lock for id allocation + placement bookkeeping only.
        #: Never held across storage I/O.
        self._fleet_lock = threading.Lock()
        self._placement: dict[str, int] = {}
        self._root_of: dict[str, str] = {}
        self._next_id = 0
        #: Per-shard timed wrappers of each context's own mutex: fleet
        #: saves acquire through these so contention is measured.
        self.shard_locks: list[TimedLock] = []
        self.tracer = None
        self.metrics = None
        #: Per-shard serving caches (empty when serving is disabled);
        #: all of them share :attr:`chunk_cache` as their tier 2.
        self.serving_caches: list = []
        self.chunk_cache = None
        #: Per-shard circuit breakers gating every save/recover route.
        self.health = FleetHealthTracker(
            len(shards), config.health, on_transition=self._on_health_transition
        )
        self._deadletter = None
        self._deadletter_lock = threading.Lock()
        self._registry = None
        self._registry_lock = threading.Lock()
        self._init_bookkeeping()
        self._init_observability()
        self._init_serving()
        self._init_catalog()
        for shard, reason in sorted((down_at_open or {}).items()):
            self.health.pin_down(shard, reason)

    # -- construction ------------------------------------------------------
    @classmethod
    def with_approach(
        cls,
        name: str,
        config: "ArchiveConfig | None" = None,
        **approach_kwargs: Any,
    ) -> "FleetManager":
        """In-memory fleet of ``config.shards`` shards (default 1)."""
        config = config if config is not None else ArchiveConfig()
        num = int(config.shards) if config.shards is not None else 1
        shard_config = _shard_config(config)
        managers = [
            MultiModelManager.with_approach(name, shard_config, **approach_kwargs)
            for _ in range(num)
        ]
        return cls(managers, name, config)

    @classmethod
    def open(
        cls,
        directory: "str | Path",
        approach: str,
        config: "ArchiveConfig | None" = None,
        **approach_kwargs: Any,
    ) -> "FleetManager":
        """Open (or create) a durable fleet rooted at ``directory``.

        ``config.shards=None`` auto-detects the on-disk ``shard-<i>/``
        topology (like replica auto-detection), so reopening needs no
        flags; a fresh directory defaults to one shard.  The topology
        rule (:func:`~repro.storage.persistent.shard_roots`) refuses a
        plain archive (:class:`~repro.errors.StorageError`) and a shard
        count contradicting the detected layout
        (:class:`~repro.errors.ConfigError`).
        """
        config = config if config is not None else ArchiveConfig()
        root = Path(directory)
        shards = config.shards
        roots, missing = shard_roots(
            root, shards if shards is not None else max(detect_shards(root), 1)
        )
        # No shard directory at all is a fresh fleet: create every shard.
        existing = len(missing) < len(roots)
        shard_config = _shard_config(config)
        managers = []
        down_at_open: dict[int, str] = {}
        for index, shard_dir in enumerate(roots):
            # On an *existing* fleet a missing or unreadable shard
            # directory pins that shard DOWN behind an in-memory
            # placeholder instead of crashing the open (or silently
            # recreating the shard empty).
            if existing and index in missing:
                down_at_open[index] = f"shard directory missing at open: {shard_dir}"
            else:
                try:
                    managers.append(
                        MultiModelManager.open(
                            str(shard_dir), approach, shard_config, **approach_kwargs
                        )
                    )
                    continue
                except (OSError, StorageError) as error:
                    if not existing:
                        raise
                    down_at_open[index] = (
                        f"shard unreadable at open: {type(error).__name__}: {error}"
                    )
            managers.append(
                MultiModelManager.with_approach(approach, shard_config, **approach_kwargs)
            )
        return cls(
            managers, approach, config, root=root, down_at_open=down_at_open
        )

    # -- bookkeeping -------------------------------------------------------
    def _init_bookkeeping(self) -> None:
        """Rebuild placement and the fleet id counter from shard contents.

        Management-plane reads only (collection listings are uncharged),
        so reopening a fleet costs the same as reopening its shards.
        """
        highest = -1
        for index, manager in enumerate(self.shards):
            for set_id in manager.list_sets():
                self._placement[set_id] = index
                suffix = set_id.rsplit("-", 1)[-1]
                if suffix.isdigit():
                    highest = max(highest, int(suffix))
        self._next_id = highest + 1

    def _init_observability(self) -> None:
        settings = self.config.observability
        if settings.tracing:
            from repro.observability.trace import TraceRecorder, install_tracing

            recorder = TraceRecorder()
            for manager in self.shards:
                install_tracing(manager.context, recorder)
            self.tracer = recorder
        if settings.metrics:
            from repro.observability.metrics import global_registry

            registry = global_registry()
            self.metrics = registry
            registry.gauge(
                "fleet_shards", "number of archive shards in the fleet"
            ).set(self.num_shards)
            for index, manager in enumerate(self.shards):
                context = manager.context
                context.metrics = registry
                registry.register_stats(
                    f"fleet_shard_{index}_file_store", context.file_store.stats
                )
                registry.register_stats(
                    f"fleet_shard_{index}_document_store",
                    context.document_store.stats,
                )
        counters = [
            (
                self.metrics.counter(
                    f"fleet_shard_{index}_lock_wait_s_total",
                    "seconds fleet operations spent waiting on this "
                    "shard's mutex",
                )
                if self.metrics is not None
                else None
            )
            for index in range(self.num_shards)
        ]
        self.shard_locks = [
            TimedLock(lock=manager.context.mutex, counter=counter)
            for manager, counter in zip(self.shards, counters)
        ]
        if self.metrics is not None:
            self.metrics.register_provider("fleet:shards", self._shard_metrics)

    def _init_serving(self) -> None:
        """Install the per-shard serving caches over one shared tier 2.

        Tier-2 entries are keyed by chunk content hash, so one
        :class:`~repro.serving.ChunkCache` spans every shard: a chunk
        fetched while serving shard 0 is a free hit when a near-duplicate
        set on shard 3 needs the same bytes.  Tier 1 stays per-shard (a
        set materializes on the shard that owns it).
        """
        settings = self.config.serving
        if not settings.enabled:
            return
        from repro.serving import ChunkCache, ServingCache

        self.chunk_cache = ChunkCache(settings.chunk_cache_bytes)
        for index, manager in enumerate(self.shards):
            cache = ServingCache(
                manager.context, settings, chunk_cache=self.chunk_cache
            )
            manager.context.serving = cache
            self.serving_caches.append(cache)
            if self.metrics is not None:
                cache.register_metrics(
                    self.metrics, prefix=f"fleet_shard_{index}_serving"
                )

    def _init_catalog(self) -> None:
        """Make the root catalog every shard's ``context.registry``.

        Each shard gets a binding (:meth:`~repro.registry.Registry.bind`),
        so a save, compaction or deletion on the shard — however it is
        driven — records itself and reaches the catalog when the shard
        commits.  Bound when ``config.registry`` is on or a durable
        catalog already exists; otherwise no ``registry/`` is created.
        """
        from repro.registry import REGISTRY_DIR

        if not (
            self.config.registry
            or (self.root is not None and (self.root / REGISTRY_DIR).is_dir())
        ):
            return
        for index, manager in enumerate(self.shards):
            manager.context.registry = self.registry.bind(index, manager.context)

    def serving_counters(self) -> "dict | None":
        """Fleet-wide serving counter aggregate (``None`` when disabled)."""
        if not self.serving_caches:
            return None
        totals: dict = {}
        for cache in self.serving_caches:
            for name, value in cache.counters().items():
                if name.endswith("_rate"):
                    continue
                # Tier 2 is one shared cache; summing its gauges over
                # shards would multiply them by the shard count.
                if name.startswith("chunk_cache_"):
                    totals[name] = value
                    continue
                totals[name] = totals.get(name, 0) + value
        set_lookups = totals.get("set_hits", 0) + totals.get("set_misses", 0)
        chunk_lookups = totals.get("chunk_hits", 0) + totals.get("chunk_misses", 0)
        totals["set_hit_rate"] = (
            totals.get("set_hits", 0) / set_lookups if set_lookups else 0.0
        )
        totals["chunk_hit_rate"] = (
            totals.get("chunk_hits", 0) / chunk_lookups if chunk_lookups else 0.0
        )
        return totals

    def _shard_metrics(self) -> dict:
        values: dict[str, float] = {}
        with self._fleet_lock:
            placement = dict(self._placement)
        for index, manager in enumerate(self.shards):
            prefix = f"fleet_shard_{index}"
            values[f"{prefix}_sets"] = sum(
                1 for shard in placement.values() if shard == index
            )
            values[f"{prefix}_stored_bytes"] = manager.total_stored_bytes()
            values[f"{prefix}_simulated_s"] = self.shard_simulated_s()[index]
            values[f"{prefix}_lock_wait_s"] = self.shard_locks[index].wait_s
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
        if self.tracer is not None:
            if _trace.active():
                _trace.add_event(
                    "health-transition",
                    shard=shard,
                    old=old,
                    new=new,
                    reason=reason,
                )
            else:
                # No span is current (e.g. the transition fired from a
                # bookkeeping path): record a zero-length marker span so
                # the event still lands in the trace.
                with self.tracer.trace(
                    "health-transition",
                    key=f"health-{SHARD_PREFIX}{shard}",
                    shard=shard,
                    old=old,
                    new=new,
                ):
                    _trace.add_event(
                        "health-transition",
                        shard=shard,
                        old=old,
                        new=new,
                        reason=reason,
                    )

    @property
    def deadletter(self):
        """The fleet's dead-letter store, built on first use.

        Durable fleets keep it under ``root/deadletter/`` — outside every
        shard directory, so parking still works while a shard is DOWN;
        in-memory fleets get an in-memory store.  Lazy so that fleets
        which never park anything never grow a ``deadletter/`` subtree.
        """
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
        """The fleet-level model registry, built on first use.

        Durable fleets keep it under ``root/registry/`` — outside every
        shard directory, like ``deadletter/``, so the catalog stays
        queryable while a shard is DOWN; in-memory fleets get an
        in-memory catalog.  Version records carry their owning shard, so
        :meth:`recover_set` routes ``family=``/``tag=`` recoveries
        through the placement map without touching other shards.  The
        shards record into it through their bindings (see
        :meth:`_init_catalog`), never the fleet on their behalf.
        """
        with self._registry_lock:
            if self._registry is None:
                from repro.registry import REGISTRY_DIR, open_fleet_registry

                directory = (
                    self.root / REGISTRY_DIR if self.root is not None else None
                )
                self._registry = open_fleet_registry(
                    directory,
                    resolver=lambda shard: self.shards[shard].context,
                    metrics=lambda: self.metrics,
                )
            return self._registry

    def rebuild_registry(self) -> int:
        """Re-derive the fleet catalog from every shard's descriptors.

        The ``repro-archive <root> register --rebuild`` entry point for
        pre-existing fleets (or after losing the ``registry/`` subtree).
        Returns the number of sets registered.
        """
        return self.registry.rebuild(
            [(index, manager.context) for index, manager in enumerate(self.shards)]
        )

    # -- introspection -----------------------------------------------------
    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def shard_of(self, set_id: str) -> int:
        """Which shard holds ``set_id`` (raises if unknown)."""
        with self._fleet_lock:
            try:
                return self._placement[set_id]
            except KeyError:
                raise DocumentNotFoundError(
                    f"set {set_id!r} not found on any of the fleet's "
                    f"{self.num_shards} shard(s)"
                ) from None

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

    def list_sets(self) -> list[str]:
        """Ids of all sets across every shard, sorted."""
        with self._fleet_lock:
            return sorted(self._placement)

    def set_info(self, set_id: str) -> dict:
        return self.shards[self.shard_of(set_id)].set_info(set_id)

    def find_sets(self, **filters: Any) -> list[str]:
        """Union of :meth:`MultiModelManager.find_sets` over all shards."""
        matches: list[str] = []
        for manager in self.shards:
            matches.extend(manager.find_sets(**filters))
        return sorted(matches)

    def total_stored_bytes(self) -> int:
        return sum(manager.total_stored_bytes() for manager in self.shards)

    def shard_simulated_s(self) -> list[float]:
        """Per-shard simulated store seconds charged so far.

        The fleet's time-to-save is the *makespan* of these lanes —
        shards run concurrently, so fleet TTS is the max over shards of
        the per-shard simulated delta, not the sum.
        """
        totals = []
        for manager in self.shards:
            file_stats = manager.context.file_store.stats
            doc_stats = manager.context.document_store.stats
            totals.append(
                file_stats.simulated_write_s
                + file_stats.simulated_read_s
                + doc_stats.simulated_write_s
                + doc_stats.simulated_read_s
            )
        return totals

    @property
    def recovery_reports(self) -> list:
        """Per-shard crash-recovery reports (``None`` when unjournaled)."""
        return [manager.recovery_report for manager in self.shards]

    # -- routing core ------------------------------------------------------
    def allocate_save(self, base_set_id: "str | None" = None) -> tuple[str, int]:
        """Reserve the next fleet set id and pick its shard.

        Split from :meth:`execute_save` so the ingest queue can allocate
        ids in dispatch order (deterministic) while the saves themselves
        run later on worker threads.  Derived saves follow their base's
        shard; initial saves hash the new id.
        """
        with self._fleet_lock:
            if base_set_id is not None:
                try:
                    shard = self._placement[base_set_id]
                except KeyError:
                    raise DocumentNotFoundError(
                        f"base set {base_set_id!r} not found on any shard"
                    ) from None
            set_id = f"set-{self.approach_name}-{self._next_id:06d}"
            self._next_id += 1
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
        """Release an id from :meth:`allocate_save` whose save never ran.

        The id number itself is not reused (fleet ids may skip), but the
        placement entry must go so the id stops appearing in listings.
        """
        self.forget_sets([set_id])

    def reinstate_allocation(
        self, set_id: str, shard: int, root: "str | None" = None
    ) -> None:
        """Restore placement for a previously allocated id before a retry.

        :meth:`execute_save` drops the optimistic placement (and chain
        root) when a save fails; a flush retry of the *same* allocation
        must put them back so the retried save and any batches queued
        behind the id still resolve.
        """
        with self._fleet_lock:
            self._placement[set_id] = shard
            if root is not None:
                self._root_of[set_id] = root

    def forget_sets(self, set_ids: "list[str]") -> None:
        """Drop placement/root bookkeeping for sets no longer on a shard.

        Placement only, no I/O: released allocations, :meth:`delete_sets`
        and the post-commit hook of a
        :class:`~repro.maintenance.MaintenanceScheduler` pass (the ids it
        deleted).  The catalog heard each deletion from the shard itself.
        """
        with self._fleet_lock:
            for set_id in set_ids:
                self._placement.pop(set_id, None)
                self._root_of.pop(set_id, None)

    @contextmanager
    def _fleet_span(self, operation: str, set_id: str, shard: int):
        """``fleet`` root span + ``shard-<i>`` child envelope (no-op untraced).

        Roots are keyed by set id so concurrently recorded fleet
        operations keep deterministic span ids.  When some span is
        already current (e.g. a caller's per-request envelope), the
        fleet span nests as a child instead — mirroring
        :meth:`SaveContext.trace` — so one request exports as a single
        tree whose phases sum to its simulated time.
        """
        if self.tracer is None:
            yield
            return
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
        hashes only those models (DESIGN.md §9).
        """
        if not self.health.allow(shard):
            raise ShardUnavailableError(
                f"shard {shard} is down ({self.health.reason(shard)}); "
                f"refusing to save {set_id!r}",
                shard=shard,
                set_id=set_id,
            )
        manager = self.shards[shard]
        try:
            with self.shard_locks[shard]:
                with self._fleet_span("save", set_id, shard):
                    context = manager.context
                    context.reserve_set_id(set_id)
                    try:
                        with (
                            nullcontext()
                            if coalesce is None
                            else _trace.span("coalesce", **coalesce)
                        ):
                            saved = manager._save_set(
                                model_set, base_set_id, update_info, metadata, touched
                            )
                    finally:
                        if context._reserved_set_id is not None:
                            # The save failed before consuming its id; drop
                            # the reservation and the optimistic placement.
                            context._reserved_set_id = None
                            with self._fleet_lock:
                                self._placement.pop(set_id, None)
                                self._root_of.pop(set_id, None)
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

    # -- save / recover / delete -------------------------------------------
    def save_set(
        self,
        model_set: ModelSet,
        base_set_id: "str | None" = None,
        update_info: "UpdateInfo | None" = None,
        metadata: "SetMetadata | None" = None,
    ) -> str:
        """Persist a model set on its shard; same contract as the
        single-archive :meth:`MultiModelManager.save_set`."""
        set_id, shard = self.allocate_save(base_set_id)
        try:
            return self.execute_save(
                set_id,
                shard,
                model_set,
                base_set_id=base_set_id,
                update_info=update_info,
                metadata=metadata,
            )
        except BaseException:
            # A save that never happened (breaker refusal, storage
            # failure) must not leave its optimistic placement behind as
            # a phantom listing.  Idempotent with execute_save's own
            # mid-save cleanup; the ingest queue manages its allocations
            # itself (retry reinstates, exhaustion forgets).
            self.forget_allocation(set_id)
            raise


    def _refuse_read(self, set_id: str, shard: int, model_index=None):
        """DOWN-shard read: stale serving-cache hit or a typed refusal.

        The shard's tier-1 serving cache holds only committed states, so
        serving from it while the shard is DOWN is stale-but-committed —
        allowed, and counted (``stale_hits``) so operators can see how
        much traffic is riding the cache through an outage.
        """
        if shard < len(self.serving_caches):
            served = self.serving_caches[shard].serve_stale(
                set_id, model_index=model_index
            )
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
        """Reconstruct a set from whichever shard owns it.

        The set is named by raw id or by registry coordinates
        (``family=`` plus optional ``tag=``, default ``"latest"``) —
        resolved through the fleet-level catalog, then routed via the
        placement map exactly like an id-based recovery.

        Recovery never crosses shards: derived saves were routed to
        their base's shard, so the whole chain is local.  A DOWN shard is
        routed around: the set is served stale from the shard's serving
        cache when possible, else :class:`ShardUnavailableError`.
        """
        if family is not None or tag is not None or set_id is None:
            from repro.core.manager import _resolve_set_id

            set_id = _resolve_set_id(
                self.registry if self.config.registry else None,
                set_id,
                family=family,
                tag=tag,
            )
        shard = self.shard_of(set_id)
        if not self.health.gate_read(shard):
            return self._refuse_read(set_id, shard)
        with self.shard_locks[shard]:
            with self._fleet_span("recover", set_id, shard):
                return self.shards[shard].recover_set(set_id, salvage=salvage)

    def recover_set_for_flush(self, set_id: str):
        """Materialization read for the ingest flush path: never gated.

        A flush must rebuild its chain head before it can attempt the
        save, and the save itself is what :meth:`FleetHealthTracker.allow`
        admits (including the half-open probes that close the breaker).
        Routing this read through :meth:`FleetHealthTracker.gate_read`
        would therefore make probes unreachable — the read refusal would
        fail every attempt before the probe's save could run.  The
        shard's serving cache still fronts the read (it is read-through),
        so a cached head costs no store I/O either way; a cold read
        against a genuinely dead store fails like any storage error and
        feeds the normal retry/dead-letter path.
        """
        shard = self.shard_of(set_id)
        with self.shard_locks[shard]:
            with self._fleet_span("recover", set_id, shard):
                return self.shards[shard].recover_set(set_id)

    def recover_model(self, set_id: str, model_index: int):
        shard = self.shard_of(set_id)
        if not self.health.gate_read(shard):
            return self._refuse_read(set_id, shard, model_index=model_index)
        with self.shard_locks[shard]:
            with self._fleet_span("recover_model", set_id, shard):
                return self.shards[shard].recover_model(set_id, model_index)

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
        for shard, doomed in sorted(doomed_by_shard.items()):
            manager = self.shards[shard]
            keep = [sid for sid in manager.list_sets() if sid not in doomed]
            with self.shard_locks[shard]:
                report = RetentionManager(manager.context).collect(keep=keep)
            reports[shard] = report
            self.forget_sets(list(report.deleted_sets))
        return reports
