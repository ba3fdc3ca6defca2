"""The consolidated archive configuration (`ArchiveConfig`).

Every knob the storage stack grew across PRs — hardware profile, engine
parallelism, dedup, journaling, retries, replication quorums, and now
observability — lives in one frozen dataclass that
:meth:`~repro.core.manager.MultiModelManager.with_approach`,
:meth:`~repro.core.manager.MultiModelManager.open`,
:meth:`~repro.core.approach.SaveContext.create` and the CLI all accept::

    config = ArchiveConfig(profile=SERVER_PROFILE, workers=4, dedup=True,
                           replicas=3, observability=ObservabilityConfig(tracing=True))
    manager = MultiModelManager.with_approach("update", config)

The pre-config keyword arguments (``workers=``, ``dedup=``, ...) were
removed with their deprecation shim: they raise :class:`TypeError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING, Any

from repro.errors import ConfigError
from repro.storage.hardware import LOCAL_PROFILE, HardwareProfile

if TYPE_CHECKING:
    from repro.storage.faults import RetryPolicy
    from repro.storage.replication import ReplicationPolicy

@dataclass(frozen=True)
class ObservabilityConfig:
    """Tracing/metrics settings of an archive context."""

    #: Record hierarchical spans for every save/recover/scrub (see
    #: :mod:`repro.observability.trace`).  Off by default: the disabled
    #: path is a shared no-op and adds nothing to hot loops.
    tracing: bool = False
    #: Re-export the context's :class:`StorageStats` through the
    #: process-wide :func:`repro.observability.metrics.global_registry`.
    metrics: bool = False
    #: Where CLI/benchmark entry points export the JSON trace document
    #: (``None`` keeps traces in memory on ``context.tracer``).
    trace_path: str | None = None


@dataclass(frozen=True)
class ServingConfig:
    """Read-path (serving) cache settings of an archive context.

    The serving cache sits in front of ``recover_set``/``recover_model``
    and is tiered: tier 1 holds fully materialized model sets under a
    byte budget, tier 2 holds decoded chunks keyed by their chunk-store
    SHA-256 (shared across sets — and across fleet shards), tier 3 is
    the store itself.  Cache hits charge **zero** simulated store time;
    a cold miss charges exactly what the uncached read path charges, at
    every ``workers`` setting, and a warm one only fetches the slots
    whose digest tier 2 lacks (sets without stored digests skip tier 2).
    """

    #: Serve recoveries through the tiered cache.  Off by default: the
    #: disabled path leaves ``recover_set`` byte-for-byte on the classic
    #: approach code.
    enabled: bool = False
    #: Byte budget of the tier-1 materialized-set LRU (0 disables tier 1).
    set_cache_bytes: int = 256 * 1024 * 1024
    #: Byte budget of the tier-2 decoded-chunk LRU (0 disables tier 2).
    chunk_cache_bytes: int = 256 * 1024 * 1024


@dataclass(frozen=True)
class MaintenanceConfig:
    """Background-maintenance settings of an archive or fleet.

    Consumed by :class:`~repro.maintenance.MaintenanceScheduler`: each
    pass runs the enabled tasks per shard as one journal transaction
    (GC, compaction, chunk sweep) plus post-commit replica work (repair
    drain, anti-entropy scrub), paced against the shared
    :class:`~repro.simtime.SimClock` so maintenance consumes at most a
    ``duty_cycle`` fraction of simulated time.
    """

    #: Run maintenance passes at all.  Off by default: an archive with
    #: no scheduler attached behaves exactly as before.
    enabled: bool = False
    #: Minimum simulated seconds between the *starts* of two passes.
    interval_s: float = 60.0
    #: Fraction of simulated time maintenance may consume (a pass that
    #: charged ``c`` simulated seconds pushes the next pass out by at
    #: least ``c * (1 - duty_cycle) / duty_cycle``).
    duty_cycle: float = 0.25
    #: Retention policy: keep the newest N sets fleet-wide and collect
    #: the rest (``None`` disables the GC task).
    gc_keep_last: int | None = None
    #: Compact delta chains at or beyond this depth into full snapshots
    #: (``None`` leaves compaction to the retention policy alone).
    compact_chain_depth: int | None = None
    #: Run a rolling anti-entropy scrub — one shard per pass — on
    #: replicated archives (no-op otherwise).
    scrub: bool = True
    #: Re-hash every replica copy during scrub (catches torn writes;
    #: shallow trusts recorded digests).
    scrub_deep: bool = False


@dataclass(frozen=True)
class FleetHealthConfig:
    """Fleet-level graceful-degradation settings.

    Consumed by a fleet's engine and its
    :class:`~repro.fleet.IngestQueue` (a plain archive runs with it off): a
    per-shard health state machine (HEALTHY → DEGRADED → DOWN →
    half-open probe) driven by consecutive save/flush failures, bounded
    ingest admission so a stuck shard cannot grow the queue without
    bound, and flush retry with exponential backoff feeding a durable
    dead-letter store after exhaustion.
    """

    #: Track shard health and apply admission control at all.  With this
    #: off the fleet behaves exactly as before: no gating, no retries,
    #: no dead-lettering.
    enabled: bool = True
    #: Consecutive save/flush failures that mark a shard DEGRADED
    #: (observable warning state; traffic still flows).
    degraded_after: int = 1
    #: Consecutive save/flush failures that mark a shard DOWN (breaker
    #: open: operations are refused with ``ShardUnavailableError``).
    down_after: int = 3
    #: While DOWN, let every Nth refused operation through as a
    #: half-open probe; a probe success closes the breaker.
    probe_interval_ops: int = 8
    #: Admission policy once a shard's pending ingest load reaches the
    #: high watermark: ``"block"`` waits (up to ``block_deadline_s``
    #: wall seconds) for the load to drain to the low watermark;
    #: ``"shed"`` refuses the newest submission with
    #: ``IngestBackpressureError`` immediately.
    backpressure: str = "block"
    #: Per-shard pending model-state entries (queued + in flight) at
    #: which admission control engages.
    high_watermark: int = 256
    #: Pending level a blocked submission waits for before proceeding
    #: (hysteresis: must be <= high_watermark).
    low_watermark: int = 64
    #: Wall-clock seconds a blocking submission waits before raising
    #: ``IngestBackpressureError`` (blocking needs worker threads to
    #: drain concurrently; with ``workers=0`` the deadline is immediate).
    block_deadline_s: float = 5.0
    #: Flush retries after the first failed attempt, with exponential
    #: backoff charged to the queue's shared ``SimClock``.
    flush_retries: int = 2
    #: Backoff before retry ``k`` (1-based): ``retry_base_s *
    #: retry_multiplier ** (k - 1)`` simulated seconds.
    retry_base_s: float = 0.05
    retry_multiplier: float = 2.0


@dataclass(frozen=True)
class ArchiveConfig:
    """Frozen bundle of every archive/context knob.

    ``replicas=None`` means "single backend" for fresh contexts and
    "auto-detect the on-disk topology" when opening a durable archive;
    ``journal``/``retry`` apply to durable archives (in-memory contexts
    created via :meth:`SaveContext.create` run unjournaled — attach a
    journal explicitly when a test needs one).

    ``shards`` partitions model sets across that many independent archive
    shards (each a full archive with its own journal, chunk store, and
    replicas), under either engine name.  ``None`` opens whatever
    topology is on disk; a fresh directory or an in-memory archive then
    becomes a plain archive under ``MultiModelManager`` and a one-shard
    fleet under :class:`~repro.fleet.FleetManager`.  Replication composes
    *under* sharding (every shard gets ``replicas`` backends of its own).
    """

    profile: HardwareProfile = LOCAL_PROFILE
    workers: int = 1
    dedup: bool = False
    journal: bool = True
    retry: "RetryPolicy | None" = None
    replicas: int | None = None
    write_quorum: int | None = None
    read_quorum: int | None = None
    replication_policy: "ReplicationPolicy | None" = None
    shards: int | None = None
    #: Maintain the model registry (families, versions, tags, derivation
    #: DAG — see :mod:`repro.registry`): one catalog record per committed
    #: save, written on the uncharged management plane.  A catalog that
    #: already exists is kept either way; a fleet keeps one at its root,
    #: which every shard records into.
    registry: bool = True
    observability: ObservabilityConfig = field(default_factory=ObservabilityConfig)
    serving: ServingConfig = field(default_factory=ServingConfig)
    maintenance: MaintenanceConfig = field(default_factory=MaintenanceConfig)
    health: FleetHealthConfig = field(default_factory=FleetHealthConfig)

    def __post_init__(self) -> None:
        if not isinstance(self.profile, HardwareProfile):
            raise ConfigError(
                f"profile must be a HardwareProfile, got {self.profile!r}"
            )
        if self.workers is None or int(self.workers) < 0:
            raise ConfigError(f"workers must be >= 0, got {self.workers!r}")
        if self.replicas is not None and int(self.replicas) < 1:
            raise ConfigError(f"replicas must be >= 1, got {self.replicas!r}")
        for label, quorum in (
            ("write_quorum", self.write_quorum),
            ("read_quorum", self.read_quorum),
        ):
            if quorum is None:
                continue
            if int(quorum) < 1:
                raise ConfigError(f"{label} must be >= 1, got {quorum!r}")
            if self.replicas is not None and int(quorum) > int(self.replicas):
                raise ConfigError(
                    f"{label}={quorum} exceeds replicas={self.replicas}"
                )
        if self.shards is not None and int(self.shards) < 1:
            raise ConfigError(f"shards must be >= 1, got {self.shards!r}")
        if not isinstance(self.observability, ObservabilityConfig):
            raise ConfigError(
                "observability must be an ObservabilityConfig, "
                f"got {self.observability!r}"
            )
        if not isinstance(self.serving, ServingConfig):
            raise ConfigError(
                f"serving must be a ServingConfig, got {self.serving!r}"
            )
        for label, budget in (
            ("set_cache_bytes", self.serving.set_cache_bytes),
            ("chunk_cache_bytes", self.serving.chunk_cache_bytes),
        ):
            if int(budget) < 0:
                raise ConfigError(f"serving.{label} must be >= 0, got {budget!r}")
        if not isinstance(self.maintenance, MaintenanceConfig):
            raise ConfigError(
                f"maintenance must be a MaintenanceConfig, got {self.maintenance!r}"
            )
        upkeep = self.maintenance
        if float(upkeep.interval_s) < 0:
            raise ConfigError(
                f"maintenance.interval_s must be >= 0, got {upkeep.interval_s!r}"
            )
        if not 0.0 < float(upkeep.duty_cycle) <= 1.0:
            raise ConfigError(
                "maintenance.duty_cycle must be in (0, 1], "
                f"got {upkeep.duty_cycle!r}"
            )
        if upkeep.gc_keep_last is not None and int(upkeep.gc_keep_last) < 1:
            raise ConfigError(
                f"maintenance.gc_keep_last must be >= 1, got {upkeep.gc_keep_last!r}"
            )
        if (
            upkeep.compact_chain_depth is not None
            and int(upkeep.compact_chain_depth) < 1
        ):
            raise ConfigError(
                "maintenance.compact_chain_depth must be >= 1, "
                f"got {upkeep.compact_chain_depth!r}"
            )
        if not isinstance(self.health, FleetHealthConfig):
            raise ConfigError(
                f"health must be a FleetHealthConfig, got {self.health!r}"
            )
        health = self.health
        if int(health.degraded_after) < 1:
            raise ConfigError(
                f"health.degraded_after must be >= 1, got {health.degraded_after!r}"
            )
        if int(health.down_after) < int(health.degraded_after):
            raise ConfigError(
                f"health.down_after ({health.down_after!r}) must be >= "
                f"health.degraded_after ({health.degraded_after!r})"
            )
        if int(health.probe_interval_ops) < 1:
            raise ConfigError(
                "health.probe_interval_ops must be >= 1, "
                f"got {health.probe_interval_ops!r}"
            )
        if health.backpressure not in ("block", "shed"):
            raise ConfigError(
                "health.backpressure must be 'block' or 'shed', "
                f"got {health.backpressure!r}"
            )
        if int(health.low_watermark) < 0:
            raise ConfigError(
                f"health.low_watermark must be >= 0, got {health.low_watermark!r}"
            )
        if int(health.high_watermark) < max(1, int(health.low_watermark)):
            raise ConfigError(
                f"health.high_watermark ({health.high_watermark!r}) must be >= "
                f"max(1, low_watermark={health.low_watermark!r})"
            )
        if float(health.block_deadline_s) < 0:
            raise ConfigError(
                "health.block_deadline_s must be >= 0, "
                f"got {health.block_deadline_s!r}"
            )
        if int(health.flush_retries) < 0:
            raise ConfigError(
                f"health.flush_retries must be >= 0, got {health.flush_retries!r}"
            )
        if float(health.retry_base_s) < 0:
            raise ConfigError(
                f"health.retry_base_s must be >= 0, got {health.retry_base_s!r}"
            )
        if float(health.retry_multiplier) < 1.0:
            raise ConfigError(
                "health.retry_multiplier must be >= 1, "
                f"got {health.retry_multiplier!r}"
            )

    def with_(self, **changes: Any) -> "ArchiveConfig":
        """Copy with the given fields replaced (validation re-runs)."""
        known = {spec.name for spec in fields(self)}
        unknown = set(changes) - known
        if unknown:
            raise ConfigError(f"unknown ArchiveConfig field(s): {sorted(unknown)}")
        return replace(self, **changes)


def resolve_config(
    where: str, config: "ArchiveConfig | None", approach_kwargs: "dict | None" = None
) -> ArchiveConfig:
    """``config``, or the defaults for ``None``.

    The pre-config call shapes are gone: a per-knob keyword argument
    (``workers=4``) found among ``approach_kwargs`` raises
    :class:`TypeError` before anything is built, and a positional that
    is not an :class:`ArchiveConfig` raises :class:`ConfigError`.
    """
    knobs = {spec.name for spec in fields(ArchiveConfig)}
    removed = sorted(knobs.intersection(approach_kwargs or ()))
    if removed:
        raise TypeError(
            f"{where}: unexpected keyword argument(s) {removed}; pass "
            f"ArchiveConfig({', '.join(name + '=...' for name in removed)}) instead"
        )
    if config is None:
        return ArchiveConfig()
    if not isinstance(config, ArchiveConfig):
        raise ConfigError(f"{where}: expected ArchiveConfig, got {config!r}")
    return config
