"""The pluggable save-approach API and the shared save context.

Every approach implements the same four operations:

* :meth:`SaveApproach.save_initial` — persist a model set with no base
  (use case U1),
* :meth:`SaveApproach.save_derived` — persist a set derived from a
  previously saved base set (use case U3),
* :meth:`SaveApproach.recover` — reconstruct a set from its id, and
* :meth:`SaveApproach.recover_model` — reconstruct one model of it.

Approaches are strategies over a shared :class:`SaveContext` holding the
storage substrates (file store, document store) and the dataset registry,
so comparative benchmarks run all approaches against identical backends.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import OrderedDict
from contextlib import nullcontext
from dataclasses import dataclass, field
import itertools
import threading
from typing import TYPE_CHECKING

from repro.config import ArchiveConfig, resolve_config
from repro.core.model_set import ModelSet
from repro.core.save_info import SetMetadata, UpdateInfo
from repro.datasets.registry import DatasetRegistry, default_registry
from repro.errors import RecoveryError
from repro.observability import trace as _trace
from repro.storage.chunk_index import ChunkStore
from repro.storage.document_store import DocumentStore
from repro.storage.file_store import FileStore
from repro.storage.persistent import open_archive_stores

if TYPE_CHECKING:
    from repro.observability.metrics import MetricsRegistry
    from repro.observability.trace import TraceRecorder
    from repro.storage.journal import RecoveryReport, SaveJournal

#: Document-store collection holding one descriptor document per set.
SETS_COLLECTION = "model_sets"

_NULL_CONTEXT = nullcontext()


def id_order(set_id: str) -> "tuple[int, str]":
    """Sort key of set ids in allocation order: the commit counter every
    id ends with (-1 for an id without one), then the id itself."""
    suffix = set_id.rsplit("-", 1)[-1]
    return (int(suffix) if suffix.isdigit() else -1, set_id)


@dataclass
class SaveContext:
    """Bundles the storage substrates an approach writes to and reads from.

    ``workers`` is the parallelism knob of the save/recover engine: the
    number of lanes used for per-model hashing/serialization/decoding and
    for striped or vectored store transfers.  ``1`` (the default) is the
    fully serial engine; ``0`` means one lane per CPU.  ``dedup`` routes
    parameter writes through the content-addressed chunk layer
    (:class:`~repro.storage.chunk_index.ChunkStore`): every layer tensor
    is stored once, refcounted, and fetched once on recovery.  Results
    are byte-identical at any setting of either knob.
    """

    file_store: FileStore
    document_store: DocumentStore
    dataset_registry: DatasetRegistry
    workers: int = 1
    dedup: bool = False
    #: Write-ahead journal making every save an atomic commit (attached by
    #: ``open_context``/``attach_journal``); ``None`` runs saves unjournaled.
    journal: "SaveJournal | None" = field(default=None, repr=False)
    #: What crash recovery repaired when this context was opened.
    recovery_report: "RecoveryReport | None" = field(default=None, repr=False)
    _set_counter: "itertools.count[int]" = field(
        default_factory=itertools.count, repr=False
    )
    #: Per-archive mutex serializing mutating operations (saves, GC,
    #: compaction) issued by concurrent threads sharing this context.
    #: Reentrant so a caller that already routes through the fleet layer
    #: (which times its acquisition) can nest the manager's own acquire.
    mutex: threading.RLock = field(
        default_factory=threading.RLock, repr=False, compare=False
    )
    #: Externally allocated id the next :meth:`next_set_id` call must
    #: return (the fleet engine routes by hashing ids it allocates from a
    #: fleet-wide counter; see :meth:`reserve_set_id`).
    _reserved_set_id: str | None = field(default=None, repr=False)
    _chunk_store: ChunkStore | None = field(default=None, repr=False)
    #: The :class:`~repro.config.ArchiveConfig` this context was built
    #: from (``None`` for hand-assembled contexts).
    config: "ArchiveConfig | None" = field(default=None, repr=False)
    #: Span recorder when the config enables tracing (see
    #: :func:`repro.observability.trace.install_tracing`).
    tracer: "TraceRecorder | None" = field(default=None, repr=False)
    #: Metrics registry when the config enables metrics export.
    metrics: "MetricsRegistry | None" = field(default=None, repr=False)
    #: Tiered recovery cache when the config enables serving (see
    #: :func:`repro.serving.apply_serving`).  ``None`` leaves the read
    #: path on the classic approach code.
    serving: "object | None" = field(default=None, repr=False)
    #: Model catalog this archive records into (see :mod:`repro.registry`):
    #: the archive's own when ``config.registry`` is on, a fleet shard's
    #: binding of the root catalog (see :func:`build_context`).  ``None``
    #: (hand-assembled contexts, ``registry=False``) skips catalog
    #: maintenance entirely.
    registry: "object | None" = field(default=None, repr=False)

    @classmethod
    def create(
        cls, config: "ArchiveConfig | None" = None, wiring: "ShardWiring | None" = None
    ) -> "SaveContext":
        """Fresh in-memory context described by an :class:`ArchiveConfig`.

        ``config.replicas > 1`` fans the stores across that many
        independent in-memory backends with quorum semantics (see
        :mod:`repro.storage.replication`); the quorums default to a
        majority W and the matching R with W + R = N + 1.  In-memory
        contexts run unjournaled regardless of ``config.journal`` (attach
        a journal explicitly when needed); ``config.retry`` (per backend,
        beneath the replication layer, as in a durable archive) and
        ``config.observability`` are honored.  ``wiring`` makes the context
        a fleet shard (see :func:`build_context`).
        """
        config = resolve_config("SaveContext.create", config)
        file_store, document_store = open_archive_stores(
            [None] * (config.replicas or 1), config
        )
        return build_context(
            file_store, document_store, config, journal=False, wiring=wiring
        )

    def chunk_store(self) -> ChunkStore:
        """The context's chunk layer (created on first use, then shared)."""
        if self._chunk_store is None:
            self._chunk_store = ChunkStore(self.file_store, self.document_store)
            if self.serving is not None:
                self.serving.attach_chunk_store(self._chunk_store)
        return self._chunk_store

    def _invalidate_chunk_store(self) -> None:
        """Drop the cached chunk index (a rollback restored older docs).

        The serving cache is cleared with it: a rollback may have removed
        sets or chunk packs whose cached materializations would otherwise
        outlive the data they came from.
        """
        self._chunk_store = None
        if self.serving is not None:
            self.serving.clear()

    def trace(self, name: str, **attrs):
        """A trace span for one archive operation (no-op untraced).

        Opens a *root* span normally; when some span is already current
        (e.g. the fleet engine's ``fleet``/``shard-<i>`` envelope around
        a shard save) the operation nests as a child instead, so one
        fleet operation exports as a single tree whose phases still sum
        to its simulated time.
        """
        if self.tracer is None:
            return _NULL_CONTEXT
        if _trace.active():
            return _trace.span(name, **attrs)
        return self.tracer.trace(name, **attrs)

    def save_transaction(self, kind: str = "save", approach: str | None = None):
        """A journal transaction for one save/GC pass (no-op unjournaled).

        Journaled transactions run under a ``journal-txn`` span (its own
        charges are the journal's management-plane work; the save's store
        traffic lands in the nested per-phase spans) and bump the
        ``journal_txns_total`` counter when metrics are enabled.
        """
        if self.metrics is not None:
            self.metrics.counter(
                "journal_txns_total",
                "save/GC journal transactions begun",
            ).inc()
        if self.journal is None:
            return _NULL_CONTEXT
        from contextlib import contextmanager

        from repro.observability import trace as _trace

        @contextmanager
        def traced_txn():
            with _trace.span("journal-txn", kind="journal", txn_kind=kind):
                with self.journal.begin(kind, approach) as txn:
                    yield txn

        if _trace.active():
            return traced_txn()
        return self.journal.begin(kind, approach)

    def next_set_id(self, approach_name: str) -> str:
        """Allocate a unique id for a new model set.

        A reserved id (see :meth:`reserve_set_id`) is consumed first, so
        the fleet engine can route a save by its id before the shard's
        approach runs.
        """
        with self.mutex:
            if self._reserved_set_id is not None:
                set_id, self._reserved_set_id = self._reserved_set_id, None
                return set_id
            return f"set-{approach_name}-{next(self._set_counter):06d}"

    def reserve_set_id(self, set_id: str) -> None:
        """Make the next :meth:`next_set_id` call return ``set_id``.

        Callers must hold :attr:`mutex` across the reservation and the
        save that consumes it (the fleet engine does), otherwise another
        thread's save could consume the reservation.
        """
        with self.mutex:
            if self._reserved_set_id is not None:
                raise ValueError(
                    f"set id {self._reserved_set_id!r} is already reserved"
                )
            self._reserved_set_id = set_id

    def set_document(self, set_id: str) -> dict:
        """Fetch a set's descriptor document (charged as a store read)."""
        with _trace.span("set-doc", kind="metadata", set_id=set_id):
            return self.document_store.get(SETS_COLLECTION, set_id)

    def total_bytes(self) -> int:
        """Bytes currently held across both stores."""
        return self.file_store.total_bytes() + self.document_store.total_bytes()

    def simulated_s(self) -> float:
        """Simulated store seconds both stores have charged so far."""
        files, documents = self.file_store.stats, self.document_store.stats
        return (
            files.simulated_write_s
            + files.simulated_read_s
            + documents.simulated_write_s
            + documents.simulated_read_s
        )


@dataclass(frozen=True)
class ShardWiring:
    """What makes a context shard ``index`` of a fleet.

    The fleet's shards share one trace recorder, one tier-2 chunk cache
    and one root catalog (each shard records through its binding); any
    of them is ``None`` when the fleet's config leaves it off.
    """

    index: int
    recorder: "TraceRecorder | None" = None
    chunk_cache: "object | None" = None
    catalog: "object | None" = None


def build_context(
    file_store,
    document_store,
    config: "ArchiveConfig",
    journal: bool,
    wiring: "ShardWiring | None" = None,
) -> SaveContext:
    """A context over two stores, with everything it carries on top.

    What :meth:`SaveContext.create` and
    :func:`repro.storage.persistent.open_context` share — over the pair
    :func:`repro.storage.persistent.open_archive_stores` built them (retry
    proxies and replication already in place) — in the one order that
    works: set ids resume past the persisted ones; the journal runs crash
    recovery as it attaches; tracing/metrics, the serving cache and the
    registry see the final stores — so in-memory and durable archives
    behave alike.

    The one place a context gets its tracer, its metrics and its catalog.
    A plain archive (``wiring=None``) traces into its own recorder,
    exports ``file_store_*`` / ``document_store_*`` / ``serving_*``
    metrics and keeps its catalog in its own document store when
    ``config.registry`` is on.  A fleet
    shard traces into the fleet's recorder, exports the same metrics
    under ``fleet_shard_<i>_``, shares the fleet's tier-2 chunk cache and
    records through its binding of the fleet's root catalog.
    """
    from repro.observability.metrics import global_registry
    from repro.observability.trace import install_tracing
    from repro.registry import attach_registry
    from repro.serving import apply_serving
    from repro.storage.journal import attach_journal

    context = SaveContext(
        file_store=file_store,
        document_store=document_store,
        dataset_registry=default_registry(),
        workers=config.workers,
        dedup=config.dedup,
        config=config,
    )
    ids = document_store.collection_ids(SETS_COLLECTION)
    context._set_counter = itertools.count(max(map(id_order, ids), default=(-1,))[0] + 1)
    if journal:
        attach_journal(context)
    prefix = "" if wiring is None else f"fleet_shard_{wiring.index}_"
    if config.observability.tracing:
        install_tracing(context, None if wiring is None else wiring.recorder)
    if config.observability.metrics:
        registry = global_registry()
        registry.register_stats(f"{prefix}file_store", context.file_store.stats)
        registry.register_stats(f"{prefix}document_store", context.document_store.stats)
        context.metrics = registry
    apply_serving(
        context,
        config,
        chunk_cache=None if wiring is None else wiring.chunk_cache,
        prefix=f"{prefix}serving",
    )
    if wiring is not None:
        if wiring.catalog is not None:
            context.registry = wiring.catalog.bind(wiring.index, context)
    elif config.registry:
        attach_registry(context)
    return context


class SaveApproach(ABC):
    """Strategy interface of a multi-model management approach."""

    #: Short name used in set ids, documents, and benchmark reports.
    name: str = "abstract"

    def __init__(self, context: SaveContext) -> None:
        self.context = context

    # -- save ------------------------------------------------------------
    @abstractmethod
    def save_initial(
        self, model_set: ModelSet, metadata: SetMetadata | None = None
    ) -> str:
        """Persist an initial model set; returns the new set id."""

    @abstractmethod
    def save_derived(
        self,
        model_set: ModelSet,
        base_set_id: str,
        update_info: UpdateInfo | None = None,
        metadata: SetMetadata | None = None,
        *,
        touched: "frozenset[int] | None" = None,
    ) -> str:
        """Persist a set derived from ``base_set_id``; returns the new id.

        ``update_info`` carries the cycle's provenance; approaches that do
        not need it may ignore it.  ``touched``, when given, vouches that
        every model outside it is byte-identical to the base set's (only
        a writer that owns the set, the fleet ingest queue, passes it);
        approaches that do not use it ignore it.
        """

    def save_initial_streaming(
        self,
        architecture: str,
        states,
        num_models: int,
        metadata: SetMetadata | None = None,
    ) -> str:
        """Persist an initial set from an *iterable* of state dicts.

        Bounded-memory ingestion: implementations hand the iterable to
        :func:`repro.core.baseline.write_set`, which consumes it block by
        block, so saving a 5000-model set never materializes more than
        one block's parameters.  This default materializes a
        :class:`ModelSet` first — subclasses override it with a true
        single-pass implementation.
        """
        return self.save_initial(
            ModelSet(architecture, list(states)), metadata=metadata
        )

    # -- recover -----------------------------------------------------------
    @abstractmethod
    def recover(self, set_id: str) -> ModelSet:
        """Reconstruct the full model set saved under ``set_id``."""

    @abstractmethod
    def recover_model(self, set_id: str, model_index: int) -> "OrderedDict":
        """Reconstruct a single model's parameters from a saved set.

        The paper's scenario recovers "a selected number of models, for
        example, after an accident" (§1) — far cheaper than a full-set
        recovery.  An index outside the set raises :class:`IndexError`.
        """

    # -- shared helpers -----------------------------------------------------
    def _require_type(self, document: dict, expected: str, set_id: str) -> None:
        actual = document.get("type")
        if actual != expected:
            raise RecoveryError(
                f"set {set_id!r} was saved by approach {actual!r}, "
                f"but recovery was attempted with {expected!r}"
            )
