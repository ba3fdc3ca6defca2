"""The :class:`MultiModelManager` facade — the library's main entry point.

Binds one save approach to one storage context and exposes save/recover
plus storage accounting.  Typical use::

    manager = MultiModelManager.with_approach("update")
    set_id = manager.save_set(models)                       # U1
    new_id = manager.save_set(updated, base_set_id=set_id)  # U3
    recovered = manager.recover_set(new_id)
"""

from __future__ import annotations

from typing import Any, Callable

from repro.config import ArchiveConfig, resolve_config
from repro.core.approach import SETS_COLLECTION, SaveApproach, SaveContext
from repro.core.baseline import BaselineApproach
from repro.core.mmlib_base import MMlibBaseApproach
from repro.core.model_set import ModelSet
from repro.core.pas import PasDeltaApproach
from repro.core.provenance import ProvenanceApproach
from repro.core.quantized import QuantizedBaselineApproach
from repro.core.save_info import SetMetadata, UpdateInfo
from repro.core.update import UpdateApproach
from repro.storage.document_store import thaw

#: Approach name -> class, for :meth:`MultiModelManager.with_approach`.
APPROACHES: dict[str, type[SaveApproach]] = {
    BaselineApproach.name: BaselineApproach,
    UpdateApproach.name: UpdateApproach,
    ProvenanceApproach.name: ProvenanceApproach,
    MMlibBaseApproach.name: MMlibBaseApproach,
    PasDeltaApproach.name: PasDeltaApproach,
    QuantizedBaselineApproach.name: QuantizedBaselineApproach,
}


def _resolve_set_id(
    registry,
    set_id: "str | None",
    family: "str | None",
    tag: "str | None",
) -> str:
    """Resolve the ``set_id`` / ``family``+``tag`` recovery spellings.

    Shared by :meth:`MultiModelManager.recover_set` and the fleet's
    registry-driven recovery so both enforce identical argument rules.
    """
    if family is not None:
        if set_id is not None:
            raise ValueError("pass either set_id or family=..., not both")
        if registry is None:
            from repro.errors import RegistryError

            raise RegistryError(
                "this archive maintains no registry "
                "(ArchiveConfig(registry=False)); recover by raw set id"
            )
        return registry.resolve(family, tag if tag is not None else "latest")
    if tag is not None:
        raise ValueError("tag= requires family=")
    if set_id is None:
        raise ValueError("recover_set needs a set_id or family=...")
    return set_id


class MultiModelManager:
    """Facade over one :class:`SaveApproach` and its storage context."""

    def __init__(self, approach: SaveApproach) -> None:
        self.approach = approach
        self.context = approach.context

    @classmethod
    def with_approach(
        cls,
        name: str,
        config: "ArchiveConfig | None" = None,
        *,
        context: SaveContext | None = None,
        **approach_kwargs: Any,
    ) -> "MultiModelManager":
        """Create a manager for the named approach.

        Parameters
        ----------
        name:
            One of ``"baseline"``, ``"update"``, ``"provenance"``,
            ``"mmlib-base"``, ``"pas-delta"``, ``"quantized-baseline"``.
        config:
            The :class:`~repro.config.ArchiveConfig` describing the
            context to create (profile, workers, dedup, replication,
            observability, ...).  ``None`` uses the defaults.
        context:
            Existing context to share with other approaches.  When given
            together with ``config``, the config's ``workers``/``dedup``
            engine knobs are applied onto the shared context; every
            other field is ignored (the context's stores already exist).
        approach_kwargs:
            Extra approach options, e.g. ``snapshot_interval=4`` for the
            Update approach.  Per-knob archive settings (``workers=``,
            ``dedup=``, ...) are not accepted here: they raise
            :class:`TypeError`; pass them in ``config``.
        """
        try:
            approach_cls = APPROACHES[name]
        except KeyError:
            raise ValueError(
                f"unknown approach {name!r}; known: {sorted(APPROACHES)}"
            ) from None
        explicit_config = config is not None
        config = resolve_config(
            "MultiModelManager.with_approach", config, approach_kwargs
        )
        if config.shards is not None and int(config.shards) > 1:
            from repro.errors import ConfigError

            raise ConfigError(
                f"shards={config.shards} needs the sharded fleet engine; "
                "use repro.fleet.FleetManager instead of MultiModelManager"
            )
        if context is None:
            context = SaveContext.create(config)
        elif explicit_config:
            # A shared context already has its stores; only the engine
            # knobs of the config can meaningfully apply to it.
            context.workers = config.workers
            context.dedup = config.dedup
        return cls(approach_cls(context, **approach_kwargs))

    @classmethod
    def open(
        cls,
        directory: str,
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

        ``config`` carries every knob (see :class:`ArchiveConfig`): with
        ``journal=True`` (the default) every save runs as an atomic
        write-ahead transaction and opening first repairs anything a
        crashed process left behind (see :attr:`recovery_report`);
        ``retry`` takes a :class:`~repro.storage.faults.RetryPolicy`;
        ``replicas`` (with optional quorums) replicates the archive
        across backend subtrees, and ``None`` auto-detects an existing
        replicated layout so reopening needs no flags.
        """
        from repro.storage.persistent import open_context

        config = resolve_config("MultiModelManager.open", config, approach_kwargs)
        if config.shards is not None and int(config.shards) > 1:
            from repro.errors import ConfigError

            raise ConfigError(
                f"shards={config.shards} needs the sharded fleet engine; "
                "use repro.fleet.FleetManager.open instead of "
                "MultiModelManager.open"
            )
        return cls.with_approach(
            approach,
            context=open_context(directory, config=config),
            **approach_kwargs,
        )

    @property
    def recovery_report(self):
        """What crash recovery repaired when this archive was opened.

        ``None`` for unjournaled contexts; otherwise a
        :class:`~repro.storage.journal.RecoveryReport` whose ``clean``
        flag is ``False`` when a torn save was rolled back.
        """
        return self.context.recovery_report

    # -- save / recover ------------------------------------------------------
    def save_set(
        self,
        model_set: ModelSet,
        base_set_id: str | None = None,
        update_info: UpdateInfo | None = None,
        metadata: SetMetadata | None = None,
    ) -> str:
        """Persist a model set; derived saves pass their ``base_set_id``.

        On a journaled context the save is one atomic commit: a crash at
        any point leaves the archive exactly as before the call (rolled
        back at the next :meth:`open`).

        Saves are serialized under the context's per-archive mutex:
        threads sharing one manager (or one context across managers)
        cannot interleave id allocation, journal transactions, or
        descriptor/refcount mutation.
        """
        return self._save_set(model_set, base_set_id, update_info, metadata)

    def _save_set(
        self,
        model_set: ModelSet,
        base_set_id: str | None,
        update_info: UpdateInfo | None,
        metadata: SetMetadata | None,
        touched: "frozenset[int] | None" = None,
    ) -> str:
        """:meth:`save_set` with the derived save's ``touched`` hint, which
        only the fleet ingest queue passes (see
        :meth:`~repro.core.approach.SaveApproach.save_derived`)."""
        if base_set_id is None:
            return self._save(
                "save_set",
                "initial",
                lambda: self.approach.save_initial(model_set, metadata=metadata),
            )
        return self._save(
            "save_set",
            "derived",
            lambda: self.approach.save_derived(
                model_set,
                base_set_id,
                update_info=update_info,
                metadata=metadata,
                touched=touched,
            ),
        )

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
        return self._save(
            "save_set_streaming",
            "initial",
            lambda: self.approach.save_initial_streaming(
                architecture, states, num_models, metadata=metadata
            ),
        )

    def _save(self, span: str, mode: str, write: "Callable[[], str]") -> str:
        """The one save wrapper: mutex → trace span → journal transaction →
        ``write()`` → registry record, still inside the transaction so the
        record commits (or rolls back) atomically with the save — on a
        fleet shard, ``context.registry`` is the root catalog's binding,
        which applies the record once the shard commits."""
        with self.context.mutex:
            with self.context.trace(span, approach=self.approach.name, mode=mode):
                with self.context.save_transaction("save", self.approach.name):
                    set_id = write()
                    if self.context.registry is not None:
                        self.context.registry.record_save(set_id)
                    return set_id

    def recover_set(
        self,
        set_id: "str | None" = None,
        salvage: bool = False,
        *,
        family: "str | None" = None,
        tag: "str | None" = None,
    ):
        """Reconstruct a saved model set.

        The set is named either by its raw ``set_id`` or by registry
        coordinates — ``family=`` plus an optional ``tag=`` (default
        ``"latest"``) resolved through the archive's catalog to exactly
        the id-based path, so both spellings recover identical bytes.

        The plain path returns a :class:`ModelSet` and raises on any
        corruption.  With ``salvage=True`` corruption does not abort the
        recovery: the return value is a
        :class:`~repro.core.fsck.SalvageReport` carrying every model that
        still verifies plus a structured account of exactly which models
        were lost and why.

        When the context's config enables serving
        (:class:`~repro.config.ServingConfig`), reads route through the
        tiered recovery cache — byte-identical results, with warm reads
        charging zero simulated store time.  Salvage always bypasses the
        cache: its job is inspecting the store as it actually is.
        """
        set_id = _resolve_set_id(
            self.context.registry, set_id, family=family, tag=tag
        )
        with self.context.trace(
            "recover_set", approach=self.approach.name, set_id=set_id
        ):
            if salvage:
                from repro.core.fsck import salvage_recover

                return salvage_recover(self.context, set_id)
            if self.context.serving is not None:
                return self.context.serving.recover_set(set_id, self.approach)
            return self.approach.recover(set_id)

    def recover_model(self, set_id: str, model_index: int):
        """Reconstruct a single model's parameter dictionary.

        Much cheaper than :meth:`recover_set` for the paper's
        post-accident-analysis scenario: all approaches use range reads
        or per-model provenance replay instead of materializing the set.
        """
        with self.context.trace(
            "recover_model",
            approach=self.approach.name,
            set_id=set_id,
            model_index=model_index,
        ):
            if self.context.serving is not None:
                return self.context.serving.recover_model(
                    set_id, model_index, self.approach
                )
            return self.approach.recover_model(set_id, model_index)

    # -- inspection -----------------------------------------------------------
    def list_sets(self) -> list[str]:
        """Ids of all sets saved through this manager's context."""
        return self.context.document_store.collection_ids(SETS_COLLECTION)

    def set_info(self, set_id: str) -> dict:
        """The raw descriptor document of a saved set: a plain dict the
        caller may edit (a :func:`~repro.storage.document_store.thaw` of
        the store's read-only document)."""
        return thaw(self.context.set_document(set_id))

    def find_sets(
        self,
        architecture: str | None = None,
        approach: str | None = None,
        use_case: str | None = None,
    ) -> list[str]:
        """Ids of saved sets matching the given attributes.

        ``use_case`` matches the set's :class:`SetMetadata.use_case`
        field; the other filters match descriptor fields directly.
        """
        filters: dict[str, Any] = {}
        if architecture is not None:
            filters["architecture"] = architecture
        if approach is not None:
            filters["type"] = approach
        matches = self.context.document_store.find(SETS_COLLECTION, **filters)
        if use_case is not None:
            matches = [
                (set_id, doc)
                for set_id, doc in matches
                if doc.get("metadata", {}).get("use_case") == use_case
            ]
        return sorted(set_id for set_id, _doc in matches)

    def total_stored_bytes(self) -> int:
        """Bytes currently held across both stores."""
        return self.context.total_bytes()
