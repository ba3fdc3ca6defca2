"""Archive audit and corruption-tolerant (salvage) recovery.

Two complementary tools for the "after an accident" half of the paper's
archival story:

* :class:`ArchiveFsck` — the one audit of the whole archive: leftover
  journal transactions, set descriptors referencing missing artifacts,
  artifacts referenced by nothing (orphans a rolled-back save should
  have reclaimed), a full refcount audit of the chunk ledger against the
  digest matrices of every chunked set, and each set's own descriptor
  (artifact lengths, diff lists, chain links, side documents, chunk
  digests).  ``deep=True`` also re-hashes every artifact against its
  recorded checksum and every chunk against its content digest;
  ``recover=True`` recovers every set and checks it against its stored
  per-layer hash info.
* :func:`salvage_recover` — recovery that does not abort on the first
  corrupt byte.  Every model that still verifies is returned; the report
  lists exactly which models were lost and why.  For deduplicated sets
  the damage is isolated to the *chunk*: corrupt chunks are quarantined
  and, where another set stores the same layer bytes in a full artifact,
  repaired in place from that replica before any model is given up on.
* :func:`scrub_archive` — the anti-entropy pass for replicated archives
  (:mod:`repro.storage.replication`): flushes the replication layer's
  pending repair queues, converges every replica's documents onto the
  majority view (pruning stale journal entries and uncommitted minority
  writes), re-copies missing/corrupt/divergent artifact replicas from a
  verifying donor, prunes minority orphans, reassembles packs per chunk
  across replicas when no whole copy survives, and repairs quarantined
  chunks.  After a clean scrub the replicas are byte-identical again.

Exit-code convention (used by the ``repro-archive fsck`` / ``scrub``
CLI verbs): **0** clean, **1** issues that were (or can be) repaired,
**2** unrecoverable data loss.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np

from repro.core.approach import SETS_COLLECTION, SaveContext
from repro.core.baseline import layer_hashes
from repro.core.manager import APPROACHES
from repro.core.mmlib_base import MODELS_COLLECTION
from repro.core.recovery import (
    RecoveryPlan,
    SetOwns,
    StoredDigests,
    assemble,
    changed_rows,
    layer_nbytes,
    resolve_chunked,
    set_owns,
    stored_digests,
)
from repro.errors import ArtifactNotFoundError, DocumentNotFoundError, ReproError
from repro.nn.serialization import ModelState, StateSchema, deserialize_state_dict
from repro.observability import trace as _trace
from repro.storage.chunk_index import PACKS_COLLECTION
from repro.storage.hashing import DIGESTS, hash_bytes
from repro.storage.journal import JOURNAL_COLLECTION, entry_ids
from repro.storage.replication import replica_divergence, replicated_stores


# ---------------------------------------------------------------------------
# fsck
# ---------------------------------------------------------------------------

class SetIssue(NamedTuple):
    """One finding in one set's descriptor (see :meth:`ArchiveFsck.run`)."""

    set_id: str
    kind: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.set_id}: {self.detail}"


@dataclass
class FsckReport:
    """Outcome of an archive audit."""

    sets_checked: int = 0
    artifacts_checked: int = 0
    chunks_checked: int = 0
    #: Journal transactions still on disk — a crashed process whose
    #: cleanup has not run yet (``open()`` repairs these automatically).
    pending_journal: list[str] = field(default_factory=list)
    #: ``{"set_id", "artifact"}`` — referenced but absent from the store.
    missing_artifacts: list[dict] = field(default_factory=list)
    #: Stored artifacts no set or chunk pack references.
    orphan_artifacts: list[str] = field(default_factory=list)
    #: ``{"digest", "expected", "actual"}`` — ledger refcount disagrees
    #: with the count implied by the surviving digest matrices.
    refcount_mismatches: list[dict] = field(default_factory=list)
    #: Artifacts whose bytes no longer match their recorded checksum
    #: (deep scan only).
    corrupt_artifacts: list[str] = field(default_factory=list)
    #: Chunks whose bytes no longer hash to their digest (deep scan only).
    corrupt_chunks: list[str] = field(default_factory=list)
    #: Chunks already quarantined before this run.
    quarantined_chunks: list[str] = field(default_factory=list)
    #: ``{"artifact", "size", "needs"}`` — chunk packs shorter, on every
    #: copy, than the end of the last chunk they hold.
    short_packs: list[dict] = field(default_factory=list)
    #: Artifacts corrupt on *some* replica while a clean copy survives
    #: elsewhere — degraded, not lost; a scrub heals them (deep scan of a
    #: replicated archive only).
    degraded_artifacts: list[str] = field(default_factory=list)
    #: Per-replica diffs against the majority view (replicated archives
    #: only; see :func:`repro.storage.replication.replica_divergence`).
    replica_divergence: list[dict] = field(default_factory=list)
    #: Sets whose descriptor disagrees with what it names, or (``recover``
    #: only) that do not recover to their stored hash info.
    set_issues: list[SetIssue] = field(default_factory=list)

    def _findings(self) -> "list[tuple[str, list]]":
        return [
            ("pending journal entries", self.pending_journal),
            ("missing artifacts", self.missing_artifacts),
            ("orphan artifacts", self.orphan_artifacts),
            ("refcount mismatches", self.refcount_mismatches),
            ("corrupt artifacts", self.corrupt_artifacts),
            ("corrupt chunks", self.corrupt_chunks),
            ("quarantined chunks", self.quarantined_chunks),
            ("short packs", self.short_packs),
            ("degraded artifacts", self.degraded_artifacts),
            ("divergent replicas", self.replica_divergence),
            ("set issues", self.set_issues),
        ]

    @property
    def ok(self) -> bool:
        return not any(items for _label, items in self._findings())

    @property
    def exit_code(self) -> int:
        """0 clean; 1 repairable issues; 2 unrecoverable data loss.

        Loss means bytes with no surviving good copy: a referenced
        artifact absent everywhere, an artifact whose every copy fails
        verification, a corrupt chunk, a pack too short for its chunks,
        or a set whose descriptor and stored bytes disagree.  Everything
        else — pending journal entries, orphans, refcount drift,
        quarantine records, degraded replicas, divergence — is
        repairable by recovery, GC, or a scrub.
        """
        if (
            self.missing_artifacts
            or self.corrupt_artifacts
            or self.corrupt_chunks
            or self.short_packs
            or self.set_issues
        ):
            return 2
        return 0 if self.ok else 1

    def summary(self) -> str:
        if self.ok:
            return (
                f"clean: {self.sets_checked} sets, "
                f"{self.artifacts_checked} artifacts, "
                f"{self.chunks_checked} chunks"
            )
        return "; ".join(f"{len(items)} {label}" for label, items in self._findings() if items)


class ArchiveFsck:
    """The audit of one save context: structure, and optionally every byte."""

    def __init__(self, context: SaveContext) -> None:
        self.context = context

    def _collection(self, name: str) -> dict:
        return self.context.document_store.peek_collection(name)

    def _owns(self, sets: dict) -> "dict[str, SetOwns]":
        return {set_id: set_owns(self.context, set_id, doc) for set_id, doc in sets.items()}

    def _referenced_artifacts(
        self, owns: "dict[str, SetOwns] | None" = None
    ) -> dict[str, str]:
        """artifact id -> the set or chunk pack that references it."""
        if owns is None:
            owns = self._owns(self._collection(SETS_COLLECTION))
        referenced = {
            artifact: set_id for set_id, owned in owns.items() for artifact in owned.artifacts
        }
        for pack_id, doc in self._collection(PACKS_COLLECTION).items():
            referenced[str(doc["artifact"])] = pack_id
        return referenced

    def run(self, deep: bool = False, recover: bool = False) -> FsckReport:
        """Audit the archive; ``deep=True`` re-hashes every stored byte,
        ``recover=True`` recovers every set against its stored hash info."""
        report = FsckReport()
        file_store = self.context.file_store
        report.pending_journal = entry_ids(self._collection(JOURNAL_COLLECTION))
        sets = self._collection(SETS_COLLECTION)
        report.sets_checked = len(sets)
        owns = self._owns(sets)

        referenced = self._referenced_artifacts(owns)
        for artifact, owner in sorted(referenced.items()):
            if not file_store.exists(artifact):
                report.missing_artifacts.append(
                    {"set_id": owner, "artifact": artifact}
                )
        report.orphan_artifacts = sorted(
            set(file_store.ids()) - set(referenced)
        )
        report.artifacts_checked = len(referenced)

        if self._collection(PACKS_COLLECTION):
            chunk_store = self.context.chunk_store()
            # Every (model, layer) occurrence of a digest is one reference,
            # duplicates within a set included: the ingest accounting.
            expected = Counter(
                digest for owned in owns.values() for row in owned.matrix or () for digest in row
            )
            digests = sorted(set(expected) | set(chunk_store))
            counts = chunk_store.references(DIGESTS.intern_many(digests)).tolist()
            for digest, have in zip(digests, counts):
                want = expected.get(digest, 0)
                if want != have:
                    report.refcount_mismatches.append(
                        {"digest": digest, "expected": want, "actual": have}
                    )
            report.quarantined_chunks = chunk_store.quarantined_digests()
            report.short_packs = self._short_packs(chunk_store)
            report.chunks_checked = len(chunk_store)

        for set_id in sorted(sets):
            found = self._set_issues(set_id, sets[set_id], owns[set_id], recover)
            report.set_issues.extend(SetIssue(set_id, *issue) for issue in found)

        if deep:
            self._deep_scan(report, referenced)

        file_rep, doc_rep = replicated_stores(self.context)
        if file_rep is not None or doc_rep is not None:
            report.replica_divergence = replica_divergence(
                file_rep, doc_rep, deep=deep
            )
        return report

    def _short_packs(self, chunk_store) -> list[dict]:
        """Packs too short for the chunks they hold, from the sizes their
        backends hold now (no byte is read).  On a replicated store a pack
        is short only when every copy is (``size_at_rest`` is the largest);
        one short copy is degraded, a deep scan's finding."""
        short = []
        for artifact, needs in chunk_store.pack_extents().items():
            try:
                size = self.context.file_store.size_at_rest(artifact)
            except ArtifactNotFoundError:
                continue  # a missing artifact, reported as such
            if size < needs:
                short.append({"artifact": artifact, "size": size, "needs": needs})
        return short

    def _set_issues(
        self, set_id: str, document: dict, owned: SetOwns, recover: bool
    ) -> "Iterator[tuple[str, str]]":
        """``(kind, detail)`` for one set's descriptor against what it
        names: artifact and chunk lengths, the diff list, the chain link,
        the side documents.  A missing artifact is ``missing_artifacts``."""
        approach_name = str(document.get("type"))
        if approach_name not in APPROACHES:
            yield "unknown-approach", f"type {approach_name!r}"
            return
        store = self.context.document_store
        file_store = self.context.file_store
        chunked = document.get("storage") == "chunked"
        item_bytes = 2 if document.get("param_dtype") == "float16" else 4
        if chunked:
            yield from self._chunk_issues(document, owned.digests, item_bytes)
        artifact = document.get("params_artifact")
        if artifact is not None and file_store.exists(artifact) and "schema" in document:
            schema = StateSchema.from_json(document["schema"])
            # As the backends hold it now (a replicated store's largest
            # copy), as the short-pack rule reads a pack.
            actual = file_store.size_at_rest(artifact)
            kind = document.get("kind", "full")
            if kind == "full":
                expected = int(document["num_models"]) * schema.num_parameters * item_bytes
                if actual != expected:
                    yield "length-mismatch", f"artifact has {actual} bytes, expected {expected}"
            if kind == "delta" and "diff" in document and document.get("codec", "none") == "none":
                sizes = layer_nbytes(schema)
                diff = document["diff"]
                expected = sum(sizes[int(layer)] for _, layers in diff for layer in layers)
                if actual != expected:
                    yield "diff-mismatch", (
                        f"delta blob has {actual} bytes, diff list implies {expected}"
                    )
        base = document.get("base_set")
        # A chunked set's base is lineage only — recovery reads its digest
        # matrix — so a collected base is not a broken chain.
        if base is not None and not chunked and not store.exists(SETS_COLLECTION, base):
            yield "broken-chain", f"base set {base!r} missing"
        for model_id in document.get("model_ids", []):
            if not store.exists(MODELS_COLLECTION, model_id):
                yield "missing-model-doc", model_id
        if recover:
            yield from self._recovery_issues(set_id, document, approach_name)

    def _chunk_issues(self, document: dict, stored: "StoredDigests | None", item_bytes: int):
        """A chunked set: a digest matrix of the declared shape (one row
        per model, one digest per schema layer), every digest indexed
        with the length its layer implies (first finding)."""
        if stored is None:
            yield "missing-chunk-digests", "chunked set has neither chunk_digests nor hash info"
            return
        sizes = layer_nbytes(StateSchema.from_json(document["schema"]), item_bytes)
        problem = stored.malformed(int(document.get("num_models", len(stored.rows))), len(sizes))
        if problem:
            yield "count-mismatch", problem
            return
        chunk_store = self.context.chunk_store()
        for model, row in enumerate(stored.rows):
            for layer, digest in enumerate(row):
                where = f"model {model} layer {layer}: chunk {digest[:12]}…"
                if digest not in chunk_store:
                    yield "missing-chunk", f"{where} not in the chunk index"
                    return
                actual = chunk_store.locate(digest).length
                if actual != sizes[layer]:
                    yield "length-mismatch", (
                        f"{where} has {actual} bytes, schema implies {sizes[layer]}"
                    )
                    return

    def _recovery_issues(self, set_id: str, document: dict, approach_name: str):
        """Recover the set; its models must match its count and hash info."""
        try:
            model_set = APPROACHES[approach_name](self.context).recover(set_id)
        except ReproError as exc:
            yield "unrecoverable", str(exc)
            return
        stored = stored_digests(self.context, document, set_id, self.context.document_store.peek)
        if len(model_set) != int(document.get("num_models", len(model_set))):
            yield "count-mismatch", (
                f"recovered {len(model_set)} models, descriptor says "
                f"{document.get('num_models')}"
            )
        elif stored is not None and stored.source == "hash-info":
            states = dict(enumerate(model_set.states))
            bad = _hash_mismatches(self.context, stored, states, len(model_set))
            if bad:
                yield "hash-mismatch", (
                    f"model(s) {', '.join(map(str, bad))}: stored hash info "
                    "does not match recovered parameters"
                )

    def _deep_scan(self, report: FsckReport, referenced: dict[str, str]) -> None:
        file_store = self.context.file_store
        file_rep, _doc_rep = replicated_stores(self.context)
        pack_artifacts = {
            str(doc["artifact"]) for doc in self._collection(PACKS_COLLECTION).values()
        }
        lost_packs: set[str] = set()
        for artifact in sorted(referenced):
            # Pack artifacts are verified per chunk below — finer grain,
            # and a single flipped byte blames one chunk, not the pack —
            # except that a replicated archive still distinguishes a pack
            # copy gone bad on one replica (degraded) from all of them.
            if not file_store.exists(artifact):
                continue
            if file_rep is not None:
                verdicts = file_rep.verify_replicas(artifact).values()
                clean = sum(1 for verdict in verdicts if verdict is True)
                bad = sum(1 for verdict in verdicts if verdict is False)
                if bad and clean:
                    report.degraded_artifacts.append(artifact)
                elif bad:
                    report.corrupt_artifacts.append(artifact)
                    if artifact in pack_artifacts:
                        lost_packs.add(artifact)
                continue
            if artifact in pack_artifacts:
                continue
            if not file_store.verify_artifact(artifact):
                report.corrupt_artifacts.append(artifact)
        if self._collection(PACKS_COLLECTION):
            chunk_store = self.context.chunk_store()
            # Chunks whose pack has no clean copy anywhere cannot be
            # range-read; the pack is already reported as corrupt above.
            quarantined = set(chunk_store.quarantined_digests())
            digests = [
                digest
                for digest in chunk_store
                if digest not in quarantined
                and chunk_store.locate(digest).artifact_id not in lost_packs
            ]
            _values, corrupted = chunk_store.fetch_verified(
                digests, workers=self.context.workers, quarantine=False
            )
            report.corrupt_chunks = sorted(corrupted)


# ---------------------------------------------------------------------------
# anti-entropy scrub (replicated archives)
# ---------------------------------------------------------------------------

@dataclass
class ScrubReport:
    """What one anti-entropy pass over a replicated archive did.

    ``exit_code`` follows the fsck convention: 0 — the replicas were
    already converged and nothing was touched; 1 — divergence was found
    and healed (or deferred because a replica is still unreachable);
    2 — at least one artifact has no recoverable copy anywhere.
    """

    replicas: int = 0
    #: Entries drained from the replication layer's repair queues.
    pending_flushed: int = 0
    #: Per-replica documents rewritten to the majority value.
    documents_healed: int = 0
    #: Per-replica documents deleted (stale journal entries, uncommitted
    #: minority writes the vote already hid).
    documents_pruned: int = 0
    #: ``(replica, artifact)`` copies re-written from a verifying donor.
    artifacts_healed: list[tuple] = field(default_factory=list)
    #: ``(replica, artifact)`` minority-orphan copies removed.
    artifacts_pruned: list[tuple] = field(default_factory=list)
    #: Pack artifacts rebuilt chunk by chunk across replicas because no
    #: whole copy verified anywhere.
    packs_reassembled: list[str] = field(default_factory=list)
    #: Quarantined chunk digests healed back into the chunk store.
    chunks_repaired: list[str] = field(default_factory=list)
    #: Bytes copied between replicas while healing.
    bytes_copied: int = 0
    #: Replicas that could not be scrubbed (still down); their repairs
    #: are deferred to the next pass.
    unreachable_replicas: list[str] = field(default_factory=list)
    #: Artifacts with no good copy on any replica — unrecoverable here
    #: (chunk-level salvage may still rescue parts of them).
    lost_artifacts: list[str] = field(default_factory=list)
    #: Divergence remaining after the pass (empty unless replicas are
    #: unreachable or data was lost).
    residual_divergence: list[dict] = field(default_factory=list)

    @property
    def changed(self) -> bool:
        return bool(
            self.pending_flushed
            or self.documents_healed
            or self.documents_pruned
            or self.artifacts_healed
            or self.artifacts_pruned
            or self.packs_reassembled
            or self.chunks_repaired
        )

    @property
    def converged(self) -> bool:
        return not (
            self.lost_artifacts
            or self.residual_divergence
            or self.unreachable_replicas
        )

    @property
    def exit_code(self) -> int:
        if self.lost_artifacts:
            return 2
        if self.changed or not self.converged:
            return 1
        return 0

    def summary(self) -> str:
        if not self.changed and self.converged:
            return f"clean: {self.replicas} replicas converged"
        parts = []
        for label, count in (
            ("pending repairs flushed", self.pending_flushed),
            ("documents healed", self.documents_healed),
            ("documents pruned", self.documents_pruned),
            ("artifact copies healed", len(self.artifacts_healed)),
            ("artifact copies pruned", len(self.artifacts_pruned)),
            ("packs reassembled", len(self.packs_reassembled)),
            ("chunks repaired", len(self.chunks_repaired)),
            ("replicas unreachable", len(self.unreachable_replicas)),
            ("artifacts lost", len(self.lost_artifacts)),
            ("replicas still divergent", len(self.residual_divergence)),
        ):
            if count:
                parts.append(f"{count} {label}")
        return "; ".join(parts) or "no changes"


def scrub_archive(context: SaveContext, deep: bool = True) -> ScrubReport:
    """Converge every replica of a replicated archive (anti-entropy).

    The pass runs in dependency order: the replication layer's pending
    repair queues (file and document) are flushed first; documents are
    then synced onto the majority view (so the artifact heal below works
    against converged metadata); artifact copies are re-written from a
    verifying donor, with chunk-by-chunk cross-replica pack reassembly
    as the last resort when no whole copy survives; minority orphans are
    pruned; finally any quarantined chunks are repaired in place.
    ``deep=False`` trusts recorded digests instead of re-hashing every
    copy — cheaper, but a torn write (honest digest over torn bytes)
    needs ``deep=True``.

    Pruning (documents and minority-orphan artifacts) is refused while
    any replica is unreachable: a silent replica cannot cast its vote,
    so what looks like an uncommitted minority write may be committed
    data whose other holders are down.  Healing proceeds regardless —
    restoring redundancy is always safe — and the deferred prunes run
    on the next pass once every replica is back.

    On a non-replicated context this is a no-op that reports clean.

    Each scrub bumps the ``scrub_passes_total`` metrics counter and,
    when tracing is enabled on the context, records one ``scrub`` trace
    whose child spans cover the five passes.
    """
    metrics = getattr(context, "metrics", None)
    if metrics is not None:
        metrics.counter(
            "scrub_passes_total", "anti-entropy scrub passes run"
        ).inc()
    with context.trace("scrub", deep=deep):
        return _scrub_archive(context, deep)


def _scrub_archive(context: SaveContext, deep: bool) -> ScrubReport:
    """The pass order of a scrub; every replica visit is the layer's."""
    file_rep, doc_rep = replicated_stores(context)
    report = ScrubReport()
    if file_rep is None or doc_rep is None:
        return report
    report.replicas = len(file_rep.replicas)

    # 0. Probe reachability up front: every pruning decision below must
    # know whether any replica is silent before it trusts a majority.
    unreachable = doc_rep.unreachable() | file_rep.unreachable()

    with _trace.span("flush-repairs", kind="scrub"):
        # 1. Drain the targeted repairs failover already queued up.
        report.pending_flushed = sum(
            len(flushed["repaired"]) + len(flushed["deleted"])
            for flushed in (file_rep.repair_pending(), doc_rep.repair_pending())
        )

    with _trace.span("converge-documents", kind="scrub"):
        # 2. Documents: every replica converges on the majority view.  This
        # also prunes stale journal entries and uncommitted minority writes
        # — but only with every replica present to vote.
        report.documents_healed, report.documents_pruned, failed = doc_rep.converge(
            prune=not unreachable
        )
        unreachable |= failed

    with _trace.span("heal-artifacts", kind="scrub"):
        # 3. Artifacts: the canonical set is every id held by a majority of
        # reachable replicas (majority digest), plus anything the converged
        # documents reference — a referenced copy must never be pruned even
        # if replication fell below majority.  Probe again: the vote skips
        # a replica that dropped out since step 0 without saying so.
        unreachable |= file_rep.unreachable()
        canonical = file_rep.majority_artifacts(
            keep=ArchiveFsck(context)._referenced_artifacts()
        )
        packs = doc_rep.peek_collection(PACKS_COLLECTION)
        for artifact_id in sorted(canonical):
            digest = canonical[artifact_id]
            donor = file_rep.verified_copy(artifact_id, digest, deep)
            if donor is None and artifact_id in packs:
                # Last resort: rebuild the pack chunk by chunk across replicas.
                pack = packs[artifact_id]
                donor = file_rep.reassemble(
                    artifact_id, zip(pack["digests"], pack["lengths"])
                )
                if donor is not None:
                    digest = hash_bytes(donor)
                    report.packs_reassembled.append(artifact_id)
            if donor is None:
                report.lost_artifacts.append(artifact_id)
                continue
            healed, failed = file_rep.heal(
                artifact_id, donor, digest, deep, skip=unreachable
            )
            unreachable |= failed
            report.artifacts_healed.extend((name, artifact_id) for name in healed)
            report.bytes_copied += len(donor) * len(healed)

    with _trace.span("prune-orphans", kind="scrub"):
        # 4. Prune minority orphans: copies no majority (and no document)
        # vouches for — leftovers of writes that never reached quorum.  Like
        # document pruning, refused while any replica is unreachable: the
        # "orphan" may be a committed artifact whose other holders are down.
        if not unreachable:
            report.artifacts_pruned, failed = file_rep.prune_orphans(canonical)
            unreachable |= failed

    with _trace.span("repair-chunks", kind="scrub"):
        # 5. Quarantined chunks: with the packs converged, the damaged slice
        # can be re-read from any replica and verified against its digest.
        context._invalidate_chunk_store()
        if packs:
            chunk_store = context.chunk_store()
            for digest in chunk_store.quarantined_digests():
                data = file_rep.verified_slice(*chunk_store.locate(digest), digest)
                if data is not None:
                    chunk_store.repair(digest, data)
                    report.chunks_repaired.append(digest)

    report.unreachable_replicas = sorted(unreachable)
    report.residual_divergence = replica_divergence(file_rep, doc_rep, deep=deep)
    return report


# ---------------------------------------------------------------------------
# salvage recovery
# ---------------------------------------------------------------------------

@dataclass
class SalvageReport:
    """Result of a corruption-tolerant recovery of one set.

    ``models`` holds every model that recovered *and verified*; ``failed``
    lists exactly the models that were lost, each with a reason.  For
    deduplicated sets ``corrupt_chunks`` names the damaged digests and
    ``repaired_chunks`` the ones healed from replicas before recovery.
    """

    set_id: str
    approach: str
    num_models: int
    models: "dict[int, OrderedDict]" = field(default_factory=dict)
    failed: list[dict] = field(default_factory=list)
    corrupt_chunks: list[str] = field(default_factory=list)
    repaired_chunks: list[str] = field(default_factory=list)

    @property
    def recovered_indices(self) -> list[int]:
        return sorted(self.models)

    @property
    def failed_indices(self) -> list[int]:
        return sorted(entry["model"] for entry in self.failed)

    @property
    def complete(self) -> bool:
        return not self.failed and len(self.models) == self.num_models


def salvage_recover(context: SaveContext, set_id: str) -> SalvageReport:
    """Recover every intact model of ``set_id``, reporting the rest.

    Dispatches on the set's storage format: chunked sets verify (and
    where possible repair) individual chunks, MMlib sets isolate damage
    to single model artifacts, and artifact-based sets fall back to
    per-model recovery checked against stored hash info when available.
    """
    document = context.document_store.peek(SETS_COLLECTION, set_id)
    if document is None:
        raise DocumentNotFoundError(f"unknown set {set_id!r}")
    approach_name = str(document.get("type"))
    report = SalvageReport(
        set_id=set_id,
        approach=approach_name,
        num_models=int(document.get("num_models", 0)),
    )
    if document.get("storage") == "chunked":
        _salvage_chunks(context, resolve_chunked(context, document, set_id), report)
    elif approach_name == "mmlib-base":
        _salvage_mmlib(context, document, report)
    else:
        _salvage_artifact_based(context, set_id, document, approach_name, report)
    return report


def _salvage_chunks(
    context: SaveContext, plan: RecoveryPlan, report: SalvageReport
) -> None:
    """Chunk-precise salvage: damage is isolated to (model, layer) slots.

    The plan's fetch step is swapped for a verifying one (plus repair
    from replicas); the models whose slots all arrived are assembled.
    """
    chunk_store = context.chunk_store()
    unique = plan.unique
    known = unique[chunk_store.held(unique)]
    missing = set(np.setdiff1d(unique, known).tolist())
    hex_values, corrupted = chunk_store.fetch_verified(
        DIGESTS.hexes(known.tolist()), workers=context.workers, quarantine=True
    )
    if corrupted:
        repaired = _repair_from_replicas(context, sorted(corrupted))
        if repaired:
            healed, still_bad = chunk_store.fetch_verified(
                repaired, workers=context.workers, quarantine=True
            )
            hex_values.update(healed)
            corrupted -= set(healed)
            corrupted |= still_bad
            report.repaired_chunks = sorted(healed)
    report.corrupt_chunks = sorted(corrupted)
    values = dict(zip(DIGESTS.ids(hex_values), hex_values.values()))

    num_layers = len(plan.schema.entries)
    intact: list[int] = []
    for index, row in zip(plan.models, plan.digests.reshape(-1, num_layers).tolist()):
        bad = [ident for ident in row if ident not in values]
        if not bad:
            intact.append(index)
            continue
        kinds = "missing" if all(ident in missing for ident in bad) else "corrupt"
        report.failed.append(
            {
                "model": index,
                "reason": f"{len(bad)} {kinds} chunk(s)",
                "digests": sorted({digest[:16] for digest in DIGESTS.hexes(bad)}),
            }
        )
    matrix = assemble(plan, values, rows=intact)
    report.models.update(
        zip(intact, (ModelState(plan.schema, row) for row in matrix))
    )


def _repair_from_replicas(context: SaveContext, digests: list[str]) -> list[str]:
    """Heal corrupt chunks from full artifacts storing the same bytes.

    Any non-chunked full float32 set whose hash info lists one of the
    damaged digests holds a byte-identical replica of that layer at a
    computable offset; the slice is range-read, verified against the
    digest, and fed to :meth:`ChunkStore.repair`.  Returns the digests
    actually repaired.
    """
    remaining = set(digests)
    repaired: list[str] = []
    if not remaining:
        return repaired
    store = context.document_store
    chunk_store = context.chunk_store()
    sets = store.peek_collection(SETS_COLLECTION)
    for other_id in sorted(sets):
        if not remaining:
            break
        doc = sets[other_id]
        if doc.get("storage") == "chunked":
            continue  # same chunk store — same corrupt bytes
        if doc.get("kind", "full") != "full" or "schema" not in doc:
            continue
        if doc.get("param_dtype", "float32") != "float32":
            continue
        artifact = doc.get("params_artifact")
        if artifact is None or not context.file_store.exists(artifact):
            continue
        stored = stored_digests(context, doc, other_id, store.peek)
        if stored is None:
            continue
        schema = StateSchema.from_json(doc["schema"])
        for model_index, row in enumerate(stored.rows):
            for digest, (_name, _shape, start, stop) in zip(row, schema.extents):
                if digest not in remaining:
                    continue
                try:
                    data = context.file_store.get_range(
                        artifact, offset=model_index * schema.num_bytes + start, length=stop - start
                    )
                except Exception:
                    continue  # replica itself unreadable — keep looking
                if hash_bytes(data) != digest:
                    continue  # replica damaged too
                chunk_store.repair(digest, data)
                remaining.discard(digest)
                repaired.append(digest)
    return repaired


def _salvage_mmlib(
    context: SaveContext, document: dict, report: SalvageReport
) -> None:
    """Per-model salvage: MMlib's one-artifact-per-model layout isolates
    damage to individual models by construction."""
    store = context.document_store
    file_store = context.file_store
    for index, model_id in enumerate(document.get("model_ids", [])):
        model_doc = store.peek(MODELS_COLLECTION, model_id)
        if model_doc is None:
            report.failed.append(
                {"model": index, "reason": f"model document {model_id!r} missing"}
            )
            continue
        artifact = model_doc.get("params_artifact")
        if artifact is None or not file_store.exists(artifact):
            report.failed.append(
                {"model": index, "reason": "parameter artifact missing"}
            )
            continue
        if not file_store.verify_artifact(artifact):
            report.failed.append(
                {
                    "model": index,
                    "reason": "parameter artifact failed checksum verification",
                }
            )
            continue
        try:
            payload = file_store.get(artifact)
            report.models[index] = deserialize_state_dict(payload)
        except Exception as exc:
            report.failed.append({"model": index, "reason": str(exc)})


def _salvage_artifact_based(
    context: SaveContext,
    set_id: str,
    document: dict,
    approach_name: str,
    report: SalvageReport,
) -> None:
    """Salvage for full/delta artifact sets (baseline, update, …).

    Models are recovered one at a time so a failure (torn artifact,
    broken chain link) only loses the models it actually touches.  Sets
    with stored hash info (Update) verify every recovered model layer by
    layer — precise corruption attribution; sets without it fall back to
    the whole-artifact checksum, which can only vouch for all-or-nothing.
    """
    approach = APPROACHES[approach_name](context)
    num_models = int(document.get("num_models", 0))
    stored = stored_digests(context, document, set_id, context.document_store.peek)
    if stored is None:
        # No per-model hashes: the artifact checksum is the only oracle.
        artifact = document.get("params_artifact")
        if artifact is not None and context.file_store.exists(artifact):
            if not context.file_store.verify_artifact(artifact):
                report.failed = [
                    {
                        "model": index,
                        "reason": "parameter artifact failed checksum "
                        "verification and the set stores no per-model "
                        "hashes to isolate the damage",
                    }
                    for index in range(num_models)
                ]
                return

    for index in range(num_models):
        try:
            report.models[index] = approach.recover_model(set_id, index)
        except Exception as exc:
            report.failed.append({"model": index, "reason": str(exc)})
    if stored is not None:
        for index in _hash_mismatches(context, stored, report.models, num_models):
            del report.models[index]
            report.failed.append(
                {
                    "model": index,
                    "reason": "recovered parameters do not match the "
                    "stored per-layer hash info",
                }
            )
        report.failed.sort(key=lambda entry: entry["model"])


def _hash_mismatches(
    context: SaveContext,
    stored: StoredDigests,
    states: "dict[int, OrderedDict]",
    num_models: int,
) -> list[int]:
    """The models of ``states`` (index -> recovered state) whose layer
    hashes differ from the set's stored hash info: the Update save's own
    hash pass, re-run on what recovery returned.  Against a matrix that
    is not ``num_models`` rows of one digest per layer none verifies."""
    indices = list(states)
    if not indices or stored.malformed(num_models):
        return indices
    rows = layer_hashes(list(states.values()), stored.layers, context.workers, indices)
    old = [stored.rows[index] for index in indices]
    return [index for index, _layers in changed_rows(old, rows, indices)]
