"""Archive integrity verification.

An archival system that is written constantly and read "for example,
after an accident" (§1) must be able to prove, *before* the accident,
that its contents are recoverable.  :class:`ArchiveVerifier` audits a
save context:

* every set descriptor references artifacts that exist and have the
  expected length,
* delta diff lists are consistent with their blobs,
* stored per-layer hash info matches hashes recomputed from a recovery
  (Update sets), and
* every set actually recovers (optional deep check).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.approach import SETS_COLLECTION, SaveContext
from repro.core.manager import APPROACHES
from repro.core.recovery import HASH_COLLECTION, layer_nbytes, set_owns
from repro.errors import ReproError
from repro.nn.serialization import StateSchema
from repro.storage.hashing import hash_array


@dataclass
class VerificationIssue:
    """One problem found during verification."""

    set_id: str
    kind: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - display helper
        return f"[{self.kind}] {self.set_id}: {self.detail}"


@dataclass
class VerificationReport:
    """Outcome of an archive audit."""

    sets_checked: int = 0
    issues: list[VerificationIssue] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues

    def add(self, set_id: str, kind: str, detail: str) -> None:
        self.issues.append(VerificationIssue(set_id, kind, detail))


class ArchiveVerifier:
    """Audits the sets stored in one save context."""

    def __init__(self, context: SaveContext) -> None:
        self.context = context

    # -- entry points ----------------------------------------------------------
    def verify_all(self, deep: bool = False) -> VerificationReport:
        """Verify every set in the archive.

        ``deep=True`` additionally recovers each set and, for Update
        sets, recomputes the per-layer hashes against the stored hash
        info.  Deep verification of Provenance sets replays training and
        can be slow; it is still exact.
        """
        report = VerificationReport()
        for set_id in self.context.document_store.collection_ids(SETS_COLLECTION):
            self.verify_set(set_id, deep=deep, report=report)
        return report

    def verify_set(
        self,
        set_id: str,
        deep: bool = False,
        report: VerificationReport | None = None,
    ) -> VerificationReport:
        """Verify one set; returns the (possibly shared) report."""
        report = report if report is not None else VerificationReport()
        report.sets_checked += 1
        document = self.context.document_store.peek(SETS_COLLECTION, set_id)
        if document is None:
            report.add(set_id, "missing-document", "set descriptor not found")
            return report

        approach_name = str(document.get("type"))
        if approach_name not in APPROACHES:
            report.add(set_id, "unknown-approach", f"type {approach_name!r}")
            return report

        self._check_references(set_id, document, report)
        if deep:
            self._check_integrity(set_id, document, report)
            self._check_recovery(set_id, document, approach_name, report)
        return report

    # -- shallow checks -----------------------------------------------------------
    def _check_references(
        self, set_id: str, document: dict, report: VerificationReport
    ) -> None:
        file_store = self.context.file_store
        if document.get("storage") == "chunked":
            self._check_chunk_references(set_id, document, report)
        artifact = document.get("params_artifact")
        if artifact is not None:
            if not file_store.exists(artifact):
                report.add(set_id, "missing-artifact", artifact)
                return
            if "schema" in document and document.get("kind", "full") == "full":
                schema = StateSchema.from_json(document["schema"])
                item_bytes = 2 if document.get("param_dtype") == "float16" else 4
                expected = (
                    int(document["num_models"]) * schema.num_parameters * item_bytes
                )
                actual = file_store.size(artifact)
                if actual != expected:
                    report.add(
                        set_id,
                        "length-mismatch",
                        f"artifact has {actual} bytes, expected {expected}",
                    )
            if (
                "diff" in document
                and document.get("kind") == "delta"
                and document.get("codec", "none") == "none"
            ):
                sizes = layer_nbytes(StateSchema.from_json(document["schema"]))
                expected = sum(
                    sizes[int(layer)]
                    for _model, layers in document.get("diff", [])
                    for layer in layers
                )
                actual = file_store.size(artifact)
                if actual != expected:
                    report.add(
                        set_id,
                        "diff-mismatch",
                        f"delta blob has {actual} bytes, diff list implies {expected}",
                    )
        base = document.get("base_set")
        if (
            base is not None
            and document.get("storage") != "chunked"
            and not self.context.document_store.exists(SETS_COLLECTION, base)
        ):
            # For chunked sets the base reference is lineage provenance
            # only — recovery reads the digest matrix, never the base —
            # so a garbage-collected base is not a broken chain.
            report.add(set_id, "broken-chain", f"base set {base!r} missing")
        if document.get("type") == "mmlib-base":
            for model_id in document.get("model_ids", []):
                if not self.context.document_store.exists("mmlib_models", model_id):
                    report.add(set_id, "missing-model-doc", model_id)

    def _check_chunk_references(
        self, set_id: str, document: dict, report: VerificationReport
    ) -> None:
        """Audit a chunked set: every digest indexed, every length right."""
        matrix = set_owns(self.context, set_id, document).matrix
        if matrix is None:
            report.add(
                set_id,
                "missing-chunk-digests",
                "chunked set has neither chunk_digests nor hash info",
            )
            return
        if len(matrix) != int(document.get("num_models", len(matrix))):
            report.add(
                set_id,
                "count-mismatch",
                f"digest matrix has {len(matrix)} rows, descriptor says "
                f"{document.get('num_models')}",
            )
            return
        chunk_store = self.context.chunk_store()
        sizes = layer_nbytes(
            StateSchema.from_json(document["schema"]),
            2 if document.get("param_dtype") == "float16" else 4,
        )
        for model, row in enumerate(matrix):
            for layer, digest in enumerate(row):
                if digest not in chunk_store:
                    report.add(
                        set_id,
                        "missing-chunk",
                        f"model {model} layer {layer}: chunk {digest[:12]}… "
                        "not in the chunk index",
                    )
                    return
                actual = chunk_store.chunk_length(digest)
                if actual != sizes[layer]:
                    report.add(
                        set_id,
                        "length-mismatch",
                        f"model {model} layer {layer}: chunk has {actual} "
                        f"bytes, schema implies {sizes[layer]}",
                    )
                    return
                if chunk_store.references(digest) <= 0:
                    report.add(
                        set_id,
                        "dangling-chunk-ref",
                        f"model {model} layer {layer}: chunk {digest[:12]}… "
                        "has zero references but is still referenced by "
                        "this set",
                    )
                    return
                if chunk_store._chunks[digest].quarantined:
                    report.add(
                        set_id,
                        "quarantined-chunk",
                        f"model {model} layer {layer}: chunk {digest[:12]}… "
                        "is quarantined as corrupt (repair or re-save to heal)",
                    )
                    return

    # -- deep checks ---------------------------------------------------------------
    def _check_integrity(
        self, set_id: str, document: dict, report: VerificationReport
    ) -> None:
        """Re-hash the set's artifacts against their recorded checksums.

        Chunked sets are covered at finer grain by recovery (every chunk
        is digest-addressed); this check covers the monolithic artifacts
        whose in-memory reads do not verify on their own.
        """
        file_store = self.context.file_store
        for artifact in set_owns(self.context, set_id, document).artifacts:
            if file_store.exists(artifact) and not file_store.verify_artifact(artifact):
                report.add(
                    set_id,
                    "corrupt-artifact",
                    f"{artifact}: bytes do not match the recorded checksum",
                )

    def _check_recovery(
        self,
        set_id: str,
        document: dict,
        approach_name: str,
        report: VerificationReport,
    ) -> None:
        approach = APPROACHES[approach_name](self.context)
        try:
            model_set = approach.recover(set_id)
        except ReproError as exc:
            report.add(set_id, "unrecoverable", str(exc))
            return
        if len(model_set) != int(document.get("num_models", len(model_set))):
            report.add(
                set_id,
                "count-mismatch",
                f"recovered {len(model_set)} models, descriptor says "
                f"{document.get('num_models')}",
            )
        hash_doc = self.context.document_store.peek(HASH_COLLECTION, set_id)
        if approach_name == "update" and hash_doc is not None:
            stored = hash_doc["hashes"]
            layer_names = model_set.schema.layer_names()
            for index, state in enumerate(model_set.states):
                recomputed = [
                    hash_array(state[name], length=64) for name in layer_names
                ]
                if recomputed != stored[index]:
                    report.add(
                        set_id,
                        "hash-mismatch",
                        f"model {index}: stored hash info does not match "
                        "recovered parameters",
                    )
                    break
