"""The wrap table: ``module:qualname`` → (layer, role) for the traced pass.

A *layer* is a module of the program; a *role* groups that layer's
entry points into the self-time buckets the per-layer metrics name
(``storage.persistent.file_write_self_s`` is layer ``storage.persistent``,
role ``file_write``).  Probes count work at the same boundary from the
call's arguments and return value; a ``span=False`` row only counts.

Private names appear where no public function marks the boundary: the
journal's writes and the refs ledger reach disk through
``_atomic_write``; ``Registry.diff`` and the serving miss path read
documents through ``_read_raw``; ``UpdateApproach`` peeks descriptors
through the replicated store's ``_collections`` vote; an inline ingest
flush runs in ``IngestQueue._execute``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.approach import SETS_COLLECTION
from repro.storage.chunk_index import REFS_DOC_ID
from repro.storage.journal import JOURNAL_COLLECTION


@dataclass(frozen=True)
class Wrap:
    target: str
    layer: str
    role: str
    probe: Optional[Callable] = None
    span: bool = True
    rebind_home: bool = True


def _add(counts: dict, name: str, value: float) -> None:
    counts[name] = counts.get(name, 0) + value


def _encoded(counts, args, kwargs, result):
    _add(counts, "bytes_encoded", len(result))


def _decoded_blob(counts, args, kwargs, result):
    _add(counts, "bytes_decoded", len(args[0]))


def _decoded_parameters(counts, args, kwargs, result):
    schema = args[1] if len(args) > 1 else kwargs["schema"]
    _add(counts, "bytes_decoded", schema.num_bytes)


def _hashed_states(counts, args, kwargs, result):
    # One schema per set: the first model's layer sizes stand for all.
    states, layer_names = args[0], args[1]
    if states:
        per_model = sum(states[0][name].nbytes for name in layer_names)
        _add(counts, "bytes_hashed", per_model * len(states))


def _hashed_array(counts, args, kwargs, result):
    _add(counts, "bytes_hashed", args[0].nbytes)


def _hashed_bytes(counts, args, kwargs, result):
    _add(counts, "bytes_hashed", len(args[0]))


def _journal_logged(counts, args, kwargs, result):
    _add(counts, "journal_ops_logged", 1)


def _journal_committed(counts, args, kwargs, result):
    _add(counts, "journal_txns", 1)


def _descriptor_inserted(counts, args, kwargs, result):
    """Delta descriptors carry the diff list: layers written vs offered."""
    collection, document = args[1], args[2]
    if collection == SETS_COLLECTION and "diff" in document:
        _add(counts, "layers_written", sum(len(c) for _m, c in document["diff"]))
        _add(
            counts,
            "layers_offered",
            int(document["num_models"]) * len(document["schema"]),
        )


def _writer_wrote(counts, args, kwargs, result):
    _add(counts, "file_bytes_written", len(args[1]))


def _file_got(counts, args, kwargs, result):
    _add(counts, "file_bytes_read", len(result))


def _file_got_ranges(counts, args, kwargs, result):
    _add(counts, "file_bytes_read", sum(len(chunk) for chunk in result))


def _atomic_wrote(counts, args, kwargs, result):
    """Classify a durable write by where it lands (documents are .json;
    anything else is an artifact or its checksum sidecar)."""
    path, data = args[0], args[1]
    if path.suffix != ".json":
        _add(counts, "file_bytes_written", len(data))
        return
    _add(counts, "doc_bytes_written", len(data))
    if path.parent.name == JOURNAL_COLLECTION:
        _add(counts, "journal_bytes_written", len(data))
    elif path.stem == REFS_DOC_ID:
        _add(counts, "refs_ledger_bytes_written", len(data))


def _ingest_closed(counts, args, kwargs, result):
    _add(counts, "chunks_offered", result.chunks_total)
    _add(counts, "chunks_new", result.chunks_new)


def _chunks_fetched(counts, args, kwargs, result):
    _add(counts, "chunks_fetched", len(result))


def _raw_read(name: str):
    def probe(counts, args, kwargs, result):
        _add(counts, name, 1)

    return probe


_SER = "repro.nn.serialization:"
_HASH = "repro.storage.hashing:"
_UPD = "repro.core.update:UpdateApproach."
_BASE = "repro.core.baseline:"
_JRN = "repro.storage.journal:"
_PER = "repro.storage.persistent:"
_PFS = _PER + "PersistentFileStore."
_PDS = _PER + "PersistentDocumentStore."
_CHK = "repro.storage.chunk_index:"
_RFS = "repro.storage.replication:ReplicatedFileStore."
_RDS = "repro.storage.replication:ReplicatedDocumentStore."
_FLT = "repro.fleet.manager:FleetManager."
_ING = "repro.fleet.ingest:IngestQueue."
_SRV = "repro.serving.reader:ServingCache."
_REG = "repro.registry.catalog:Registry."

WRAPS: "list[Wrap]" = [
    # -- nn.serialization ---------------------------------------------------
    Wrap(_SER + "serialize_state_dict", "nn.serialization", "encode", _encoded),
    Wrap(_SER + "parameters_to_bytes", "nn.serialization", "encode", _encoded),
    Wrap(_SER + "deserialize_state_dict", "nn.serialization", "decode", _decoded_blob),
    Wrap(_SER + "bytes_to_parameters", "nn.serialization", "decode", _decoded_parameters),
    # -- storage.hashing ----------------------------------------------------
    Wrap(_HASH + "hash_states", "storage.hashing", "hash", _hashed_states),
    Wrap(_HASH + "hash_array", "storage.hashing", "hash", _hashed_array, rebind_home=False),
    Wrap(_HASH + "hash_bytes", "storage.hashing", "hash", _hashed_bytes, rebind_home=False),
    # -- core.update / core.baseline ----------------------------------------
    Wrap(_UPD + "save_initial", "core.update", "save"),
    Wrap(_UPD + "save_derived", "core.update", "save"),
    Wrap(_UPD + "recover", "core.update", "recover"),
    Wrap(_UPD + "recover_model", "core.update", "recover_model"),
    Wrap(_BASE + "write_full_set", "core.baseline", "write"),
    Wrap(_BASE + "write_chunked_set", "core.baseline", "write"),
    Wrap(_BASE + "read_full_set", "core.baseline", "read"),
    Wrap(_BASE + "read_single_model", "core.baseline", "read"),
    Wrap(_BASE + "read_chunked_set", "core.baseline", "read"),
    Wrap(_BASE + "read_chunked_model", "core.baseline", "read"),
    # -- storage.journal ----------------------------------------------------
    Wrap(_JRN + "SaveJournal.begin", "storage.journal", "journal"),
    Wrap(_JRN + "SaveJournal.commit", "storage.journal", "journal", _journal_committed),
    Wrap(_JRN + "SaveTransaction.log_op", "storage.journal", "journal", _journal_logged),
    Wrap(_JRN + "SaveTransaction.defer_delete", "storage.journal", "journal"),
    Wrap(_JRN + "JournaledFileStore.put", "storage.journal", "journal"),
    Wrap(_JRN + "JournaledFileStore.open_writer", "storage.journal", "journal"),
    Wrap(_JRN + "JournaledFileStore.delete", "storage.journal", "journal"),
    Wrap(
        _JRN + "JournaledDocumentStore.insert", "storage.journal", "journal",
        _descriptor_inserted,
    ),
    Wrap(_JRN + "JournaledDocumentStore.replace", "storage.journal", "journal"),
    Wrap(_JRN + "JournaledDocumentStore.delete", "storage.journal", "journal"),
    # -- storage.persistent -------------------------------------------------
    Wrap(_PFS + "put", "storage.persistent", "file_write"),
    Wrap(_PFS + "open_writer", "storage.persistent", "file_write"),
    Wrap(_PFS + "delete", "storage.persistent", "file_write"),
    Wrap(_PER + "_DiskArtifactWriter.write", "storage.persistent", "file_write", _writer_wrote),
    Wrap(_PER + "_DiskArtifactWriter.close", "storage.persistent", "file_write"),
    Wrap(_PFS + "get", "storage.persistent", "file_read", _file_got),
    Wrap(_PFS + "get_ranges", "storage.persistent", "file_read", _file_got_ranges),
    Wrap(_PFS + "verify_artifact", "storage.persistent", "file_read"),
    Wrap(_PDS + "insert", "storage.persistent", "doc_write"),
    Wrap(_PDS + "replace", "storage.persistent", "doc_write"),
    Wrap(_PDS + "delete", "storage.persistent", "doc_write"),
    Wrap(_PDS + "get", "storage.persistent", "doc_read"),
    Wrap(_PDS + "find", "storage.persistent", "doc_read"),
    Wrap(_PER + "_atomic_write", "storage.persistent", "", _atomic_wrote, span=False),
    Wrap(
        "repro.storage.document_store:DocumentStore._read_raw", "storage.persistent", "",
        _raw_read("doc_raw_reads"), span=False,
    ),
    # -- storage.chunk_index ------------------------------------------------
    Wrap(_CHK + "ChunkStore.ingest", "storage.chunk_index", "ingest"),
    Wrap(_CHK + "ChunkStore.open_ingest", "storage.chunk_index", "ingest"),
    Wrap(_CHK + "IngestSession.add", "storage.chunk_index", "ingest"),
    Wrap(_CHK + "IngestSession.close", "storage.chunk_index", "ingest", _ingest_closed),
    Wrap(_CHK + "ChunkStore.fetch", "storage.chunk_index", "fetch", _chunks_fetched),
    Wrap(_CHK + "ChunkStore.fetch_verified", "storage.chunk_index", "fetch"),
    Wrap(_CHK + "ChunkStore.release", "storage.chunk_index", "sweep"),
    Wrap(_CHK + "ChunkStore.sweep", "storage.chunk_index", "sweep"),
    # -- storage.replication ------------------------------------------------
    Wrap(_RFS + "put", "storage.replication", "write"),
    Wrap(_RFS + "open_writer", "storage.replication", "write"),
    Wrap(_RFS + "delete", "storage.replication", "write"),
    Wrap("repro.storage.replication:_ReplicatedWriter.write", "storage.replication", "write"),
    Wrap("repro.storage.replication:_ReplicatedWriter.close", "storage.replication", "write"),
    Wrap(_RFS + "get", "storage.replication", "read"),
    Wrap(_RFS + "get_ranges", "storage.replication", "read"),
    Wrap(_RFS + "verify_artifact", "storage.replication", "read"),
    Wrap(_RDS + "insert", "storage.replication", "write"),
    Wrap(_RDS + "replace", "storage.replication", "write"),
    Wrap(_RDS + "delete", "storage.replication", "write"),
    Wrap(_RDS + "get", "storage.replication", "vote"),
    Wrap(_RDS + "find", "storage.replication", "vote"),
    Wrap(_RDS + "_collections", "storage.replication", "vote"),
    Wrap(_RDS + "_read_raw", "storage.replication", "vote"),
    # -- fleet --------------------------------------------------------------
    Wrap(_FLT + "save_set", "fleet.manager", "save"),
    Wrap(_FLT + "execute_save", "fleet.manager", "save"),
    Wrap(_FLT + "recover_set", "fleet.manager", "recover"),
    Wrap(_FLT + "recover_set_for_flush", "fleet.manager", "recover"),
    Wrap(_FLT + "recover_model", "fleet.manager", "recover"),
    Wrap(_FLT + "root_of", "fleet.manager", "route"),
    Wrap(_FLT + "shard_of", "fleet.manager", "route"),
    Wrap(_FLT + "allocate_save", "fleet.manager", "route"),
    Wrap(_ING + "submit", "fleet.ingest", "submit"),
    Wrap(_ING + "flush", "fleet.ingest", "flush"),
    Wrap(_ING + "close", "fleet.ingest", "flush"),
    Wrap(_ING + "_execute", "fleet.ingest", "flush"),
    # -- serving ------------------------------------------------------------
    Wrap(_SRV + "recover_set", "serving", "read"),
    Wrap(_SRV + "recover_model", "serving", "read"),
    Wrap("repro.serving.cache:SetCache.get", "serving", "set_cache"),
    Wrap("repro.serving.cache:SetCache.put", "serving", "set_cache"),
    Wrap("repro.serving.cache:ChunkCache.get_many", "serving", "chunk_cache"),
    Wrap("repro.serving.cache:ChunkCache.put_many", "serving", "chunk_cache"),
    # -- registry / maintenance ---------------------------------------------
    Wrap(_REG + "record_save", "registry", "record_save"),
    Wrap(_REG + "diff", "registry", "diff"),
    Wrap(_REG + "resolve", "registry", "resolve"),
    Wrap("repro.maintenance:MaintenanceScheduler.run_pass", "maintenance", "pass"),
]
