"""Persistence substrates: file store, document store, latency profiles.

These stand in for the filesystem + MongoDB-style document store that
MMlib uses.  Both stores account every operation and byte written, which
gives the benchmark harness exact storage-consumption numbers, and both
charge a configurable simulated latency per operation so that the paper's
"server" vs. "M1" hardware comparison reproduces deterministically on any
host (see DESIGN.md, substitution table).
"""

from repro.storage.chunk_index import ChunkStore, IngestReport, SweepReport
from repro.storage.document_store import DocumentStore
from repro.storage.file_store import FileStore
from repro.storage.hardware import (
    LOCAL_PROFILE,
    M1_PROFILE,
    SERVER_PROFILE,
    HardwareProfile,
)
from repro.storage.hashing import hash_array, hash_bytes, hash_state_dict_layers
from repro.storage.replication import (
    ReplicatedDocumentStore,
    ReplicatedFileStore,
    ReplicationPolicy,
    ReplicaState,
    default_quorums,
    replica_divergence,
    replicated_stores,
)
from repro.storage.stats import StorageStats

__all__ = [
    "ChunkStore",
    "DocumentStore",
    "FileStore",
    "IngestReport",
    "SweepReport",
    "HardwareProfile",
    "LOCAL_PROFILE",
    "M1_PROFILE",
    "SERVER_PROFILE",
    "ReplicatedDocumentStore",
    "ReplicatedFileStore",
    "ReplicationPolicy",
    "ReplicaState",
    "StorageStats",
    "default_quorums",
    "hash_array",
    "hash_bytes",
    "hash_state_dict_layers",
    "replica_divergence",
    "replicated_stores",
]
