"""Durable per-shard dead-letter store for exhausted ingest flushes.

When an :class:`~repro.fleet.IngestQueue` flush exhausts its retries
(typically because the target shard is DOWN), the batch's coalesced
per-model states are *parked* here instead of being dropped: the payload
is serialized into the store's own ``deadletter/`` subtree at the fleet
root — deliberately **outside** the failing shard, so parking works
precisely when the shard does not — and each park/discard/purge runs as
one transaction of the store's private write-ahead
:class:`~repro.storage.journal.SaveJournal` (a process killed mid-park
rolls back cleanly at the next open; an entry is either fully durable
or absent).

Entries record their shard, chain root, dispatch base, the id their
failed flush had allocated, per-chain dispatch sequence number and
submission count, so an operator (or
``repro-archive <fleet> deadletter list|replay|purge``) can replay them
through the normal ingest path: :meth:`IngestQueue.replay_dead_letters`
re-submits the stored states, which re-coalesce, re-allocate ids, and
re-save exactly like live traffic — preserving lineage and
byte-identity of the recovered chain.

Payload format: per entry, one artifact holding the concatenation of
:func:`~repro.nn.serialization.serialize_state_dict` blobs (one per
model index, lengths recorded in the descriptor document), so decode is
byte-exact — dead-lettered updates replay with the same bytes that were
submitted.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from pathlib import Path

from repro.errors import DeadLetterError
from repro.nn.serialization import deserialize_state_dict, serialize_state_dict
from repro.storage.hardware import LOCAL_PROFILE, HardwareProfile
from repro.storage.journal import open_journal
from repro.storage.persistent import open_stores

__all__ = ["DEADLETTER_COLLECTION", "DEADLETTER_DIR", "DeadLetterStore"]

#: Directory name of the dead-letter subtree under a fleet root.
DEADLETTER_DIR = "deadletter"
#: Document-store collection holding one descriptor per parked batch.
DEADLETTER_COLLECTION = "dead_letters"


class DeadLetterStore:
    """Journal-transactional store of parked ingest batches.

    ``directory=None`` builds an in-memory store (for in-memory fleets
    and tests); a path builds the durable ``deadletter/`` subtree with
    ``artifacts/`` + ``documents/`` underneath, replaying its private
    journal on open so torn parks never surface as entries.
    """

    def __init__(
        self,
        directory: "str | Path | None" = None,
        profile: HardwareProfile = LOCAL_PROFILE,
    ) -> None:
        self.directory = Path(directory) if directory is not None else None
        self.journal, self.file_store, self.document_store, _report = open_journal(
            *open_stores(self.directory, profile)
        )
        self._lock = threading.Lock()
        highest = -1
        for entry_id in self.document_store.collection_ids(DEADLETTER_COLLECTION):
            suffix = entry_id.rsplit("-", 1)[-1]
            if suffix.isdigit():
                highest = max(highest, int(suffix))
        self._next_id = highest + 1

    # -- write side --------------------------------------------------------
    def park(
        self,
        shard: int,
        root: str,
        base: str,
        states: "OrderedDict[int, OrderedDict]",
        updates: int,
        seq: int,
        error: str,
        parked_at: float,
        set_id: "str | None" = None,
    ) -> str:
        """Durably park one exhausted batch; returns the entry id.

        ``set_id`` is the id the batch's failed flush had allocated: a
        batch dispatched while this one was in flight names it as its
        base, which therefore never lands (``None``: not a flush).

        One journal transaction covers the payload artifact and the
        descriptor document — a crash mid-park leaves nothing behind.
        """
        lengths: list[list] = []
        payload = bytearray()
        for model_index in sorted(states):
            blob = serialize_state_dict(states[model_index])
            lengths.append([int(model_index), len(blob)])
            payload.extend(blob)
        with self._lock:
            entry_id = f"dl-{self._next_id:06d}"
            self._next_id += 1
            with self.journal.begin(kind="deadletter"):
                self.file_store.put(
                    bytes(payload),
                    artifact_id=f"{entry_id}-payload",
                    category="deadletter",
                )
                self.document_store.insert(
                    DEADLETTER_COLLECTION,
                    {
                        "shard": int(shard),
                        "root": root,
                        "base": base,
                        "set_id": set_id,
                        "updates": int(updates),
                        "seq": int(seq),
                        "models": [index for index, _ in lengths],
                        "lengths": lengths,
                        "error": str(error),
                        "parked_at": float(parked_at),
                    },
                    doc_id=entry_id,
                )
        return entry_id

    def discard(self, entry_id: str) -> None:
        """Remove one entry (after replay) as one journal transaction."""
        with self._lock:
            if not self.document_store.exists(DEADLETTER_COLLECTION, entry_id):
                raise DeadLetterError(f"no dead-letter entry {entry_id!r}")
            with self.journal.begin(kind="deadletter"):
                self.document_store.delete(DEADLETTER_COLLECTION, entry_id)
                self.file_store.delete(f"{entry_id}-payload")

    def purge(
        self, entry_ids: "list[str] | None" = None, shard: "int | None" = None
    ) -> int:
        """Drop entries (all, by id, or by shard); returns how many."""
        doomed = [
            entry["id"]
            for entry in self.entries(shard=shard)
            if entry_ids is None or entry["id"] in set(entry_ids)
        ]
        for entry_id in doomed:
            self.discard(entry_id)
        return len(doomed)

    # -- read side ---------------------------------------------------------
    def entries(self, shard: "int | None" = None) -> list[dict]:
        """Descriptor copies (with ``id``) in park order, oldest first."""
        found = []
        for entry_id in sorted(
            self.document_store.collection_ids(DEADLETTER_COLLECTION)
        ):
            document = self.document_store.get(DEADLETTER_COLLECTION, entry_id)
            if shard is not None and int(document.get("shard", -1)) != shard:
                continue
            found.append({"id": entry_id, **document})
        return found

    def load_states(self, entry_id: str) -> "OrderedDict[int, OrderedDict]":
        """Decode one entry's parked per-model states, byte-exact."""
        if not self.document_store.exists(DEADLETTER_COLLECTION, entry_id):
            raise DeadLetterError(f"no dead-letter entry {entry_id!r}")
        document = self.document_store.get(DEADLETTER_COLLECTION, entry_id)
        payload = self.file_store.get(f"{entry_id}-payload")
        states: "OrderedDict[int, OrderedDict]" = OrderedDict()
        offset = 0
        for model_index, length in document["lengths"]:
            blob = payload[offset : offset + int(length)]
            offset += int(length)
            states[int(model_index)] = deserialize_state_dict(blob)
        if offset != len(payload):
            raise DeadLetterError(
                f"dead-letter entry {entry_id!r}: payload is {len(payload)} "
                f"bytes but the recorded lengths cover {offset}"
            )
        return states

    @property
    def count(self) -> int:
        return len(
            self.document_store.collection_ids(DEADLETTER_COLLECTION)
        )

    def total_bytes(self) -> int:
        return self.file_store.total_bytes() + self.document_store.total_bytes()
