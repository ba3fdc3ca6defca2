"""One state machine over the whole fleet: every saved set recovers exactly.

A durable two-shard ``FleetManager`` (dedup on with one replica, or off
with three) is driven through ingest, serving reads, catalog tags and
diffs, gc, compaction, maintenance passes, shard and replica outages,
dead-letter replay and process kills at a drawn mutating op, each kill
followed by a reopen.  The model is plain dicts of set id → expected
states, family and shard, plus the ingest queue's spec; after every step
the invariants compare the fleet with it.  ``REPRO_FAULT_SEED`` offsets
every injector's seed and seeds the search, as the crash matrix does.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, seed, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.config import ArchiveConfig, FleetHealthConfig, MaintenanceConfig, ServingConfig
from repro.core.fsck import ArchiveFsck
from repro.core.manager import shard_for
from repro.core.model_set import ModelSet
from repro.core.retention import RetentionManager
from repro.core.save_info import SetMetadata
from repro.errors import (
    IngestBackpressureError,
    IngestError,
    ShardUnavailableError,
    SimulatedCrashError,
    StorageError,
)
from repro.fleet import FleetManager, IngestQueue
from repro.fleet.health import HEALTHY
from repro.maintenance import MaintenanceScheduler
from repro.nn.serialization import parameters_to_bytes
from repro.registry import VERSIONS_COLLECTION
from repro.simtime import SimClock
from repro.storage.chunk_index import PACKS_COLLECTION
from repro.storage.faults import FaultInjector, inject_faults, inject_replica_faults
from repro.storage.journal import JOURNAL_COLLECTION
from repro.storage.persistent import SHARD_PREFIX, _decode_frames

from tests.registry.test_catalog_rule import rebuilt

SEED_BASE = int(os.environ.get("REPRO_FAULT_SEED", "0"))
NUM_MODELS, SHARDS, MAX_CHAINS, KEEP_LAST, HIGH_WATERMARK = 2, 2, 3, 5, 3
FAMILIES = ("alpha", "beta")
BASE = ModelSet.build("FFNN-48", num_models=NUM_MODELS, seed=3)
HEALTH = FleetHealthConfig(
    degraded_after=1,
    down_after=2,
    probe_interval_ops=2,
    backpressure="shed",
    high_watermark=HIGH_WATERMARK,
    low_watermark=1,
    flush_retries=1,
    retry_base_s=0.01,
)
UPKEEP = MaintenanceConfig(
    enabled=True, gc_keep_last=KEEP_LAST, compact_chain_depth=3, scrub_deep=True
)


def digest(states) -> str:
    hasher = hashlib.sha256()
    for state in states:
        hasher.update(parameters_to_bytes(state))
    return hasher.hexdigest()


def fields(record) -> tuple:
    """A catalog record's fields a rebuild re-derives from descriptors."""
    return (record.set_id, record.kind, record.approach, record.architecture, record.shard)


def as_set(states) -> ModelSet:
    model_set = BASE.copy()
    for index, state in enumerate(states):
        model_set.states[index] = state
    return model_set


@dataclass
class Chain:
    """One ingest chain as the model sees it."""

    head: str
    shard: int
    pending: dict = field(default_factory=dict)  # model index -> state
    updates: int = 0  # submissions absorbed by the open batch
    dispatched: int = 0  # batches this process's queue dispatched


class FleetMachine(RuleBasedStateMachine):
    dedup = False
    replicas = 1

    def __init__(self) -> None:
        super().__init__()
        self.root = Path(tempfile.mkdtemp(prefix="fleet-machine-"))
        self.config = ArchiveConfig(
            shards=SHARDS, dedup=self.dedup, replicas=self.replicas,
            serving=ServingConfig(enabled=True), maintenance=UPKEEP, health=HEALTH,
        )
        self.sets: dict[str, tuple] = {}  # set id -> expected model states
        self.digests: dict[str, str] = {}
        self.base_of: dict[str, "str | None"] = {}
        self.family_of: dict[str, str] = {}
        self.shard_of: dict[str, int] = {}
        self.tags: dict[str, str] = {}  # family -> the set pinned "prod"
        self.chains: dict[int, Chain] = {}
        self.next_chain = 0
        self.parked: dict[str, tuple[int, dict]] = {}  # entry id -> (chain, batch)
        self.down: dict[int, FaultInjector] = {}  # shard -> its cold outage
        self.replica_down: "FaultInjector | None" = None
        self.stale: set[int] = set()  # shards whose replicas may diverge
        self.saved_last: dict[int, bool] = {}  # shard -> its last save succeeded
        self.step = self.checked = 0
        self.audited: dict[int, tuple] = {}  # shard -> stores at its last fsck
        self._open()

    def teardown(self) -> None:
        self.queue.abort()
        shutil.rmtree(self.root, ignore_errors=True)

    # -- the process -------------------------------------------------------
    def _open(self) -> None:
        """(Re)open the fleet, its queue and scheduler: a fresh process.
        Parked batches are durable; whatever else a queue held died."""
        self.fleet = FleetManager.open(self.root, "update", self.config)
        self.clock = SimClock()
        self.queue = IngestQueue(self.fleet, NUM_MODELS, workers=0, clock=self.clock)
        self.scheduler = MaintenanceScheduler.for_manager(self.fleet, clock=self.clock)
        self.carried = sum(len(batch) for _chain, batch in self.parked.values())
        self.accepted = self.resubmitted = 0
        self.down.clear()
        self.replica_down = None
        self.saved_last.clear()
        for chain in self.chains.values():
            chain.pending, chain.updates, chain.dispatched = {}, 0, 0

    def _new_state(self, index: int) -> OrderedDict:
        self.step += 1
        shift = np.float32(0.0625 * self.step)
        return OrderedDict(
            (name, (array + shift).astype(array.dtype))
            for name, array in BASE.state(index).items()
        )

    def _commit(self, set_id: str, states, base: "str | None", family: str, shard: int) -> None:
        self.sets[set_id] = tuple(states)
        self.digests[set_id] = digest(states)
        self.base_of[set_id] = base
        self.family_of[set_id] = family
        self.shard_of[set_id] = shard

    def _forget(self, set_ids) -> None:
        for set_id in set_ids:
            for book in (self.sets, self.digests, self.base_of, self.family_of, self.shard_of):
                book.pop(set_id, None)
        self.tags = {f: s for f, s in self.tags.items() if s in self.sets}
        self.chains = {k: c for k, c in self.chains.items() if c.head in self.sets}

    def _load(self, shard: int) -> int:
        return sum(len(c.pending) for c in self.chains.values() if c.shard == shard)

    def _refused(self, set_id: str) -> bool:
        """A read may be refused: the set's shard is down or its breaker open."""
        shard = self.shard_of[set_id]
        return shard in self.down or self.fleet.health.is_down(shard)

    # -- the ingest spec ---------------------------------------------------
    def _expect(self, key: int, index: int, state, dispatches: list, replay=False) -> bool:
        """The model's half of one submit; ``False`` when admission sheds it.
        A replayed (older) state never displaces a pending one."""
        chain = self.chains[key]
        if index not in chain.pending and self._load(chain.shard) >= HIGH_WATERMARK:
            return False
        if not (replay and index in chain.pending):
            chain.pending[index] = state
        chain.updates += 1
        if chain.updates >= NUM_MODELS:
            self._dispatch(key, dispatches)
        return True

    def _submit(self, key: int, index: int, dispatches: list) -> None:
        """Offer one fresh update to the queue, then to the model."""
        chain, state = self.chains[key], self._new_state(index)
        shed = index not in chain.pending and self._load(chain.shard) >= HIGH_WATERMARK
        try:
            self.queue.submit(chain.head, index, state)
        except IngestBackpressureError:
            assert shed, "admission refused an update below the watermark"
            return
        except IngestError:
            pass  # the flush it triggered failed: the batch is matched in _settle
        except ShardUnavailableError:
            # Resolving the chain read a dead shard: refused, not accepted.
            assert chain.shard in self.down
            return
        assert self._expect(key, index, state, dispatches), "admitted past the watermark"
        self.accepted += 1

    def _live(self, entry: dict, head: str, flushes: dict, batch: dict) -> dict:
        """The parked models a replay resubmits.  A model whose state on
        ``head`` (its chain's head as the replay began, whichever process
        replays) differs from its state on the batch's landed base (its
        base, or the base of the parked batch whose failed flush its base
        is) was saved since: dropped, as replaying it would roll the model
        back."""
        base = entry["base"]
        while base not in self.sets:
            if base not in flushes:
                return batch
            base = flushes[base]["base"]
        if head == base:
            return batch
        return {
            index: state
            for index, state in batch.items()
            if digest([self.sets[head][index]]) == digest([self.sets[base][index]])
        }

    def _dispatch(self, key: int, dispatches: list) -> None:
        chain = self.chains[key]
        if chain.pending:
            dispatches.append((key, chain.dispatched, chain.pending))
            chain.dispatched += 1
            chain.pending, chain.updates = {}, 0

    def _watch(self) -> tuple[int, set]:
        return len(self.queue.flush_log), {e["id"] for e in self.fleet.deadletter.entries()}

    def _outcomes(self, watched: tuple[int, set]) -> tuple[dict, dict]:
        """Flushes and dead-letter entries made since ``watched``, keyed by
        the (base, per-chain dispatch number) the queue recorded."""
        flushed = {(e["base"], e["seq"]): e for e in self.queue.flush_log[watched[0]:]}
        parked = {
            (e["base"], e["seq"]): e
            for e in self.fleet.deadletter.entries()
            if e["id"] not in watched[1]
        }
        return flushed, parked

    def _resolve(self, dispatch: tuple, outcomes: tuple[dict, dict]) -> bool:
        """Match one predicted batch to its one outcome: a flush on the
        chain's head, or a dead-letter entry holding exactly its updates."""
        key, seq, batch = dispatch
        chain = self.chains[key]
        entry = outcomes[0].pop((chain.head, seq), None)
        if entry is not None:
            assert entry["models"] == len(batch)
            self._extend(chain, entry["set_id"], batch)
            return True
        entry = outcomes[1].pop((chain.head, seq), None)
        assert entry is not None, f"batch {seq} on {chain.head} neither flushed nor parked"
        assert entry["models"] == sorted(batch)
        self.parked[entry["id"]] = (key, batch)
        self.saved_last[chain.shard] = False
        if chain.shard in self.down:
            # Two failed attempts trip the shard's breaker.
            assert self.fleet.health.is_down(chain.shard)
        return False

    def _settle(self, dispatches: list, watched: tuple[int, set]) -> None:
        outcomes = self._outcomes(watched)
        for dispatch in dispatches:
            self._resolve(dispatch, outcomes)
        assert outcomes == ({}, {}), outcomes

    def _extend(self, chain: Chain, set_id: str, batch: dict) -> None:
        states = list(self.sets[chain.head])
        for index, state in batch.items():
            states[index] = state
        self._commit(set_id, states, chain.head, self.family_of[chain.head], chain.shard)
        chain.head = set_id
        self.saved_last[chain.shard] = True

    def _run(self, operation) -> None:
        """Run one queue operation and settle the batches it dispatched."""
        watched, dispatches = self._watch(), []
        operation(dispatches)
        self._settle(dispatches, watched)

    # -- rules -------------------------------------------------------------
    @initialize()
    def one_chain_per_family(self):
        for family in FAMILIES:
            self.start_chain(family)

    @precondition(lambda self: len(self.chains) < MAX_CHAINS)
    @rule(family=st.sampled_from(FAMILIES))
    def start_chain(self, family):
        states = [self._new_state(index) for index in range(NUM_MODELS)]
        try:
            set_id = self.fleet.save_set(
                as_set(states), metadata=SetMetadata(extra={"family": family})
            )
        except (ShardUnavailableError, StorageError):
            # A breaker an earlier outage tripped refuses saves until a
            # half-open probe closes it, even once the shard is back.
            assert self.down or any(map(self.fleet.health.is_down, range(SHARDS))), (
                "an initial save failed with every shard up"
            )
            return
        shard = shard_for(set_id, SHARDS)
        self._commit(set_id, states, None, family, shard)
        self.saved_last[shard] = True
        self.chains[self.next_chain] = Chain(set_id, shard)
        self.next_chain += 1

    @precondition(lambda self: self.chains)
    @rule(
        data=st.data(),
        indices=st.lists(st.integers(0, NUM_MODELS - 1), min_size=1, max_size=3),
        flush=st.booleans(),
    )
    def submit(self, data, indices, flush):
        key = data.draw(st.sampled_from(sorted(self.chains)), label="chain")

        def operation(dispatches):
            for index in indices:
                self._submit(key, index, dispatches)
            if flush:
                try:
                    self.queue.flush(self.chains[key].head)
                except IngestError:
                    pass  # dispatched, and failed: matched in _settle
                except ShardUnavailableError:
                    assert self.chains[key].shard in self.down  # as in _submit
                    return
                self._dispatch(key, dispatches)

        self._run(operation)

    @precondition(lambda self: self.sets)
    @rule(data=st.data(), index=st.integers(0, NUM_MODELS - 1))
    def recover_model(self, data, index):
        """One model through the serving cache (whole sets: every step)."""
        set_id = data.draw(st.sampled_from(sorted(self.sets)), label="set")
        try:
            got = parameters_to_bytes(self.fleet.recover_model(set_id, index))
        except (ShardUnavailableError, StorageError):
            assert self._refused(set_id)
        else:
            assert got == parameters_to_bytes(self.sets[set_id][index])

    @precondition(lambda self: self.chains)
    @rule(data=st.data())
    def tag_resolve_diff(self, data):
        head = self.chains[data.draw(st.sampled_from(sorted(self.chains)), label="chain")].head
        family = self.family_of[head]
        registry = self.fleet.registry
        registry.tag(family, "prod", head)
        self.tags[family] = head
        assert registry.resolve(family, "prod") == head
        other = self.base_of[head] if self.base_of[head] in self.sets else head
        if {self.shard_of[head], self.shard_of[other]} & set(self.down):
            return
        expected = tuple(
            index
            for index in range(NUM_MODELS)
            if parameters_to_bytes(self.sets[other][index])
            != parameters_to_bytes(self.sets[head][index])
        )
        assert registry.diff(other, head).changed_models == expected

    def _quiet(self, key: "int | None" = None) -> bool:
        """No update of the chain (or of any chain) is pending or parked."""
        keys = list(self.chains) if key is None else [key]
        parked = {chain for chain, _batch in self.parked.values()}
        return not any(self.chains[k].pending or k in parked for k in keys)

    @precondition(lambda self: self.chains)
    @rule(data=st.data())
    def gc(self, data):
        key = data.draw(st.sampled_from(sorted(self.chains)), label="chain")
        head = self.chains[key].head
        if self._quiet(key) and self.shard_of[head] not in self.down:
            self.fleet.delete_sets([head])
            self._forget([head])

    @precondition(lambda self: self.sets and not self.dedup)
    @rule(data=st.data())
    def compact(self, data):
        set_id = data.draw(st.sampled_from(sorted(self.sets)), label="set")
        if self.shard_of[set_id] not in self.down:
            shard = self.fleet.shards[self.shard_of[set_id]]
            with shard.lock:
                RetentionManager(shard.context).compact(set_id)

    @precondition(lambda self: not self.down)
    @rule()
    def maintain(self):
        if self._quiet():
            self._maintain()

    def _maintain(self) -> None:
        report = self.scheduler.run_pass()
        assert report.exit_code != 2
        self._forget(sorted(self.sets)[:-KEEP_LAST])
        if self.replica_down is None:
            self.stale.clear()
            self._check_plateau()

    def _check_plateau(self) -> None:
        """Nothing down: no artifact or chunk byte outlives its last reference."""
        for shard in self.fleet.shards:
            context = shard.context
            assert not ArchiveFsck(context).run().orphan_artifacts
            if self.dedup:
                assert context.chunk_store().dead_bytes() == 0
                packs = context.document_store.peek_collection(PACKS_COLLECTION)
                for doc in packs.values():
                    assert context.file_store.size(doc["artifact"]) == sum(doc["lengths"])

    @precondition(lambda self: not self.down)
    @rule(shard=st.integers(0, SHARDS - 1))
    def shard_down(self, shard):
        self.down[shard] = inject_faults(
            self.fleet.shards[shard].context,
            FaultInjector(seed=SEED_BASE + shard, down_at=0, down_mode="before"),
        )
        self.saved_last[shard] = False

    @precondition(lambda self: self.down)
    @rule()
    def shard_revive(self):
        for injector in self.down.values():
            injector.revive()
            injector.down_at = None  # an outage that never began stays off
        self.down.clear()

    @precondition(lambda self: self.replicas > 1 and self.replica_down is None)
    @rule(shard=st.integers(0, SHARDS - 1), replica=st.integers(0, 2), after=st.booleans())
    def replica_outage(self, shard, replica, after):
        if shard in self.stale:
            return  # one fault at a time: a revived replica converges first
        self.replica_down = inject_replica_faults(
            self.fleet.shards[shard].context,
            replica,
            FaultInjector(
                seed=SEED_BASE + replica, down_at=0, down_mode="after" if after else "before"
            ),
        )
        self.stale.add(shard)

    @precondition(lambda self: self.replica_down is not None)
    @rule()
    def replica_revive(self):
        self.replica_down.revive()
        self.replica_down.down_at = None
        self.replica_down = None

    @precondition(lambda self: self.parked)
    @rule()
    def replay(self):
        watched, entries = self._watch(), self.fleet.deadletter.entries()
        heads = {key: chain.head for key, chain in self.chains.items()}
        flushes = {entry["set_id"]: entry for entry in entries if entry["set_id"]}
        report = self.queue.replay_dead_letters()
        outcomes = self._outcomes(watched)
        kept = set(report["skipped"]) | {
            f["id"] for f in report["failed"] if f["reparked"] == [f["id"]]
        }
        for entry in entries:
            if entry["id"] in kept:
                continue
            key, batch = self.parked.pop(entry["id"])
            live = self._live(entry, heads[key], flushes, batch)
            self.resubmitted += len(batch) - len(live)  # dropped: coalesced
            batch = live
            unsent = dict(sorted(batch.items()))
            for index, state in sorted(batch.items()):
                dispatches = []
                if not self._expect(key, index, state, dispatches, replay=True):
                    break  # refused at admission
                del unsent[index]
                self.resubmitted += 1
                if dispatches and not self._resolve(dispatches[0], outcomes):
                    break  # a failed flush ends the entry's replay
            else:
                dispatches = []
                for chain in sorted(self.chains):  # replay drains every chain
                    self._dispatch(chain, dispatches)
                for dispatch in dispatches:
                    self._resolve(dispatch, outcomes)
            if unsent:
                # What the queue never took is parked back under the entry's base.
                left = outcomes[1].pop((entry["base"], entry["seq"]))
                assert left["models"] == sorted(unsent)
                self.parked[left["id"]] = (key, unsent)
        assert outcomes == ({}, {}), outcomes
        if not self.down and not any(map(self.fleet.health.is_down, range(SHARDS))):
            assert not self.parked, "a replay with every shard up left updates parked"

    @rule(
        kill=st.sampled_from(["save", "journal-tail", "maintain", "park", "catalog"]),
        at=st.integers(0, 7),
        data=st.data(),
    )
    def crash(self, kill, at, data):
        """Kill the process at mutating op ``at`` of the ``kill`` operation, then reopen."""
        parking = kill == "park"
        keys = [k for k, c in self.chains.items() if (c.shard in self.down) == parking]
        if kill == "maintain":
            if self.down or not self._quiet():
                return
            key, shard = None, at % SHARDS
        elif not keys or (kill == "journal-tail" and self.replica_down is not None):
            return
        else:
            key = data.draw(st.sampled_from(sorted(keys)), label="chain")
            shard = self.chains[key].shard
        if kill in ("park", "catalog"):
            at %= 2  # a park is two ops, a catalog record one
        injector = FaultInjector(
            seed=SEED_BASE + at,
            crash_at=at,
            crash_mode="after" if kill == "journal-tail" else "auto",
        )
        patched = None
        if kill == "park":
            inject_faults(self.fleet.deadletter, injector)
        elif kill == "catalog":
            patched = self.fleet.registry._store
            write = patched._write_raw
            patched._write_raw = lambda c, d, doc: (
                injector.mutation(lambda: write(c, d, doc))
                if c == VERSIONS_COLLECTION
                else write(c, d, doc)
            )
        elif kill == "journal-tail":
            # Killed right after appending a record, before its mutation.
            patched = self.fleet.shards[shard].context.journal
            write = patched._write
            patched._write = lambda d, doc: (
                injector.mutation(lambda: write(d, doc)) if "." in d else write(d, doc)
            )
        else:
            inject_faults(self.fleet.shards[shard].context, injector)
        up = [shard for shard in range(SHARDS) if shard not in self.down]
        listed = {shard: set(self.fleet.shards[shard].list_sets()) for shard in up}
        doomed = set(sorted(self.sets)[:-KEEP_LAST])
        watched, dispatches = self._watch(), []
        try:
            if key is None:
                self._maintain()
            else:
                for index in range(NUM_MODELS):
                    self._submit(key, index, dispatches)
        except SimulatedCrashError:
            assert injector.ops > at
        finally:
            injector.crash_at = None
            if patched is not None:
                del patched.__dict__["_write_raw" if kill == "catalog" else "_write"]
        if injector.ops <= at:
            self._settle(dispatches, watched)  # the op count fell short: no kill
            return
        self.queue.abort()
        if kill == "journal-tail":
            self._cut_journal_tail(shard)
        self._open()
        # What the killed operation committed is all or nothing, per shard.
        for index, before in listed.items():
            now = set(self.fleet.shards[index].list_sets())
            gone, new = before - now, now - before
            assert gone <= doomed and not (gone and new), (gone, new)
            self._forget(gone)
            for set_id in new:
                # Only a kill in the root catalog write follows the shard commit.
                assert kill == "catalog" and len(dispatches) == 1, set_id
                self._extend(self.chains[dispatches[0][0]], set_id, dispatches[0][2])

    def _cut_journal_tail(self, shard: int) -> None:
        """Cut every copy of the shard's journal log inside its last frame."""
        for log in (self.root / f"{SHARD_PREFIX}{shard}").rglob(f"{JOURNAL_COLLECTION}.log"):
            data = log.read_bytes()
            sizes = [size for size, _id, _encoded in _decode_frames(data)]
            if sizes:
                log.write_bytes(data[: len(data) - sizes[-1] // 2])

    # -- invariants --------------------------------------------------------
    @invariant()
    def sets_recover(self):
        """Chain heads always, and one other set per step, recover exactly."""
        self.checked += 1
        heads = [chain.head for chain in self.chains.values()]
        others = sorted(set(self.sets) - set(heads))
        sample = heads + ([others[self.checked % len(others)]] if others else [])
        for set_id in sample:
            if not self._refused(set_id):
                assert digest(self.fleet.recover_set(set_id).states) == self.digests[set_id]

    @invariant()
    def no_update_lost(self):
        """flushed + coalesced + parked (+ still pending) = accepted."""
        queue = self.queue
        parked = self.fleet.deadletter.entries()
        assert {entry["id"] for entry in parked} == set(self.parked)
        flushed = sum(entry["models"] for entry in queue.flush_log)
        held = sum(len(entry["models"]) for entry in parked) + queue.depth
        assert queue.updates_submitted == self.accepted + self.resubmitted
        assert flushed + queue.updates_coalesced + held == self.accepted + self.carried
        load = queue.shard_load()
        assert load == [self._load(shard) for shard in range(SHARDS)]
        assert max(load) <= HIGH_WATERMARK

    @invariant()
    def breakers_close(self):
        """A shard whose last save succeeded has a closed breaker."""
        for shard, saved in self.saved_last.items():
            assert not saved or self.fleet.health.state(shard) == HEALTHY

    @invariant()
    def archive_consistent(self):
        """fsck, placement, listing and catalog agree with the model."""
        if self.down:
            return
        for index, shard in enumerate(self.fleet.shards):
            context = shard.context
            # A deep fsck re-runs whenever the shard's stores changed.
            mark = (id(context),) + tuple(
                (store.stats.writes, store.stats.deletes)
                for store in (context.file_store, context.document_store)
            )
            if self.audited.get(index) != mark:
                report = ArchiveFsck(context).run(deep=True)
                assert not report.refcount_mismatches
                assert report.exit_code == 0 or (
                    index in self.stale and report.exit_code == 1
                ), report.summary()
                self.audited[index] = mark
            placed = {s for s, where in self.fleet._placement.items() if where == index}
            assert placed == set(shard.list_sets())
        assert self.fleet.list_sets() == sorted(self.sets)
        self._check_catalog()

    def _check_catalog(self) -> None:
        """The catalog holds every set under its family and shard, ``latest``
        and ``prod`` resolve to the model's sets, and a rebuild agrees on
        every field the descriptors carry.  A family inherited from a
        collected root is the one field a rebuild cannot re-derive."""
        registry = self.fleet.registry
        records = registry.records()
        assert [(r.set_id, r.family, r.shard) for r in records] == [
            (s, self.family_of[s], self.shard_of[s]) for s in sorted(self.sets)
        ]
        scratch = rebuilt(self.fleet)
        assert [fields(r) for r in records] == [fields(r) for r in scratch.records()]
        for family in {self.family_of[s] for s in self.sets}:
            latest = max(s for s in self.sets if self.family_of[s] == family)
            assert registry.resolve(family) == latest
            pinned = self.tags.get(family, latest)
            if not self._refused(pinned):
                tag = "prod" if family in self.tags else None
                recovered = self.fleet.recover_set(family=family, tag=tag)
                assert digest(recovered.states) == self.digests[pinned]
        assert self.tags == {
            family: registry.resolve(family, "prod")
            for family in registry.families()
            if "prod" in registry.tags(family)
        }


SETTINGS = settings(
    max_examples=12, stateful_step_count=20, deadline=None, database=None,
    suppress_health_check=list(HealthCheck),
)


@seed(SEED_BASE)
class DedupOneReplica(FleetMachine):
    dedup, replicas = True, 1


@seed(SEED_BASE)
class PlainThreeReplicas(FleetMachine):
    dedup, replicas = False, 3


class Drawn:
    """A ``st.data()`` stand-in whose draws are given in order."""

    def __init__(self, *values) -> None:
        self.values = list(values)

    def draw(self, strategy, label=None):
        return self.values.pop(0)


def test_a_reopened_fleet_replays_onto_the_newest_save():
    """The shrunk sequence that once forked a chain: a batch parks on the
    chain's base (both initial sets live on shard 1), a killed root
    catalog write follows a newer save's shard commit, and the reopened
    process replays.  The replay must compare against, and extend, that
    newer save."""
    machine = DedupOneReplica()
    steps = (
        machine.one_chain_per_family,
        lambda: machine.shard_down(1),
        lambda: machine.submit(Drawn(0), [0], True),
        machine.shard_revive,
        lambda: machine.crash("catalog", 0, Drawn(0)),
        machine.replay,
    )
    try:
        for step in steps:
            step()
            for invariant in (machine.sets_recover, machine.no_update_lost,
                              machine.breakers_close, machine.archive_consistent):
                invariant()
        assert machine.chains[0].head == "set-update-000003"
        assert not machine.parked
    finally:
        machine.teardown()


TestDedupOneReplica = DedupOneReplica.TestCase
TestDedupOneReplica.settings = SETTINGS
TestPlainThreeReplicas = PlainThreeReplicas.TestCase
TestPlainThreeReplicas.settings = SETTINGS
