"""The four workloads (names are the contract; see README.md for why each exists).

Every workload is closed-loop and single-client: the next operation is
issued when the previous one has returned and been checked.  Archives
are durable, journaled and registry-on — ``MultiModelManager.open`` /
``FleetManager.open`` with the defaults a user gets — on approach
``update`` with its defaults, architecture ``FFNN-48``, one thread
(``ArchiveConfig(workers=1)``, ``IngestQueue(workers=0)``) and
``SERVER_PROFILE`` (the profile never sleeps; it only prices the
simulated seconds).  Inputs are generated from the seed between timed
operations, never inside one; the program receives only the inputs.
"""

from __future__ import annotations

from collections import OrderedDict
from pathlib import Path

import numpy as np

from benchmarks.wallclock.harness import (
    Recorder,
    replication_facts,
    states_equal,
    zipf_cdf,
)
from repro.api import ArchiveConfig, FleetManager, IngestQueue, MultiModelManager
from repro.config import MaintenanceConfig, ObservabilityConfig, ServingConfig
from repro.maintenance import MaintenanceScheduler
from repro.storage.hardware import SERVER_PROFILE
from repro.workloads.scenario import MultiModelScenario, ScenarioConfig

ARCHITECTURE = "FFNN-48"
APPROACH = "update"

#: Op counts at ``--seconds`` = BENCHMARK.json's ``run_seconds``; the
#: ``scaled`` keys grow linearly with ``--seconds``, the rest are fixed.
FULL = {
    "paper_cycle": {"models": 1000, "cycles": 40, "model_reads": 300, "root_reads": 20},
    "dedup_replicated": {
        "models": 250, "cycles": 12, "model_reads": 100, "root_reads": 10, "keep_last": 9,
    },
    "fleet_ingest": {
        "chains": 8, "models": 500, "updates": 8000, "flush": 32,
        "model_reads": 104, "root_reads": 16,
    },
    "serving_mix": {"models": 250, "versions": 12, "requests": 700, "root_reads": 20},
}
SMOKE = {
    "paper_cycle": {"models": 40, "cycles": 6, "model_reads": 20, "root_reads": 4},
    "dedup_replicated": {
        "models": 24, "cycles": 4, "model_reads": 8, "root_reads": 4, "keep_last": 3,
    },
    "fleet_ingest": {
        "chains": 4, "models": 24, "updates": 256, "flush": 16,
        "model_reads": 16, "root_reads": 4,
    },
    "serving_mix": {"models": 24, "versions": 8, "requests": 120, "root_reads": 4},
}
SCALED_KEYS = ("cycles", "model_reads", "updates", "requests")

#: The traffic *shape* — which chain an update goes to, the request mix,
#: the popularity rank of each request — is part of a workload's
#: definition and the same for every ``--seed``, so op counts, flush
#: boundaries and the hit/miss sequence are comparable across seeds.
#: The seed drives the *data*: parameters, which models change, which
#: model a request names.
SHAPE_SEED = 20230328


def scenario(models: int, seed: int) -> MultiModelScenario:
    return MultiModelScenario(
        ScenarioConfig(
            num_models=models,
            architecture=ARCHITECTURE,
            full_update_fraction=0.05,
            partial_update_fraction=0.05,
            seed=seed,
            train_updates=False,
        )
    )


def next_generation(source: MultiModelScenario, base, cycle: int):
    """One U3 step; unchanged models share the base's arrays, so the
    oracle of a long chain costs memory only for what changed."""
    derived, info = source.update_cycle(base, cycle)
    changed = {update.model_index for update in info.updates}
    for index in range(len(derived)):
        if index not in changed:
            derived.states[index] = base.states[index]
    return derived, sorted(changed)


#: Read-only phases are dealt over this many turns (see CycleWorkload).
READ_ROUNDS = 3


def share(count: int, turn: int) -> int:
    """The part of ``count`` samples that falls to read turn ``turn``."""
    return count // READ_ROUNDS + (turn < count % READ_ROUNDS)


def diff_matches(changed: "list[int]"):
    return lambda diff: sorted(diff.changed_models) == changed


class CycleWorkload:
    """``paper_cycle`` and ``dedup_replicated``: save every cycle, recover rarely.

    U1 (in set-up), then ``cycles`` U3 saves; reopen; cold ``recover_set``
    of every second generation; ``recover_model`` on the newest set (full
    chain depth) and on the root set; ``Registry.diff`` of consecutive
    generations — the reads dealt over ``READ_ROUNDS`` turns, so a burst
    of host noise cannot cover every sample of one kind.  With
    ``keep_last`` set, one maintenance pass then
    collects all but the newest sets and the survivors are re-checked.
    """

    def __init__(self, sizes: dict, seed: int, config: ArchiveConfig) -> None:
        self.sizes = sizes
        self.seed = seed
        self.config = config

    def setup(self, directory: Path) -> None:
        self.directory = directory
        self.source = scenario(self.sizes["models"], self.seed)
        self.sets = [self.source.initial_set()]
        self.manager = MultiModelManager.open(str(directory), APPROACH, self.config)
        self.ids = [self.manager.save_set(self.sets[0])]

    def teardown(self) -> None:
        self.manager = None

    def recover_newest(self):
        return self.manager.recover_set(self.ids[-1])

    def run(self, rec: Recorder) -> dict:
        sizes, models = self.sizes, self.sizes["models"]
        manager = self.manager
        rec.watch([manager.context])
        changed_by_cycle = []
        for cycle in range(1, sizes["cycles"] + 1):
            derived, changed = next_generation(self.source, self.sets[-1], cycle)
            set_id = rec.timed(
                "save", manager.save_set, derived, base_set_id=self.ids[-1], units=models
            )
            self.sets.append(derived)
            self.ids.append(set_id)
            changed_by_cycle.append(changed)
        user_bytes = sum(model_set.parameter_bytes for model_set in self.sets)

        manager = self.manager = MultiModelManager.open(
            str(self.directory), APPROACH, self.config
        )
        rec.watch([manager.context])
        rng = np.random.default_rng([self.seed, 1])
        registry = manager.context.registry
        newest = len(self.ids) - 1
        for turn in range(READ_ROUNDS):
            for generation in range(2 * turn, len(self.ids), 2 * READ_ROUNDS):
                rec.timed(
                    "recover_set", manager.recover_set, self.ids[generation],
                    units=models, check=self.sets[generation].equals,
                )
            for kind, generation, count in (
                ("recover_model", newest, sizes["model_reads"]),
                ("recover_model_root", 0, sizes["root_reads"]),
            ):
                oracle = self.sets[generation]
                for index in rng.integers(models, size=share(count, turn)):
                    rec.timed(
                        kind, manager.recover_model, self.ids[generation], int(index),
                        check=lambda state: states_equal(state, oracle.state(int(index))),
                    )
            for cycle in range(turn, len(changed_by_cycle), READ_ROUNDS):
                rec.timed(
                    "diff", registry.diff, self.ids[cycle], self.ids[cycle + 1],
                    check=diff_matches(changed_by_cycle[cycle]),
                )

        facts = {
            "user_bytes": user_bytes,
            "setup_user_bytes": self.sets[0].parameter_bytes,
        }
        if "keep_last" in sizes:
            scheduler = MaintenanceScheduler.for_manager(
                manager, MaintenanceConfig(enabled=True, gc_keep_last=sizes["keep_last"])
            )
            expected = self.ids[-sizes["keep_last"]:]
            report = rec.timed(
                "maintenance", scheduler.run_pass,
                check=lambda _report: manager.list_sets() == expected,
            )
            shard = report.shards[0]
            facts["maintenance"] = {
                "sets_collected": shard.sets_deleted,
                "chunks_swept": shard.chunks_swept,
                "bytes_reclaimed": shard.bytes_reclaimed,
            }
            for set_id in expected:
                rec.timed(
                    "recover_survivor", manager.recover_set, set_id, units=models,
                    check=self.sets[self.ids.index(set_id)].equals,
                )
        facts["stored_bytes"] = manager.total_stored_bytes()
        facts["replication"] = replication_facts(manager.context)
        return facts


class FleetIngestWorkload:
    """``fleet_ingest``: per-model updates coalesced into set saves on a fleet.

    ``chains`` initial sets on a two-shard plain fleet (set-up); then
    ``updates`` ``IngestQueue.submit`` calls (uniform chain, uniform
    model, last two layers nudged) flushed inline every ``flush``
    updates, and ``close()``.  Every chain head is then recovered and
    compared with a serial last-writer-wins oracle; single-model reads,
    one direct derived ``save_set`` per chain and root-registry diffs
    follow, so every end-to-end metric has a fleet-routed sample.
    """

    def __init__(self, sizes: dict, seed: int) -> None:
        self.sizes = sizes
        self.seed = seed
        self.config = ArchiveConfig(profile=SERVER_PROFILE, workers=1, shards=2)

    def setup(self, directory: Path) -> None:
        sizes = self.sizes
        self.sources = [
            scenario(sizes["models"], self.seed * 1000 + chain)
            for chain in range(sizes["chains"])
        ]
        self.oracle = [source.initial_set() for source in self.sources]
        self.fleet = FleetManager.open(str(directory), APPROACH, self.config)
        self.roots = [self.fleet.save_set(model_set) for model_set in self.oracle]
        self.heads = list(self.roots)

    def teardown(self) -> None:
        self.fleet = None

    def recover_newest(self):
        return self.fleet.recover_set(self.heads[0])

    def _update_stream(self):
        """``(chain, model, state)`` submissions, applied to the oracle as
        they are drawn: the oracle ends as serial last-writer-wins."""
        sizes = self.sizes
        rng = np.random.default_rng([self.seed, 2])
        chains = np.random.default_rng(SHAPE_SEED).integers(
            sizes["chains"], size=sizes["updates"]
        )
        nudged = [name for name, _shape in self.oracle[0].schema.entries[-2:]]
        stream = []
        for chain in map(int, chains):
            model = int(rng.integers(sizes["models"]))
            state = OrderedDict(self.oracle[chain].state(model))
            for name in nudged:
                noise = rng.normal(0.0, 0.001, size=state[name].shape)
                state[name] = (state[name] + noise).astype(np.float32)
            self.oracle[chain].states[model] = state
            stream.append((chain, model, state))
        return stream

    def run(self, rec: Recorder) -> dict:
        sizes, models, fleet = self.sizes, self.sizes["models"], self.fleet
        roots = self.roots
        root_sets = [model_set.copy() for model_set in self.oracle]
        setup_user_bytes = sum(model_set.parameter_bytes for model_set in self.oracle)
        user_bytes = setup_user_bytes
        stream = self._update_stream()
        rec.watch([shard.context for shard in fleet.shards])
        queue = IngestQueue(fleet, flush_max_updates=sizes["flush"], workers=0)
        flushes = 0

        def flushed() -> str:
            nonlocal flushes
            before, flushes = flushes, queue.flushes
            return "flush" if flushes > before else "queued"

        for chain, model, state in stream:
            rec.timed("submit", queue.submit, roots[chain], model, state, classify=flushed)
            if rec.ops[-1].kind == "submit:flush":
                rec.ops[-1].units = queue.flush_log[-1]["updates"]
        rec.timed("close", queue.close)
        user_bytes += queue.flushes * self.oracle[0].parameter_bytes

        chain_sets: list[list[str]] = [[root] for root in roots]
        chain_of = {root: chain for chain, root in enumerate(roots)}
        for entry in queue.flush_log:
            chain_sets[chain_of[entry["root"]]].append(entry["set_id"])
        self.heads = [sets[-1] for sets in chain_sets]
        rng = np.random.default_rng([self.seed, 3])
        registry = fleet.registry
        for turn in range(READ_ROUNDS):
            for chain, head in enumerate(self.heads):
                rec.timed(
                    "recover_set", fleet.recover_set, head,
                    units=models, check=self.oracle[chain].equals,
                )
            for kind, targets, expected, count in (
                ("recover_model", self.heads, self.oracle, sizes["model_reads"]),
                ("recover_model_root", roots, root_sets, sizes["root_reads"]),
            ):
                draws = rng.integers(models, size=share(count, turn))
                for ordinal, index in enumerate(draws):
                    chain = ordinal % len(roots)
                    rec.timed(
                        kind, fleet.recover_model, targets[chain], int(index),
                        check=lambda state: states_equal(
                            state, expected[chain].state(int(index))
                        ),
                    )
            for sets in chain_sets:
                if len(sets) >= turn + 2:
                    rec.timed("diff", registry.diff, sets[-turn - 2], sets[-turn - 1])
        for cycle in (1, 2):
            for chain, head in enumerate(self.heads):
                derived, changed = next_generation(
                    self.sources[chain], self.oracle[chain], cycle
                )
                set_id = rec.timed(
                    "save", fleet.save_set, derived, base_set_id=head, units=models
                )
                user_bytes += derived.parameter_bytes
                rec.timed("diff", registry.diff, head, set_id, check=diff_matches(changed))
                self.oracle[chain], self.heads[chain] = derived, set_id
        return {
            "user_bytes": user_bytes,
            "setup_user_bytes": setup_user_bytes,
            "stored_bytes": fleet.total_stored_bytes(),
            "growth_kind": "submit:flush",
            "throughput_ops": sizes["updates"],
            "throughput_groups": ("submit", "close"),
            "save_groups": ("submit", "close", "save"),
            "ingest": {
                "flushes": queue.flushes,
                "coalescing_ratio": queue.coalescing_ratio,
                "write_elision_ratio": queue.write_elision_ratio,
                "updates_shed": queue.updates_shed,
                "flush_retries": queue.flush_retries,
                "dead_lettered": queue.dead_lettered,
                "saves_refused": sum(h["refused"] for h in fleet.health.snapshot()),
            },
        }


class ServingMixWorkload:
    """``serving_mix``: reads beside writes on a working set 3× the tier-1 budget.

    ``versions`` seeded generations on a dedup archive with the serving
    cache on (set-up); then ``requests`` requests — 5 % derived
    ``save_set``, 47.5 % ``recover_set``, 47.5 % ``recover_model`` — with
    the set drawn by Zipf(1.1) over recency rank.  Hits and misses are
    classified from outside by the ``set_hits`` counter delta.
    """

    SET_CACHE_SETS = 4
    ZIPF_EXPONENT = 1.1
    DIFF_EVERY = 12

    def __init__(self, sizes: dict, seed: int) -> None:
        self.sizes = sizes
        self.seed = seed

    def setup(self, directory: Path) -> None:
        sizes = self.sizes
        self.source = scenario(sizes["models"], self.seed)
        self.sets = [self.source.initial_set()]
        config = ArchiveConfig(
            profile=SERVER_PROFILE,
            workers=1,
            dedup=True,
            serving=ServingConfig(
                enabled=True,
                set_cache_bytes=self.SET_CACHE_SETS * self.sets[0].parameter_bytes,
            ),
        )
        self.manager = MultiModelManager.open(str(directory), APPROACH, config)
        self.ids = [self.manager.save_set(self.sets[0])]
        self.changed = []
        for _version in range(1, sizes["versions"]):
            self._save_next(self.manager.save_set)

    def _save_next(self, save) -> None:
        """Generate the next generation (untimed) and ``save`` it."""
        derived, changed = next_generation(self.source, self.sets[-1], len(self.ids))
        self.ids.append(save(derived, base_set_id=self.ids[-1]))
        self.sets.append(derived)
        self.changed.append(changed)

    def teardown(self) -> None:
        self.manager = None

    def recover_newest(self):
        return self.manager.recover_set(self.ids[-1])

    def run(self, rec: Recorder) -> dict:
        sizes, models, manager = self.sizes, self.sizes["models"], self.manager
        serving = manager.context.serving
        rec.watch([manager.context])
        setup_user_bytes = sum(model_set.parameter_bytes for model_set in self.sets)
        user_bytes = setup_user_bytes
        rng = np.random.default_rng([self.seed, 4])
        shape = np.random.default_rng(SHAPE_SEED)
        requests = sizes["requests"]
        action = shape.random(requests)
        rank_draw = shape.random(requests)
        model_draw = rng.integers(models, size=requests)
        hits = serving.stats.set_hits

        def hit_or_miss() -> str:
            nonlocal hits
            before, hits = hits, serving.stats.set_hits
            return "hit" if hits > before else "miss"

        registry = manager.context.registry
        diffed = 0

        def diff_next() -> None:
            nonlocal diffed
            rec.timed(
                "diff", registry.diff, self.ids[diffed], self.ids[diffed + 1],
                check=diff_matches(self.changed[diffed]),
            )
            diffed += 1

        cdf = zipf_cdf(len(self.ids), self.ZIPF_EXPONENT)
        for request in range(requests):
            # Diffs of consecutive versions ride along, one every few
            # requests, so their samples span the whole run.
            if request % self.DIFF_EVERY == 0 and diffed < len(self.changed):
                diff_next()
            if action[request] < 0.05:
                self._save_next(
                    lambda derived, base_set_id: rec.timed(
                        "save", manager.save_set, derived,
                        base_set_id=base_set_id, units=models,
                    )
                )
                user_bytes += self.sets[-1].parameter_bytes
                cdf = zipf_cdf(len(self.ids), self.ZIPF_EXPONENT)
                continue
            rank = int(np.searchsorted(cdf, rank_draw[request]))
            generation = len(self.ids) - 1 - min(rank, len(self.ids) - 1)
            oracle = self.sets[generation]
            if action[request] < 0.525:
                rec.timed(
                    "recover_set", manager.recover_set, self.ids[generation],
                    units=models, check=oracle.equals, classify=hit_or_miss,
                )
            else:
                index = int(model_draw[request])
                rec.timed(
                    "recover_model", manager.recover_model, self.ids[generation], index,
                    check=lambda state: states_equal(state, oracle.state(index)),
                    classify=hit_or_miss,
                )
        for index in rng.choice(models, size=sizes["root_reads"], replace=False):
            rec.timed(
                "recover_model_root", manager.recover_model, self.ids[0], int(index),
                check=lambda state: states_equal(state, self.sets[0].state(int(index))),
            )
        while diffed < len(self.changed):
            diff_next()
        return {
            "user_bytes": user_bytes,
            "setup_user_bytes": setup_user_bytes,
            "stored_bytes": manager.total_stored_bytes(),
            "throughput_ops": requests,
            "throughput_groups": ("save", "recover_set", "recover_model"),
            "serving": serving.counters(),
        }


def build(name: str, sizes: dict, seed: int, program_tracing: bool = False):
    if name == "paper_cycle":
        config = ArchiveConfig(
            profile=SERVER_PROFILE,
            workers=1,
            observability=ObservabilityConfig(tracing=program_tracing),
        )
        return CycleWorkload(sizes, seed, config)
    if name == "dedup_replicated":
        config = ArchiveConfig(profile=SERVER_PROFILE, workers=1, dedup=True, replicas=3)
        return CycleWorkload(sizes, seed, config)
    if name == "fleet_ingest":
        return FleetIngestWorkload(sizes, seed)
    if name == "serving_mix":
        return ServingMixWorkload(sizes, seed)
    raise ValueError(f"unknown workload {name!r}")


def sizes_for(name: str, scale: str, seconds: float, run_seconds: int) -> dict:
    """The op counts of one run: the preset, its loop counts scaled by
    ``seconds / run_seconds`` (so a given ``--seconds`` always means the
    same counts, and counts repeat exactly run over run)."""
    sizes = dict((SMOKE if scale == "smoke" else FULL)[name])
    if scale != "smoke":
        factor = seconds / run_seconds
        for key in SCALED_KEYS:
            if key in sizes:
                sizes[key] = max(4, round(sizes[key] * factor))
    return sizes
