"""Shard health: the breaker state machine and fleet-level routing.

Covers the :class:`FleetHealthTracker` transitions in isolation, then
the fleet behaviors built on top: typed save/read refusals, stale
serving through an outage, DOWN-at-open pinning for missing/unreadable
shard directories, in-process breaker recovery after a revive, and the
health gauge / transition observability.
"""

from __future__ import annotations

import pytest

from repro.config import (
    ArchiveConfig,
    FleetHealthConfig,
    ObservabilityConfig,
    ServingConfig,
)
from repro.errors import (
    ConfigError,
    IngestError,
    ReplicaUnavailableError,
    ShardUnavailableError,
)
from repro.fleet import FleetManager, IngestQueue
from repro.fleet.health import DEGRADED, DOWN, HEALTHY, FleetHealthTracker
from repro.observability.metrics import global_registry
from repro.storage.faults import FaultInjector, inject_faults
from repro.storage.hardware import ARCHIVE_PROFILE


def health_config(**overrides) -> FleetHealthConfig:
    """Small thresholds so tests trip the breaker in a handful of ops."""
    settings = dict(
        enabled=True,
        degraded_after=1,
        down_after=2,
        probe_interval_ops=3,
        backpressure="shed",
        high_watermark=64,
        low_watermark=8,
        flush_retries=0,
        retry_base_s=0.01,
    )
    settings.update(overrides)
    return FleetHealthConfig(**settings)


def make_fleet(
    shards=1, health=None, metrics=False, tracing=False, serving=False
) -> FleetManager:
    return FleetManager.with_approach(
        "update",
        ArchiveConfig(
            shards=shards,
            health=health if health is not None else health_config(),
            observability=ObservabilityConfig(metrics=metrics, tracing=tracing),
            serving=ServingConfig(enabled=serving),
        ),
    )


def boom() -> ReplicaUnavailableError:
    return ReplicaUnavailableError("injected replica outage")


class TestTrackerStateMachine:
    def test_failure_ladder_then_success_resets(self):
        tracker = FleetHealthTracker(2, health_config(down_after=3))
        assert tracker.state(0) == HEALTHY
        tracker.record_failure(0, boom())
        assert tracker.state(0) == DEGRADED
        tracker.record_failure(0, boom())
        assert tracker.state(0) == DEGRADED  # not yet at down_after
        tracker.record_failure(0, boom())
        assert tracker.state(0) == DOWN
        assert "ReplicaUnavailableError" in tracker.reason(0)
        # The other shard is an independent failure domain.
        assert tracker.state(1) == HEALTHY
        tracker.record_success(0)
        assert tracker.state(0) == HEALTHY
        assert tracker.reason(0) == ""
        snap = tracker.snapshot()[0]
        assert snap["consecutive_failures"] == 0
        assert snap["breaker_trips"] == 1
        assert snap["transitions"] == 3  # healthy->degraded->down->healthy

    def test_success_resets_the_failure_count_not_just_state(self):
        tracker = FleetHealthTracker(1, health_config(down_after=2))
        tracker.record_failure(0, boom())
        tracker.record_success(0)
        tracker.record_failure(0, boom())
        # Without the reset this second failure would have tripped DOWN.
        assert tracker.state(0) == DEGRADED

    def test_allow_probes_every_interval_while_down(self):
        tracker = FleetHealthTracker(1, health_config(probe_interval_ops=3))
        tracker.record_failure(0, boom())
        tracker.record_failure(0, boom())
        assert tracker.is_down(0)
        decisions = [tracker.allow(0) for _ in range(6)]
        assert decisions == [False, False, True, False, False, True]
        snap = tracker.snapshot()[0]
        assert snap["probes"] == 2
        assert snap["refused"] == 6  # probes are refusals let through

    def test_failed_probe_restarts_the_window(self):
        tracker = FleetHealthTracker(1, health_config(probe_interval_ops=3))
        tracker.record_failure(0, boom())
        tracker.record_failure(0, boom())
        assert [tracker.allow(0) for _ in range(3)] == [False, False, True]
        tracker.record_failure(0, boom())  # the probe itself failed
        assert tracker.is_down(0)
        # A full interval must elapse again before the next probe.
        assert [tracker.allow(0) for _ in range(3)] == [False, False, True]

    def test_probe_success_closes_the_breaker(self):
        tracker = FleetHealthTracker(1, health_config(probe_interval_ops=1))
        tracker.record_failure(0, boom())
        tracker.record_failure(0, boom())
        assert tracker.allow(0)  # interval 1: first refusal is the probe
        tracker.record_success(0)
        assert tracker.state(0) == HEALTHY
        assert tracker.allow(0)

    def test_pinned_shard_never_probes(self):
        tracker = FleetHealthTracker(1, health_config(probe_interval_ops=2))
        tracker.pin_down(0, "shard directory missing at open")
        assert not any(tracker.allow(0) for _ in range(20))
        snap = tracker.snapshot()[0]
        assert snap["pinned"] is True
        assert snap["probes"] == 0
        assert snap["refused"] == 20
        # Only an actual success (a reopen-restored shard) unpins.
        tracker.record_success(0)
        assert tracker.state(0) == HEALTHY
        assert tracker.snapshot()[0]["pinned"] is False

    def test_gate_read_refuses_down_but_never_probes(self):
        tracker = FleetHealthTracker(1, health_config(probe_interval_ops=2))
        assert tracker.gate_read(0)
        tracker.record_failure(0, boom())
        tracker.record_failure(0, boom())
        assert not any(tracker.gate_read(0) for _ in range(10))
        assert tracker.snapshot()[0]["probes"] == 0
        # Read refusals do not advance the save-side probe window either:
        # the next allow() still needs its full interval.
        assert [tracker.allow(0) for _ in range(2)] == [False, True]

    def test_read_failures_do_not_deepen_state(self):
        tracker = FleetHealthTracker(1, health_config(down_after=2))
        tracker.record_failure(0, boom(), saving=False)
        tracker.record_failure(0, boom(), saving=False)
        assert tracker.state(0) == HEALTHY

    def test_disabled_tracker_is_inert(self):
        tracker = FleetHealthTracker(1, health_config(enabled=False))
        for _ in range(10):
            tracker.record_failure(0, boom())
        assert tracker.state(0) == HEALTHY
        assert tracker.allow(0) and tracker.gate_read(0)

    def test_transition_callback_fires_with_context(self):
        seen = []
        tracker = FleetHealthTracker(
            1,
            health_config(down_after=2),
            on_transition=lambda *args: seen.append(args),
        )
        tracker.record_failure(0, boom())
        tracker.record_failure(0, boom())
        tracker.record_success(0)
        assert [(old, new) for _, old, new, _ in seen] == [
            (HEALTHY, DEGRADED),
            (DEGRADED, DOWN),
            (DOWN, HEALTHY),
        ]
        assert seen[0][0] == 0  # shard index
        assert "ReplicaUnavailableError" in seen[1][3]


class TestConfigValidation:
    def test_bad_backpressure_policy(self):
        with pytest.raises(ConfigError, match="backpressure"):
            ArchiveConfig(health=FleetHealthConfig(backpressure="drop"))

    def test_watermark_inversion(self):
        with pytest.raises(ConfigError, match="high_watermark"):
            ArchiveConfig(
                health=FleetHealthConfig(high_watermark=4, low_watermark=9)
            )

    def test_down_before_degraded(self):
        with pytest.raises(ConfigError, match="down_after"):
            ArchiveConfig(
                health=FleetHealthConfig(degraded_after=3, down_after=2)
            )


class TestFleetGating:
    def test_down_shard_refuses_saves_with_typed_error(self, tiny_set):
        fleet = make_fleet()
        fleet.save_set(tiny_set)
        fleet.health.pin_down(0, "operator pinned")
        listed = fleet.list_sets()
        with pytest.raises(ShardUnavailableError) as refusal:
            fleet.save_set(tiny_set)
        assert refusal.value.shard == 0
        assert refusal.value.set_id is not None
        # The refused save's optimistic allocation is released: no
        # phantom id shows up in listings.
        assert fleet.list_sets() == listed

    def test_down_shard_refuses_reads_with_typed_error(self, tiny_set):
        fleet = make_fleet()
        set_id = fleet.save_set(tiny_set)
        fleet.health.pin_down(0, "operator pinned")
        with pytest.raises(ShardUnavailableError) as refusal:
            fleet.recover_set(set_id)
        assert refusal.value.shard == 0
        assert refusal.value.set_id == set_id
        with pytest.raises(ShardUnavailableError):
            fleet.recover_model(set_id, 0)

    def test_breaker_trips_on_real_failures_and_recovers_in_process(
        self, tiny_set
    ):
        fleet = make_fleet(
            health=health_config(down_after=2, probe_interval_ops=3)
        )
        base = fleet.save_set(tiny_set)
        injector = inject_faults(
            fleet.shards[0].context,
            FaultInjector(seed=3, down_at=0, down_mode="before"),
        )
        for _ in range(2):
            with pytest.raises(ReplicaUnavailableError):
                fleet.save_set(tiny_set, base_set_id=base)
        assert fleet.health.is_down(0)
        # While DOWN, refusals are typed and never reach the store.
        with pytest.raises(ShardUnavailableError):
            fleet.save_set(tiny_set, base_set_id=base)
        injector.revive()
        # The breaker closes in-process: refusals accumulate until the
        # half-open probe is let through and its save succeeds.
        saved = None
        for _ in range(10):
            try:
                saved = fleet.save_set(tiny_set, base_set_id=base)
            except ShardUnavailableError:
                continue
            break
        assert saved is not None
        assert fleet.health.state(0) == HEALTHY
        snap = fleet.health.snapshot()[0]
        assert snap["breaker_trips"] == 1
        assert snap["probes"] >= 1
        assert fleet.recover_set(saved).equals(tiny_set)

    def test_stale_serving_hit_routes_reads_around_the_outage(self, tiny_set):
        fleet = make_fleet(serving=True)
        warm = fleet.save_set(tiny_set)
        cold = fleet.save_set(tiny_set)
        fleet.recover_set(warm)  # materializes into the tier-1 cache
        fleet.health.pin_down(0, "operator pinned")
        served = fleet.recover_set(warm)
        assert served.equals(tiny_set)
        state = fleet.recover_model(warm, 1)
        for name, array in tiny_set.state(1).items():
            assert (state[name] == array).all()
        counters = fleet.serving_counters()
        assert counters["stale_hits"] >= 2
        # A set never materialized cannot be served stale: typed refusal.
        with pytest.raises(ShardUnavailableError, match="not servable"):
            fleet.recover_set(cold)

    def test_disabled_health_keeps_the_old_behavior(self, tiny_set):
        fleet = make_fleet(health=health_config(enabled=False))
        base = fleet.save_set(tiny_set)
        injector = inject_faults(
            fleet.shards[0].context,
            FaultInjector(seed=3, down_at=0, down_mode="before"),
        )
        for _ in range(4):
            with pytest.raises(ReplicaUnavailableError):
                fleet.save_set(tiny_set, base_set_id=base)
        # No breaker: the raw storage error keeps surfacing, never a
        # ShardUnavailableError, and state stays HEALTHY.
        assert fleet.health.state(0) == HEALTHY
        injector.revive()
        assert fleet.save_set(tiny_set, base_set_id=base)


class TestHealthyShardLatency:
    def test_an_outage_does_not_slow_the_other_shard(self, tiny_set):
        """Each healthy-shard flush during the outage charges at most 1.2x
        its simulated seconds in a no-fault run."""

        def run(outage):
            fleet = FleetManager.with_approach(
                "update", ArchiveConfig(shards=2, profile=ARCHIVE_PROFILE, health=health_config())
            )
            roots = [fleet.save_set(tiny_set) for _ in range(6)]
            victim = fleet.shard_of(roots[0])
            assert {fleet.shard_of(root) for root in roots} == {0, 1}
            queue = IngestQueue(fleet, flush_max_updates=len(tiny_set), workers=0)
            costs = []
            for cycle in range(6):
                if outage and cycle == 2:
                    inject_faults(
                        fleet.shards[victim].context,
                        FaultInjector(down_at=0, down_mode="before"),
                    )
                for root in roots:
                    before = fleet.shard_simulated_s()[1 - victim]
                    try:
                        for index in range(len(tiny_set)):
                            queue.submit(root, index, tiny_set.state(index))
                    except IngestError:
                        assert fleet.shard_of(root) == victim  # parked
                    if fleet.shard_of(root) != victim:
                        costs.append(fleet.shard_simulated_s()[1 - victim] - before)
            assert fleet.health.is_down(victim) == outage
            return costs

        healthy, degraded = run(outage=False), run(outage=True)
        assert len(healthy) == len(degraded) > 0 and min(healthy) > 0
        for clean, during in zip(healthy, degraded):
            assert during <= 1.2 * clean


class TestDownAtOpen:
    def _build_two_shards(self, tmp_path, tiny_set):
        fleet = FleetManager.open(
            tmp_path / "fleet", "update", ArchiveConfig(shards=2)
        )
        ids = [fleet.save_set(tiny_set) for _ in range(8)]
        by_shard = {}
        for set_id in ids:
            by_shard.setdefault(fleet.shard_of(set_id), []).append(set_id)
        assert set(by_shard) == {0, 1}, "need sets on both shards"
        return tmp_path / "fleet", by_shard

    def test_missing_shard_dir_pins_down_at_open(self, tmp_path, tiny_set):
        root, by_shard = self._build_two_shards(tmp_path, tiny_set)
        import shutil

        shutil.rmtree(root / "shard-0")
        reopened = FleetManager.open(root, "update")
        assert reopened.num_shards == 2
        assert reopened.health.is_down(0)
        snap = reopened.health.snapshot()[0]
        assert snap["pinned"] is True
        assert "missing" in snap["reason"]
        # The placeholder never recreates the directory behind the
        # operator's back, and never admits traffic (pinned: no probes).
        for set_id in by_shard[1]:
            assert reopened.recover_set(set_id).equals(tiny_set)
        for _ in range(10):
            with pytest.raises(ShardUnavailableError):
                reopened.save_set(tiny_set)
            break  # initial saves hash fresh ids; only assert when hit
        assert not (root / "shard-0").exists()
        # Sets that lived on the missing shard are gone from listings
        # (placement is rebuilt from shard contents).
        assert sorted(reopened.list_sets()) == sorted(by_shard[1])

    def test_unreadable_shard_dir_pins_down_at_open(self, tmp_path, tiny_set):
        root, by_shard = self._build_two_shards(tmp_path, tiny_set)
        import shutil

        # Replace the documents subtree with a plain file: the shard
        # open fails with a storage/OS error rather than "missing".
        shutil.rmtree(root / "shard-0" / "documents")
        (root / "shard-0" / "documents").write_text("not a directory")
        reopened = FleetManager.open(root, "update")
        assert reopened.health.is_down(0)
        snap = reopened.health.snapshot()[0]
        assert snap["pinned"] is True
        assert "unreadable" in snap["reason"]
        for set_id in by_shard[1]:
            assert reopened.recover_set(set_id).equals(tiny_set)

    def test_fresh_fleet_still_creates_all_shards(self, tmp_path, tiny_set):
        fleet = FleetManager.open(
            tmp_path / "new", "update", ArchiveConfig(shards=3)
        )
        assert [fleet.health.state(i) for i in range(3)] == [HEALTHY] * 3
        for index in range(3):
            assert (tmp_path / "new" / f"shard-{index}").is_dir()


class TestHealthObservability:
    def test_health_gauge_and_transition_counter(self, tiny_set):
        fleet = make_fleet(shards=2, metrics=True)
        fleet.save_set(tiny_set)
        values = global_registry().collect()
        assert values["fleet_shard_0_health"] == 0
        assert values["fleet_shard_1_health"] == 0
        fleet.health.pin_down(1, "operator pinned")
        values = global_registry().collect()
        assert values["fleet_shard_1_health"] == 2
        assert values["fleet_health_transitions_total"] == 1
        fleet.health.record_success(1)
        values = global_registry().collect()
        assert values["fleet_shard_1_health"] == 0
        assert values["fleet_health_transitions_total"] == 2

    def test_transition_records_a_trace_event(self, tiny_set):
        fleet = make_fleet(tracing=True)
        fleet.save_set(tiny_set)
        fleet.health.pin_down(0, "operator pinned")
        markers = [
            root
            for root in fleet.tracer.roots
            if root.name == "health-transition"
        ]
        assert markers, [root.name for root in fleet.tracer.roots]
        (event,) = markers[-1].events
        assert event["name"] == "health-transition"
        assert event["old"] == HEALTHY
        assert event["new"] == DOWN
        assert event["shard"] == 0
