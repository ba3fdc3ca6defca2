"""The shared circuit-breaker ladder (`repro.breaker.Breaker`).

Replica and shard health both run on this class (see
tests/storage/test_replication.py::TestCircuitBreaker and
tests/fleet/test_health.py for the two owners); these tests pin the
state machine itself.
"""

from repro.breaker import Breaker


def tripped(threshold=3, probe_interval=4) -> Breaker:
    breaker = Breaker(threshold, probe_interval)
    for _ in range(threshold):
        breaker.failure()
    return breaker


def test_trips_at_the_threshold_and_not_before():
    breaker = Breaker(3, 4)
    breaker.failure()
    breaker.failure()
    assert not breaker.open and breaker.allow()
    breaker.failure()
    assert breaker.open and breaker.trips == 1 and breaker.failures == 3


def test_a_success_resets_the_consecutive_count():
    breaker = Breaker(2, 4)
    breaker.failure()
    breaker.success()
    breaker.failure()
    assert not breaker.open and breaker.failures == 1


def test_open_breaker_refuses_then_probes_at_the_interval():
    breaker = tripped(probe_interval=3)
    assert [breaker.allow() for _ in range(6)] == [
        False, False, True, False, False, True,
    ]
    assert breaker.open  # letting a probe through decides nothing


def test_failed_probe_restarts_the_window_and_counts():
    breaker = tripped(threshold=3, probe_interval=3)
    assert [breaker.allow() for _ in range(3)] == [False, False, True]
    breaker.allow()  # one refusal into the next window...
    breaker.failure()  # ...when the probe reports back: it failed
    assert breaker.open and breaker.trips == 1
    # The one shared rule: a failed probe is a failure like any other.
    assert breaker.failures == 4
    assert [breaker.allow() for _ in range(3)] == [False, False, True]


def test_any_success_closes_and_zeroes():
    breaker = tripped()
    breaker.allow()
    breaker.success()
    assert (breaker.open, breaker.failures, breaker.skipped) == (False, 0, 0)
    assert breaker.allow()
    assert breaker.trips == 1  # history survives the close


def test_trip_forces_open_once():
    breaker = Breaker(3, 4)
    breaker.trip()
    breaker.trip()
    assert breaker.open and breaker.trips == 1 and breaker.failures == 0
