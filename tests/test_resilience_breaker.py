"""Tests for repro.resilience.breaker: the per-link circuit-breaker protocol."""

import pytest

from repro.metrics import MetricsRegistry
from repro.resilience import BreakerBoard, CircuitBreaker
from repro.resilience.breaker import FAIL_THRESHOLD
from repro.sim import Simulator


def advance(sim, to):
    """Move the clock to ``to`` (breaker transitions are lazy on the clock)."""
    sim.schedule(lambda _ev: None, delay=to - sim.now)
    sim.run()


def trip(record_failure, *link):
    """Record the ``FAIL_THRESHOLD`` consecutive failures that trip a breaker."""
    for _ in range(FAIL_THRESHOLD):
        record_failure(*link)


class TestCircuitBreaker:
    def test_parameter_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="cooldown"):
            CircuitBreaker(sim, "l", cooldown=0.0)

    def test_trips_after_threshold_consecutive_failures(self):
        sim = Simulator()
        br = CircuitBreaker(sim, "l", cooldown=1.0)
        for _ in range(FAIL_THRESHOLD - 1):
            br.record_failure()
        assert br.state == CircuitBreaker.CLOSED and br.healthy
        br.record_failure()
        assert br.state == CircuitBreaker.OPEN and not br.healthy
        assert br.n_trips == 1

    def test_success_resets_the_failure_count(self):
        sim = Simulator()
        br = CircuitBreaker(sim, "l", cooldown=1.0)
        for _ in range(10):
            for _ in range(FAIL_THRESHOLD - 1):
                br.record_failure()
            br.record_success()  # never FAIL_THRESHOLD in a row
        assert br.state == CircuitBreaker.CLOSED and br.n_trips == 0

    def test_half_open_after_cooldown_then_success_closes(self):
        sim = Simulator()
        br = CircuitBreaker(sim, "l", cooldown=0.5)
        trip(br.record_failure)
        assert not br.healthy
        advance(sim, 0.25)
        assert br.state == CircuitBreaker.OPEN  # cooldown not elapsed
        advance(sim, 0.75)
        assert br.state == CircuitBreaker.HALF_OPEN
        assert br.healthy  # half-open links are probe-able, not quarantined
        br.record_success()
        assert br.state == CircuitBreaker.CLOSED

    def test_failure_in_half_open_re_trips(self):
        sim = Simulator()
        br = CircuitBreaker(sim, "l", cooldown=0.5)
        trip(br.record_failure)
        advance(sim, 1.0)
        assert br.state == CircuitBreaker.HALF_OPEN
        br.record_failure()
        assert br.state == CircuitBreaker.OPEN and br.n_trips == 2
        # The re-trip restarts the cooldown from now.
        advance(sim, 1.25)
        assert br.state == CircuitBreaker.OPEN
        advance(sim, 1.75)
        assert br.state == CircuitBreaker.HALF_OPEN

    def test_half_open_same_instant_race_failure_wins(self):
        """Regression: a success and a failure resolving at the same virtual
        instant as the half-open probe must re-trip, not leave the breaker
        closed with the failure absorbed as 1 of ``FAIL_THRESHOLD`` fresh
        failures.  Both outcomes were in flight together, so the link is
        still suspect."""
        sim = Simulator()
        br = CircuitBreaker(sim, "l", cooldown=0.5)
        trip(br.record_failure)
        assert br.state == CircuitBreaker.OPEN
        advance(sim, 1.0)
        assert br.state == CircuitBreaker.HALF_OPEN
        br.record_success()  # probe ack closes the breaker...
        assert br.state == CircuitBreaker.CLOSED
        br.record_failure()  # ...but its twin times out at the same instant
        assert br.state == CircuitBreaker.OPEN and br.n_trips == 2

    def test_failure_after_half_open_close_at_later_instant_is_fresh(self):
        """The race rule applies only at the exact closing instant: a later
        failure starts a fresh FAIL_THRESHOLD window as usual."""
        sim = Simulator()
        br = CircuitBreaker(sim, "l", cooldown=0.5)
        trip(br.record_failure)
        advance(sim, 1.0)
        br.record_success()  # half-open -> closed at t=1.0
        advance(sim, 1.5)
        br.record_failure()  # one of FAIL_THRESHOLD; not the same instant
        assert br.state == CircuitBreaker.CLOSED and br.n_trips == 1

    def test_transition_history(self):
        sim = Simulator()
        br = CircuitBreaker(sim, "l", cooldown=0.5)
        trip(br.record_failure)
        advance(sim, 1.0)
        br.state  # observe: lazily records the half-open transition
        br.record_success()
        assert [name for _t, name in br.transitions] == [
            "open", "half-open", "closed"
        ]

    def test_state_gauge_reports_raw_state(self):
        sim = Simulator()
        sim.metrics = MetricsRegistry()
        br = CircuitBreaker(sim, "host0<->asu1", cooldown=0.5)
        g = sim.metrics.get("repro_breaker_state", link="host0<->asu1")
        assert g is not None and g.sample(sim.now) == 0.0
        trip(br.record_failure)
        assert g.sample(sim.now) == 1.0
        # Scraping after the cooldown must NOT advance the lazy transition:
        # the gauge reads _state raw.
        advance(sim, 1.0)
        assert g.sample(sim.now) == 1.0
        assert br.state == CircuitBreaker.HALF_OPEN  # the property does
        assert g.sample(sim.now) == 2.0
        # Transition counters were recorded as well.
        c = sim.metrics.get("repro_breaker_transitions_total", to="open")
        assert c is not None and c.value == 1.0


class TestBreakerBoard:
    def test_lazy_creation_on_first_failure(self):
        sim = Simulator()
        board = BreakerBoard(sim, cooldown=0.5)
        assert len(board) == 0
        # Success on an unknown link allocates nothing (fault-free runs stay
        # allocation-identical to runs without a board).
        board.record_success("host0", "asu0")
        assert len(board) == 0 and board.peek("host0", "asu0") is None
        assert board.healthy("host0", "asu0")
        board.record_failure("host0", "asu0")
        assert len(board) == 1 and board.peek("host0", "asu0") is not None

    def test_key_is_unordered(self):
        sim = Simulator()
        board = BreakerBoard(sim, cooldown=0.5)
        # Failures alternate between the two spellings of one link; they
        # count toward one breaker, so FAIL_THRESHOLD of them trip it.
        for i in range(FAIL_THRESHOLD):
            board.record_failure(*(("host0", "asu3") if i % 2 else ("asu3", "host0")))
        assert len(board) == 1
        assert not board.healthy("host0", "asu3")

    def test_open_links_and_trip_count(self):
        sim = Simulator()
        board = BreakerBoard(sim, cooldown=0.5)
        trip(board.record_failure, "host1", "asu0")
        trip(board.record_failure, "host0", "asu2")
        board.record_failure("host0", "asu2")  # already open: no extra trip
        assert board.open_links() == ["asu0<->host1", "asu2<->host0"]
        assert board.n_trips() == 2
        board.get("host1", "asu0")  # get() never resets state
        assert board.n_trips() == 2

    def test_recovery_closes_via_half_open(self):
        sim = Simulator()
        board = BreakerBoard(sim, cooldown=0.25)
        trip(board.record_failure, "host0", "asu0")
        assert not board.healthy("host0", "asu0")
        advance(sim, 0.5)
        board.record_success("host0", "asu0")
        assert board.healthy("host0", "asu0")
        assert board.open_links() == []
