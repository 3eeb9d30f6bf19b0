"""Per-link circuit breakers: quarantine flapping links as a routing signal.

A :class:`CircuitBreaker` follows the classic three-state protocol:

- **closed** — traffic flows; consecutive delivery failures are counted.
- **open** — tripped after :data:`FAIL_THRESHOLD` consecutive failures.  The
  routing layer treats the link as unhealthy (``healthy`` is False) and
  steers new work elsewhere; already-queued retransmissions keep probing.
- **half-open** — entered lazily once ``cooldown`` simulated seconds have
  passed.  The next outcome decides: a success closes the breaker, a
  failure re-trips it.

Breakers never *block* traffic — the reliable channel keeps retransmitting
regardless — they only advise placement and routing.  That separation keeps
exactly-once delivery independent of breaker tuning.

State is observable through the ``repro_breaker_state`` gauge (0 closed,
1 open, 2 half-open) and ``repro_breaker_transitions_total`` counters; both
are ``is None``-guarded so unmetered runs pay nothing.
"""

from __future__ import annotations

from typing import Hashable, Optional

from ..sim import Simulator

__all__ = ["CircuitBreaker", "BreakerBoard", "FAIL_THRESHOLD"]

#: consecutive delivery failures that trip a closed breaker
FAIL_THRESHOLD = 5


class CircuitBreaker:
    """Three-state breaker for one link, driven by delivery outcomes."""

    CLOSED, OPEN, HALF_OPEN = 0, 1, 2
    _NAMES = {CLOSED: "closed", OPEN: "open", HALF_OPEN: "half-open"}

    def __init__(self, sim: Simulator, name: str, cooldown: float = 0.05):
        if cooldown <= 0:
            raise ValueError("cooldown must be positive")
        self.sim = sim
        self.name = name
        self.cooldown = float(cooldown)
        self._state = self.CLOSED
        self._fails = 0
        self._opened_at = 0.0
        # Instant of the last half-open -> closed transition: a failure
        # landing at that same instant re-trips (see record_failure).
        self._closed_at: Optional[float] = None
        #: (t, state-name) history of every transition
        self.transitions: list[tuple[float, str]] = []
        self.n_trips = 0
        m = sim.metrics
        if m is not None:
            # Raw-state read: scraping must not advance the lazy half-open
            # transition, so the gauge reports _state, not .state.
            m.gauge(
                "repro_breaker_state",
                fn=lambda t: float(self._state),
                link=name,
            )

    # -- state ----------------------------------------------------------------
    def _maybe_half_open(self) -> None:
        if self._state == self.OPEN and self.sim.now >= self._opened_at + self.cooldown:
            self._set(self.HALF_OPEN)

    @property
    def state(self) -> int:
        """Current state; lazily moves open -> half-open after the cooldown."""
        self._maybe_half_open()
        return self._state

    @property
    def state_name(self) -> str:
        return self._NAMES[self.state]

    @property
    def healthy(self) -> bool:
        """Routing signal: False while the link is quarantined (open)."""
        return self.state != self.OPEN

    # -- outcomes -------------------------------------------------------------
    def record_failure(self) -> None:
        """A delivery attempt on this link timed out."""
        self._maybe_half_open()
        if self._state == self.HALF_OPEN:
            self._trip()
        elif self._state == self.CLOSED:
            if self._closed_at is not None and self.sim.now == self._closed_at:
                # Same-instant race with the success that just closed the
                # half-open probe: both outcomes were in flight together, so
                # the link is still suspect — the failure wins and re-trips
                # rather than being absorbed as 1 of ``FAIL_THRESHOLD``
                # fresh-window failures.
                self._trip()
                return
            self._fails += 1
            if self._fails >= FAIL_THRESHOLD:
                self._trip()

    def record_success(self) -> None:
        """A delivery on this link was acknowledged."""
        self._maybe_half_open()
        self._fails = 0
        if self._state == self.HALF_OPEN:
            self._closed_at = self.sim.now
            self._set(self.CLOSED)

    def _trip(self) -> None:
        self.n_trips += 1
        self._opened_at = self.sim.now
        self._fails = 0
        self._set(self.OPEN)

    def _set(self, state: int) -> None:
        if state == self._state:
            return
        self._state = state
        name = self._NAMES[state]
        self.transitions.append((self.sim.now, name))
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.instant(
                self.sim.now, "resilience",
                f"breaker {self.name} -> {name}", cat="resilience",
            )
        m = self.sim.metrics
        if m is not None:
            m.counter("repro_breaker_transitions_total", to=name).inc()

    def __repr__(self) -> str:
        return f"<CircuitBreaker {self.name} {self._NAMES[self._state]}>"


class BreakerBoard:
    """All breakers, keyed by unordered link endpoint pair.

    Breakers are created lazily on the first *failure* — a run with no
    delivery failures allocates nothing (and, in metered runs, registers no
    extra instruments), keeping fault-free runs bit-identical.
    """

    def __init__(self, sim: Simulator, cooldown: float = 0.05):
        self.sim = sim
        self.cooldown = float(cooldown)
        self._breakers: dict[frozenset, CircuitBreaker] = {}

    def get(self, a: Hashable, b: Hashable) -> CircuitBreaker:
        """The breaker for link a<->b, created on first use."""
        key = frozenset((a, b))
        br = self._breakers.get(key)
        if br is None:
            name = "<->".join(sorted((str(a), str(b))))
            br = CircuitBreaker(self.sim, name, self.cooldown)
            self._breakers[key] = br
        return br

    def peek(self, a: Hashable, b: Hashable) -> Optional[CircuitBreaker]:
        return self._breakers.get(frozenset((a, b)))

    def record_failure(self, a: Hashable, b: Hashable) -> None:
        self.get(a, b).record_failure()

    def record_success(self, a: Hashable, b: Hashable) -> None:
        br = self._breakers.get(frozenset((a, b)))
        if br is not None:
            br.record_success()

    def healthy(self, a: Hashable, b: Hashable) -> bool:
        br = self._breakers.get(frozenset((a, b)))
        return True if br is None else br.healthy

    def open_links(self) -> list[str]:
        """Names of currently-open breakers, sorted."""
        return sorted(br.name for br in self._breakers.values() if not br.healthy)

    def n_trips(self) -> int:
        return sum(br.n_trips for br in self._breakers.values())

    def __len__(self) -> int:
        return len(self._breakers)
