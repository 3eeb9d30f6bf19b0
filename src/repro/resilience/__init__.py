"""repro.resilience — reliable transport and overload protection.

The emulator's base network (:mod:`repro.emulator.net`) delivers every
message; the message-fault kinds added in :mod:`repro.faults` break that
assumption (drop/dup/delay/corrupt windows, transient disk errors).  This
package restores end-to-end reliability on top of the lossy substrate:

- :mod:`~repro.resilience.channel` — :class:`ReliableEndpoint`: sequence
  numbers, acks, deadline timeouts with seeded exponential backoff + jitter,
  receiver-side idempotent dedup, and a bounded credit window that gives
  senders simulated-time backpressure;
- :mod:`~repro.resilience.breaker` — per-link :class:`CircuitBreaker`
  (closed -> open -> half-open) and the :class:`BreakerBoard` that the
  routing layer consults to steer work away from flapping links;
- :mod:`~repro.resilience.io` — retry wrapper for transient
  :class:`~repro.emulator.disk.DiskFault` read errors;
- :mod:`~repro.resilience.transport` — ``ReliableTransport``: the one mesh
  of the three above over a platform, and the reliable implementation of the
  DSM-Sort pass's transport seam (:mod:`repro.dsmsort.transport`);
- :mod:`~repro.resilience.chaos` — the seeded chaos soak harness behind
  ``python -m repro chaos``.

See ``docs/RESILIENCE.md`` for the protocol and its invariants.
"""

from .breaker import BreakerBoard, CircuitBreaker
from .channel import ChannelStats, ReliableEndpoint, RetryPolicy
from .io import read_resilient

__all__ = [
    "BreakerBoard",
    "ChannelStats",
    "CircuitBreaker",
    "ReliableEndpoint",
    "RetryPolicy",
    "read_resilient",
]
