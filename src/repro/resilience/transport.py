"""The reliable mesh behind :mod:`repro.dsmsort.transport`'s seam.

:class:`ReliableTransport` is the one place a platform is wired for reliable
delivery: a :class:`~repro.resilience.breaker.BreakerBoard`, one
:class:`~repro.resilience.channel.ReliableEndpoint` per node (each on its own
``rel.<node>`` RNG stream, from a fresh registry so a re-run reproduces the
same jitter), and retried disk reads.  The interface is documented with the
engine that calls it (:mod:`repro.dsmsort.transport`); what this side adds is
that a message can be *in doubt*:

- a transfer whose **sender** dies unacknowledged has nobody left to resend
  it: the endpoint keeps it (``orphans``), and ``peer_lost`` hands the dead
  node's unacknowledged transfers to the caller, who owns what they carried;
- a transfer whose **receiver** is dead reaches ``undeliverable`` once per
  way it can die: from the network's dead-letter hook when a copy got to the
  dead node (the envelope is unwrapped here — nobody outside this package
  sees one), from the endpoint when it stops retrying unacknowledged.  One
  transfer can take both exits, so the callback must be idempotent.
"""

from __future__ import annotations

from ..faults.errors import UnrecoverableJobError
from ..util.rng import RngRegistry
from .breaker import BreakerBoard
from .channel import REL, ReliableEndpoint, RetryPolicy
from .io import read_resilient

__all__ = ["ReliableTransport"]

#: circuit breakers cool down for this many retry timeouts
_BREAKER_COOLDOWN_TIMEOUTS = 8


class _RetriedReads:
    """Sequential reads through the retry wrapper: a transient disk-fault
    window stalls the reader instead of crashing a prefetch process."""

    def __init__(self, sim, disk):
        self._sim, self._disk = sim, disk

    def arrive(self):
        return ()  # nothing was issued ahead of the engine's checks

    def fetch(self, nbytes):
        return read_resilient(self._sim, self._disk, nbytes)


class ReliableTransport:
    """Seq/ack/retransmit endpoints on every node, one breaker board."""

    def __init__(self, plat, policy=None, seed=0, undeliverable=lambda dst, tag, payload: None):
        policy = policy if policy is not None else RetryPolicy()
        self._plat = plat
        self._undeliverable = undeliverable
        self._board = BreakerBoard(plat.sim, cooldown=policy.timeout * _BREAKER_COOLDOWN_TIMEOUTS)
        rngs = RngRegistry(seed)
        #: per-node endpoints, keyed by node id
        self.endpoints = {
            node.node_id: ReliableEndpoint(
                plat, node, rng=rngs.get(f"rel.{node.node_id}"), policy=policy,
                board=self._board, on_undeliverable=undeliverable,
            )
            for node in [*plat.hosts, *plat.asus]
        }
        plat.network.dead_letter_hook = self._dead_letter

    def _dead_letter(self, msg) -> None:
        p = msg.payload
        if isinstance(p, tuple) and len(p) >= 4 and p[0] == REL:
            if p[1] != "data":
                return  # a lost ack is the sender's timer's business
            p = p[4]
        self._undeliverable(msg.dst, msg.tag, p)

    def recv(self, node):
        # The endpoint forwards non-envelope messages (mailbox control
        # injections) untouched, so both transports see the same messages.
        return self.endpoints[node.node_id].recv()

    def send(self, node, dst, payload, nbytes, tag):
        return self.endpoints[node.node_id].send(dst, payload, nbytes, tag=tag)

    def post(self, src, dst, payload, nbytes, tag) -> None:
        """Callback-safe; bypasses the credit window."""
        self.endpoints[src].post(dst, payload, nbytes, tag=tag)

    def wait_window(self, src, dst, load_manager, instance, n_records):
        # Block on the destination's credit window, surfacing the stall as a
        # routing signal while we wait.
        load_manager.backpressure_begin(instance, n_records)
        waited = yield from self.endpoints[src].wait_window(dst)
        load_manager.backpressure_end(instance, n_records, waited)

    def reader(self, asu, sizes):
        return _RetriedReads(self._plat.sim, asu.disk)

    def healthy(self, src, dst) -> bool:
        return self._board.healthy(src, dst)

    def peer_lost(self, nid) -> list:
        # Stop retransmitting to the corpse and release window waiters.
        for ep in self.endpoints.values():
            ep.cancel_peer(nid)
        return [(e.dst, e.tag, e.payload) for e in self.endpoints[nid].in_doubt()]

    def peer_back(self, nid) -> None:
        for ep in self.endpoints.values():
            ep.revive_peer(nid)

    def fence(self, nid, tags) -> None:
        self.endpoints[nid].fence_outbound(tags=tags)

    def sender_for(self, src, eligible):
        # An endpoint on a dead node cannot retransmit, and an expelled one
        # would retransmit into the cut that got it expelled.
        for nid in (src, *(n.node_id for n in (*self._plat.asus, *self._plat.hosts))):
            if self.endpoints[nid].node.alive and eligible(nid):
                return nid
        raise UnrecoverableJobError("no alive node left to replay from")

    def counters(self) -> dict:
        stats: dict = {}
        for ep in self.endpoints.values():
            for k, v in ep.stats.as_dict().items():
                stats[k] = stats.get(k, 0) + v
        return {"channel_stats": stats, "n_breaker_trips": self._board.n_trips()}
