"""Reliable exactly-once messaging over the lossy emulated network.

The base :class:`~repro.emulator.net.Network` can lose, duplicate, delay, or
corrupt messages once fault windows are armed (see
:meth:`~repro.emulator.net.Network.set_msg_fault`).  A
:class:`ReliableEndpoint` per node restores end-to-end reliability with the
classic protocol:

- every data message carries a per-sender **sequence number** and is kept
  pending until the receiver's **ack** arrives;
- a **deadline timeout** — sized from the message's expected delivery time
  plus the retry policy's timeout — retransmits unacked messages, with
  seeded **exponential backoff + jitter** so retransmission storms decorrelate
  deterministically;
- the receiver **acks every copy** (the previous ack may have been lost) but
  delivers each ``(sender, seq)`` exactly once (**idempotent dedup**);
- **corrupted** copies (checksum mismatch) are rejected without ack, forcing
  a retransmission;
- a bounded **credit window** caps in-flight unacked messages per
  destination: ``wait_window`` blocks the sender, charging simulated time,
  which is the backpressure signal the load manager consumes
  (:meth:`repro.core.load_manager.LoadManager.backpressure_begin`).  The
  receiver's inbox is unbounded: a copy is acked on clean arrival, before
  the application consumes it.

Delivery outcomes feed the optional
:class:`~repro.resilience.breaker.BreakerBoard` (ack = success, timeout =
failure), giving the routing layer its per-link health signal.

Everything is deterministic: timers go through the simulator, jitter comes
from a seeded generator stream, and all trace/metrics emission is
``is None``-guarded.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Hashable, Optional

import numpy as np

from ..emulator.net import Message
from ..sim import Event, Store

__all__ = ["REL", "RetryPolicy", "ChannelStats", "ReliableEndpoint"]

#: marker prefix of protocol envelopes on the wire
REL = "__rel__"

#: wire size charged for an ack (header-only message)
ACK_NBYTES = 16


class RetryPolicy:
    """Retransmission and flow-control knobs for a :class:`ReliableEndpoint`.

    ``timeout`` is the grace period *after the expected delivery instant*
    before a message is presumed lost; ``backoff`` multiplies it per attempt
    up to ``max_backoff``; ``jitter`` spreads each timeout by a seeded
    uniform factor in ``[1 - jitter, 1 + jitter]``.  ``max_attempts`` caps
    total transmissions (None = retry forever); ``window`` is the per-
    destination in-flight credit limit enforced by ``wait_window``.
    """

    def __init__(
        self,
        timeout: float = 0.002,
        backoff: float = 2.0,
        max_backoff: float = 0.1,
        jitter: float = 0.25,
        max_attempts: Optional[int] = None,
        window: int = 64,
    ):
        if timeout <= 0:
            raise ValueError("timeout must be positive")
        if backoff < 1:
            raise ValueError("backoff must be at least 1")
        if max_backoff < timeout:
            raise ValueError("max_backoff must be at least timeout")
        if not (0 <= jitter < 1):
            raise ValueError("jitter must be in [0, 1)")
        if max_attempts is not None and max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if window < 1:
            raise ValueError("window must be at least 1")
        self.timeout = float(timeout)
        self.backoff = float(backoff)
        self.max_backoff = float(max_backoff)
        self.jitter = float(jitter)
        self.max_attempts = max_attempts
        self.window = int(window)

    def grace(self, attempt: int, rng: Optional[np.random.Generator]) -> float:
        """Timeout grace for transmission number ``attempt`` (0-based)."""
        base = min(self.timeout * self.backoff**attempt, self.max_backoff)
        if rng is not None and self.jitter:
            base *= 1.0 + self.jitter * (2.0 * float(rng.random()) - 1.0)
        return base


class ChannelStats:
    """Per-endpoint protocol accounting."""

    __slots__ = (
        "n_data_sent", "n_retransmits", "n_gave_up", "n_acks_sent",
        "n_dup_dropped", "n_corrupt_dropped", "n_delivered", "n_passthrough",
        "payload_bytes", "retrans_bytes", "window_wait_time",
    )

    def __init__(self) -> None:
        self.n_data_sent = 0
        self.n_retransmits = 0
        self.n_gave_up = 0
        self.n_acks_sent = 0
        self.n_dup_dropped = 0
        self.n_corrupt_dropped = 0
        self.n_delivered = 0
        self.n_passthrough = 0
        self.payload_bytes = 0
        self.retrans_bytes = 0
        self.window_wait_time = 0.0

    def amplification(self) -> float:
        """Bytes on the wire over payload bytes (1.0 = no retransmissions)."""
        if self.payload_bytes == 0:
            return 1.0
        return (self.payload_bytes + self.retrans_bytes) / self.payload_bytes

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class _Pending:
    """One unacked outbound message."""

    __slots__ = ("seq", "dst", "payload", "nbytes", "tag", "attempt", "acked",
                 "cancelled", "deadline_t")

    def __init__(self, seq: int, dst: Hashable, payload: Any, nbytes: int, tag: str):
        self.seq = seq
        self.dst = dst
        self.payload = payload
        self.nbytes = nbytes
        self.tag = tag
        self.attempt = 0
        self.acked = False
        self.cancelled = False
        #: instant the current attempt's retransmit timer was armed at
        #: (expected delivery); the grace between it and the actual
        #: retransmission is traced as breaker backoff
        self.deadline_t = 0.0


class ReliableEndpoint:
    """Reliable send/receive for one node; see the module docstring.

    The endpoint spawns its own receive loop (registered to ``node``, so a
    node crash interrupts it) that consumes the raw mailbox: protocol
    envelopes are acked/deduped and their payloads land in :attr:`inbox` as
    plain reconstructed messages; non-protocol messages pass through
    untouched, so direct ``mailbox.put`` control paths keep working.
    Applications must read via :meth:`recv` (not ``node.recv``).

    A transfer the endpoint stops retrying is never dropped silently:
    ``on_undeliverable(dst, tag, payload)`` hears of one given up on while
    this node lives (peer declared dead, attempts exhausted); one abandoned
    because *this node* died — nobody is left to resend it — is kept in
    :attr:`orphans` for whoever takes over the node's work (:meth:`in_doubt`).
    """

    def __init__(
        self,
        plat,
        node,
        rng: Optional[np.random.Generator] = None,
        policy: Optional[RetryPolicy] = None,
        board=None,
        on_undeliverable=lambda dst, tag, payload: None,
    ):
        self.plat = plat
        self.sim = plat.sim
        self.node = node
        self.policy = policy if policy is not None else RetryPolicy()
        self.rng = rng
        self.board = board
        self.on_undeliverable = on_undeliverable
        #: transfers abandoned unacknowledged because this node died
        self.orphans: list[_Pending] = []
        #: delivered (deduped) messages, awaiting application recv
        self.inbox = Store(self.sim, name=f"rel:{node.node_id}")
        self.stats = ChannelStats()
        self._seq = 0
        self._pending: dict[int, _Pending] = {}
        self._inflight: dict[Hashable, int] = defaultdict(int)
        self._waiters: dict[Hashable, list[Event]] = defaultdict(list)
        self._dead_peers: set[Hashable] = set()
        self._seen: set[tuple[Hashable, int]] = set()
        self._proc = plat.spawn(
            self._receiver(), name=f"rel.{node.node_id}", node=node
        )

    # -- sending ---------------------------------------------------------------
    @staticmethod
    def _node_id(dst) -> Hashable:
        return dst.node_id if hasattr(dst, "node_id") else dst

    def post(self, dst, payload: Any, nbytes: int, tag: str = "") -> _Pending:
        """Non-blocking reliable send; safe to call from callbacks.

        Bypasses the credit window (use :meth:`wait_window` first when flow
        control matters — recovery paths deliberately skip it).
        """
        dst_id = self._node_id(dst)
        e = _Pending(self._seq, dst_id, payload, int(nbytes), tag)
        self._seq += 1
        self._pending[e.seq] = e
        self._inflight[dst_id] += 1
        self.stats.n_data_sent += 1
        self.stats.payload_bytes += e.nbytes
        self._transmit(e, first=True)
        return e

    def send(self, dst, payload: Any, nbytes: int, tag: str = ""):
        """Process generator: window wait + CPU copy charge + reliable post."""
        dst_id = self._node_id(dst)
        yield from self.wait_window(dst_id)
        cycles = nbytes * self.node.params.cycles_per_net_byte
        if cycles:
            yield from self.node.cpu.execute(cycles=cycles)
        return self.post(dst_id, payload, nbytes, tag)

    def _transmit(self, e: _Pending, first: bool) -> None:
        msg = self.plat.network.post(
            self.node.node_id, e.dst,
            (REL, "data", self.node.node_id, e.seq, e.payload),
            e.nbytes, tag=e.tag,
        )
        if not first:
            self.stats.n_retransmits += 1
            self.stats.retrans_bytes += e.nbytes
            self._note("retransmit", e)
        # Adaptive deadline: wait for the known delivery instant (far in the
        # future when the link is backed up) plus the policy grace.  A dropped
        # message has no delivery instant; retry after the bare grace.
        deliver_at = msg.deliver_at if msg.deliver_at is not None else self.sim.now
        e.deadline_t = deliver_at
        grace = self.policy.grace(e.attempt, self.rng)
        delay = max(0.0, deliver_at - self.sim.now) + grace
        self.sim.schedule(self._on_timeout, e, delay)

    def _on_timeout(self, timer: Event) -> None:
        e = timer._value
        if e.acked or e.cancelled:
            return
        tracer = self.sim.tracer
        if tracer is not None and self.sim.now > e.deadline_t:
            # The expo-backoff grace the sender sat out before acting on this
            # timeout: a first-class blame bucket on the critical path.
            tracer.span(
                e.deadline_t, self.sim.now,
                f"{self.node.node_id}.backoff", f"grace {e.tag}".strip(),
                cat="breaker-backoff",
            )
        if not self.node.alive:
            self.orphans.append(e)
            self._cancel(e)
            return
        if e.dst in self._dead_peers:
            self._give_up(e)
            return
        if self.board is not None:
            self.board.record_failure(self.node.node_id, e.dst)
        attempts = e.attempt + 1
        if self.policy.max_attempts is not None and attempts >= self.policy.max_attempts:
            self.stats.n_gave_up += 1
            self._note("gave-up", e)
            self._give_up(e)
            return
        e.attempt += 1
        self._transmit(e, first=False)

    def _on_ack(self, seq: int) -> None:
        e = self._pending.pop(seq, None)
        if e is None:
            return
        e.acked = True
        self._release(e)
        if self.board is not None:
            self.board.record_success(self.node.node_id, e.dst)

    def _give_up(self, e: _Pending) -> None:
        """Stop retrying ``e`` on a live node: its owner must hear of it."""
        self._cancel(e)
        self.on_undeliverable(e.dst, e.tag, e.payload)

    def in_doubt(self) -> list:
        """Transfers posted here and never acknowledged — delivered or not,
        nobody can tell: :attr:`orphans`, then those still awaiting an ack."""
        return [*self.orphans, *self._pending.values()]

    def _cancel(self, e: _Pending) -> None:
        if e.cancelled or e.acked:
            return
        e.cancelled = True
        self._pending.pop(e.seq, None)
        self._release(e)

    def _release(self, e: _Pending) -> None:
        self._inflight[e.dst] -= 1
        waiters = self._waiters.get(e.dst)
        if waiters:
            ready = list(waiters)
            waiters.clear()
            for ev in ready:
                if not ev.triggered:
                    ev.succeed()

    # -- flow control ----------------------------------------------------------
    def inflight(self, dst) -> int:
        return self._inflight[self._node_id(dst)]

    def wait_window(self, dst):
        """Process generator: block while ``dst``'s credit window is full.

        Returns the simulated seconds spent waiting (0.0 when the window had
        room) — the caller reports that to the load manager as backpressure.
        """
        dst_id = self._node_id(dst)
        t0 = self.sim.now
        while (
            dst_id not in self._dead_peers
            and self._inflight[dst_id] >= self.policy.window
        ):
            ev = Event(self.sim)
            self._waiters[dst_id].append(ev)
            yield ev
        waited = self.sim.now - t0
        if waited:
            self.stats.window_wait_time += waited
            tracer = self.sim.tracer
            if tracer is not None:
                # Credit-window stall: the sender was ready but the channel
                # held it back (backpressure) — traced so the critical-path
                # profiler can blame transport backoff, not the sender's CPU.
                tracer.span(
                    t0, self.sim.now,
                    f"{self.node.node_id}.backoff", f"window {dst_id}",
                    cat="breaker-backoff",
                )
        return waited

    def cancel_peer(self, peer) -> None:
        """Stop retransmitting to a peer declared dead; release its credits."""
        peer_id = self._node_id(peer)
        self._dead_peers.add(peer_id)
        for e in [p for p in self._pending.values() if p.dst == peer_id]:
            self._cancel(e)
        waiters = self._waiters.get(peer_id)
        if waiters:
            ready = list(waiters)
            waiters.clear()
            for ev in ready:
                if not ev.triggered:
                    ev.succeed()

    def revive_peer(self, peer) -> None:
        """Resume reliable delivery to a re-admitted peer (a healed cut).

        Undoes :meth:`cancel_peer`'s dead-peer mark only; transfers cancelled
        while the peer was out stay cancelled — the membership layer decides
        what (if anything) to re-send under the new epoch.
        """
        self._dead_peers.discard(self._node_id(peer))

    def fence_outbound(self, tags=None) -> list:
        """Cancel this endpoint's unacked outbound transfers; return them.

        The membership layer calls this when the owning node is *expelled*
        while still alive: a zombie's queued retransmissions must stop so a
        fenced takeover can re-ship the same data without racing it.  The
        returned :class:`_Pending` entries let the caller unwind whatever
        state markers were paired with the original posts (credit windows
        are released per entry, so fenced deliveries leak none).  ``tags``
        restricts cancellation to those message tags; the receive loop stays
        up — the node still acks/dedups inbound traffic and resumes service
        if later re-admitted.
        """
        cancelled = []
        for e in list(self._pending.values()):
            if tags is not None and e.tag not in tags:
                continue
            if not e.acked and not e.cancelled:
                cancelled.append(e)
                self._cancel(e)
        return cancelled

    # -- receiving -------------------------------------------------------------
    def _receiver(self):
        node = self.node
        network = self.plat.network
        while True:
            msg = yield from node.recv()
            p = msg.payload
            if not (isinstance(p, tuple) and len(p) >= 4 and p[0] == REL):
                self.stats.n_passthrough += 1
                self.inbox.put(msg)
                continue
            if p[1] == "ack":
                if msg.corrupted:
                    self.stats.n_corrupt_dropped += 1
                    continue
                self._on_ack(p[3])
                continue
            src, seq = p[2], p[3]
            if msg.corrupted:
                # Checksum mismatch: reject without ack; the sender's timer
                # will retransmit a clean copy.
                self.stats.n_corrupt_dropped += 1
                self._note_recv("corrupt", msg)
                continue
            # Ack every clean copy — the previous ack may have been lost.
            self.stats.n_acks_sent += 1
            network.post(
                node.node_id, src, (REL, "ack", node.node_id, seq),
                ACK_NBYTES, tag="rel-ack",
            )
            key = (src, seq)
            if key in self._seen:
                self.stats.n_dup_dropped += 1
                self._note_recv("dup", msg)
                continue
            self._seen.add(key)
            self.stats.n_delivered += 1
            self.inbox.put(Message(src, node.node_id, p[4], msg.nbytes, tag=msg.tag))

    def recv(self):
        """Process generator: next deduped application message."""
        msg = yield self.inbox.get()
        return msg

    # -- checkpoint/restart ----------------------------------------------------
    def dedup_snapshot(self) -> set:
        """Copy of the (src, seq) dedup set, for durable checkpointing.

        Exactly-once delivery is only as durable as this set: an endpoint
        restarted *without* it would re-deliver any retransmission of a
        message it acked before the restart.
        """
        return set(self._seen)

    def restore_dedup(self, seen) -> None:
        """Adopt a :meth:`dedup_snapshot` taken before a restart."""
        self._seen |= set(seen)

    def shutdown(self) -> None:
        """Stop this endpoint's receive loop (simulated process restart).

        Pending outbound transfers are cancelled; the mailbox and dedup set
        are left as-is so a successor endpoint on the same node can adopt
        them via :meth:`restore_dedup`.
        """
        for e in list(self._pending.values()):
            self._cancel(e)
        if not self._proc.triggered:
            self._proc.interrupt(cause="endpoint shutdown")

    # -- observability ---------------------------------------------------------
    def _note(self, event: str, e: _Pending) -> None:
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.instant(
                self.sim.now, "resilience",
                f"{event} {e.tag}:{self.node.node_id}->{e.dst}#{e.seq}",
                cat="resilience",
            )
        m = self.sim.metrics
        if m is not None:
            m.counter("repro_rel_events_total", event=event).inc()

    def _note_recv(self, event: str, msg: Message) -> None:
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.instant(
                self.sim.now, "resilience",
                f"{event} {msg.tag}:{msg.src}->{msg.dst}", cat="resilience",
            )
        m = self.sim.metrics
        if m is not None:
            m.counter("repro_rel_events_total", event=event).inc()

    def __repr__(self) -> str:
        return (
            f"<ReliableEndpoint {self.node.node_id} "
            f"pending={len(self._pending)} delivered={self.stats.n_delivered}>"
        )
