"""Network model: host <-> ASU links with latency and bandwidth.

Per §5, "the network model for the emulation uses only host-ASU communication,
and assumes that the processor saturates before the individual network links".
Each (node, node) pair communicates over a dedicated full-duplex link; a
message of ``s`` bytes is delivered ``latency + s/bandwidth`` after the link
accepts it, and each direction of a link serialises its messages.

Messages land in the destination node's mailbox (a :class:`~repro.sim.Store`),
so receiving is ordinary channel consumption.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Optional

import numpy as np

from ..sim import Event, Simulator, Store

__all__ = ["Link", "Network", "Message"]


def _reject_unhashable(src, dst) -> None:
    """Raise the ``TypeError`` naming the first of ``src`` / ``dst`` that is
    not a hashable node id (the slow path of :class:`Message`'s check)."""
    for role, node in (("src", src), ("dst", dst)):
        try:
            hash(node)
        except TypeError:
            raise TypeError(
                f"message {role} must be hashable (a node id), "
                f"got {type(node).__name__}"
            ) from None


class Message:
    """A network message: payload plus size accounting.

    ``corrupted`` marks a payload mangled in flight by a ``corrupt_msg`` fault
    window (detectable, like a checksum mismatch).  ``deliver_at`` is filled
    in when the message is dispatched — the instant it will reach the
    destination mailbox — so senders can size retransmission timeouts.
    """

    __slots__ = ("src", "dst", "payload", "nbytes", "tag", "corrupted", "deliver_at",
                 "inbox")

    def __init__(self, src: Hashable, dst: Hashable, payload: Any, nbytes: int, tag: str = ""):
        nbytes = int(nbytes)
        if nbytes < 0:
            raise ValueError(f"message nbytes must be nonnegative, got {nbytes}")
        try:
            hash(src)
            hash(dst)
        except TypeError:
            _reject_unhashable(src, dst)
        self.src = src
        self.dst = dst
        self.payload = payload
        self.nbytes = nbytes
        self.tag = tag
        self.corrupted = False
        self.deliver_at: Optional[float] = None
        #: override delivery target (a Store) — used by out-of-band receivers
        #: like the network-borne failure detector; None = the dst mailbox
        self.inbox = None

    def __repr__(self) -> str:
        return f"<Message {self.src}->{self.dst} {self.nbytes}B {self.tag!r}>"


class Link:
    """One direction of a point-to-point link (timeline server)."""

    __slots__ = ("sim", "bandwidth", "latency", "name", "_free_at", "bytes_sent", "n_messages")

    def __init__(self, sim: Simulator, bandwidth: float, latency: float, name: str = ""):
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if latency < 0:
            raise ValueError("latency must be nonnegative")
        self.sim = sim
        self.bandwidth = float(bandwidth)
        self.latency = float(latency)
        self.name = name
        self._free_at = 0.0
        self.bytes_sent = 0
        self.n_messages = 0

    def reserve(self, nbytes: int) -> tuple[float, float]:
        """Reserve transmission; returns (tx_done, delivery_time)."""
        start = max(self.sim.now, self._free_at)
        tx_done = start + nbytes / self.bandwidth
        self._free_at = tx_done
        self.bytes_sent += int(nbytes)
        self.n_messages += 1
        tracer = self.sim.tracer
        if tracer is not None and self.name and tx_done > start:
            tracer.span(start, tx_done, self.name, "tx", cat="link")
        return tx_done, tx_done + self.latency

    def transfer_time(self, nbytes: int) -> float:
        """Unloaded wire time for one message: transmission plus latency."""
        return nbytes / self.bandwidth + self.latency

    def transfer_time_batch(self, nbytes):
        """Vectorized :meth:`transfer_time` over a stripe of message sizes.

        Bit-identical per element to the scalar path (same divide, same
        add).  Unloaded times only — queueing behind earlier messages is the
        timeline's job (:meth:`reserve`).
        """
        return np.asarray(nbytes, dtype=np.float64) / self.bandwidth + self.latency


class Network:
    """All links plus per-node mailboxes.

    ``send`` blocks the sender for the transmission time (the wire is a shared
    resource); delivery into the destination mailbox happens one latency
    later.  Mailboxes are unbounded by default — bounded mailboxes (receiver
    backpressure) can be requested per node.
    """

    def __init__(
        self,
        sim: Simulator,
        bandwidth: float,
        latency: float,
        backplane_bandwidth: Optional[float] = None,
    ):
        self.sim = sim
        self.bandwidth = float(bandwidth)
        self.latency = float(latency)
        self._links: dict[tuple[Hashable, Hashable], Link] = {}
        self._mailboxes: dict[Hashable, Store] = {}
        #: optional aggregate capacity every message also passes through (a
        #: SAN backplane); point-to-point links stop being independent once
        #: their sum exceeds it.
        self._backplane: Optional[Link] = (
            Link(sim, backplane_bandwidth, 0.0, name="link:backplane")
            if backplane_bandwidth is not None
            else None
        )
        self.bytes_total = 0
        self.n_messages = 0
        #: fail-stopped nodes: deliveries to them are captured, not completed
        self.failed: set[Hashable] = set()
        #: messages dropped because their destination was dead at delivery
        #: time — retained so a recovery layer can replay them
        self.dead_letters: list[Message] = []
        self.n_dropped = 0
        #: called with each new dead letter (recovery replay hook)
        self.dead_letter_hook: Optional[Callable[[Message], None]] = None
        #: scheduled link downtime per unordered node pair: list of (t0, t1)
        self._downtimes: dict[frozenset, list[tuple[float, float]]] = {}
        #: message-fault windows per node pair: (t0, t1, kind, extra).  Keyed
        #: by the ordered pair, both directions sharing one list, so a
        #: dispatch looks its windows up without building a key set
        self._msg_faults: dict[tuple, list[tuple[float, float, str, float]]] = {}
        #: partition windows: mutable [t0, t1, minority_group, mode] entries
        #: (mutable so :meth:`heal_partitions` can truncate active cuts)
        self._partitions: list[list] = []
        #: messages lost to an active partition cut (not dead-lettered: the
        #: destination is alive, the route is gone)
        self.n_partition_dropped = 0
        #: messages perturbed by fault windows, by kind
        self.msg_fault_counts: dict[str, int] = {
            "drop_msg": 0, "dup_msg": 0, "delay_msg": 0, "corrupt_msg": 0,
        }
        self._m_bytes = None
        self._m_msgs = None
        self._m_dead = None
        m = sim.metrics
        if m is not None:
            self._m_bytes = m.counter("repro_net_bytes_total")
            self._m_msgs = m.counter("repro_net_messages_total")
            self._m_dead = m.counter("repro_net_dead_letters_total")

    # -- topology -----------------------------------------------------------
    def register(self, node_id: Hashable, mailbox_capacity: Optional[int] = None) -> Store:
        """Create (or return) the mailbox for a node."""
        box = self._mailboxes.get(node_id)
        if box is None:
            box = Store(self.sim, capacity=mailbox_capacity, name=f"mbox:{node_id}")
            self._mailboxes[node_id] = box
        return box

    def mailbox(self, node_id: Hashable) -> Store:
        try:
            return self._mailboxes[node_id]
        except KeyError:
            raise KeyError(f"node {node_id!r} not registered with the network") from None

    def link(self, src: Hashable, dst: Hashable) -> Link:
        """The directed link src -> dst (created on first use)."""
        key = (src, dst)
        ln = self._links.get(key)
        if ln is None:
            ln = Link(self.sim, self.bandwidth, self.latency, name=f"link:{src}->{dst}")
            self._links[key] = ln
        return ln


    def _reserve_path(self, src: Hashable, dst: Hashable, nbytes: int) -> tuple[float, float]:
        """Reserve link (and backplane) capacity; returns (tx_done, deliver_at)."""
        ln = self.link(src, dst)
        tracer = self.sim.tracer
        if tracer is not None:
            # Causal issue edge: the sender's CPU activity gates this
            # message's place in the link timeline (without it the link lane
            # is a root of the causal graph and upstream work is invisible
            # to the critical-path walk).
            tracer.flow(self.sim.now, f"{src}.cpu", self.sim.now, ln.name,
                        "tx", cat="queue")
        tx_done, deliver_at = ln.reserve(nbytes)
        if self._backplane is not None:
            bp_done, _ = self._backplane.reserve(nbytes)
            tx_done = max(tx_done, bp_done)
            deliver_at = max(deliver_at, bp_done + self.latency)
        if self._downtimes:
            deliver_at = self._defer_for_downtime(src, dst, deliver_at)
        return tx_done, deliver_at

    # -- fault support --------------------------------------------------------
    def fail_node(self, node_id: Hashable) -> None:
        """Mark a node fail-stopped: future deliveries to it are dead-lettered."""
        self.failed.add(node_id)

    def set_link_down(self, a: Hashable, b: Hashable, t0: float, t1: float) -> None:
        """Schedule a flap of the a<->b link over [t0, t1).

        The model assumes reliable transport (retransmission): a message whose
        delivery would land inside a downtime window is deferred until the
        link restores at ``t1`` instead of being lost.
        """
        if t1 <= t0:
            raise ValueError(f"empty downtime window [{t0}, {t1})")
        self._downtimes.setdefault(frozenset((a, b)), []).append((float(t0), float(t1)))

    def set_msg_fault(
        self,
        a: Hashable,
        b: Hashable,
        kind: str,
        t0: float,
        t1: float,
        extra: float = 0.0,
    ) -> None:
        """Schedule a message-fault window on the a<->b pair over [t0, t1).

        Every message *sent* between the pair while the window is active is
        perturbed: ``drop_msg`` loses it (the link reservation is still
        consumed — the bytes crossed the wire), ``dup_msg`` delivers a second
        copy, ``delay_msg`` adds ``extra`` seconds of delivery latency, and
        ``corrupt_msg`` flags the payload as corrupted.  Unlike link flaps
        these faults are *unreliable-transport* faults: surviving them needs
        the retransmission layer in :mod:`repro.resilience.channel`.
        """
        if kind not in self.msg_fault_counts:
            raise ValueError(
                f"unknown message fault kind {kind!r}; expected one of "
                f"{sorted(self.msg_fault_counts)}"
            )
        if t1 <= t0:
            raise ValueError(f"empty message-fault window [{t0}, {t1})")
        if kind == "delay_msg" and extra <= 0:
            raise ValueError("delay_msg window needs a positive extra delay")
        windows = self._msg_faults.get((a, b))
        if windows is None:
            windows = self._msg_faults[a, b] = self._msg_faults[b, a] = []
        windows.append((float(t0), float(t1), kind, float(extra)))

    def set_partition(self, group, t0: float, t1: float, mode: str = "both") -> None:
        """Cut the network between ``group`` and everyone else over [t0, t1).

        ``group`` is the minority side (node ids).  Any message whose
        (src, dst) straddles the cut in a severed direction while the window
        is active is silently lost at dispatch time — the reservation is
        spent, nothing arrives, and nothing is dead-lettered (the destination
        is alive; only the route is gone).  ``mode`` selects the severed
        direction(s) relative to the minority: ``"both"``, ``"out"``
        (minority→majority only), or ``"in"`` (majority→minority only).
        Surviving a cut therefore requires retransmission
        (:mod:`repro.resilience.channel`) outliving the window, plus the
        membership fencing described in docs/PARTITIONS.md.
        """
        if t1 <= t0:
            raise ValueError(f"empty partition window [{t0}, {t1})")
        if mode not in ("both", "out", "in"):
            raise ValueError(f"unknown partition mode {mode!r}")
        g = frozenset(group)
        if not g:
            raise ValueError("partition needs a nonempty minority group")
        self._partitions.append([float(t0), float(t1), g, mode])

    def heal_partitions(self, t: float) -> int:
        """Truncate every partition window active at ``t``; returns the count.

        Windows that already closed are untouched; windows scheduled to open
        *after* ``t`` still will (a heal repairs today's cut, it does not
        cancel tomorrow's).
        """
        healed = 0
        for w in self._partitions:
            if w[0] <= t < w[1]:
                w[1] = float(t)
                healed += 1
        return healed

    def _partition_blocks(self, src: Hashable, dst: Hashable) -> bool:
        """True if an active cut severs the src→dst direction right now."""
        now = self.sim.now
        for t0, t1, group, mode in self._partitions:
            if not (t0 <= now < t1):
                continue
            src_in = src in group
            if src_in == (dst in group):
                continue  # same side of this cut
            if mode == "both" or (mode == "out") == src_in:
                return True
        return False

    def _note_partition_drop(self, msg: Message) -> None:
        self.n_partition_dropped += 1
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.instant(
                self.sim.now, "net",
                f"partition-drop {msg.tag}:{msg.src}->{msg.dst}", cat="fault",
            )
        m = self.sim.metrics
        if m is not None:
            m.counter("repro_net_partition_dropped_total").inc()

    def _note_msg_fault(self, msg: Message, kind: str) -> None:
        self.msg_fault_counts[kind] += 1
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.instant(
                self.sim.now, "net",
                f"{kind} {msg.tag}:{msg.src}->{msg.dst}", cat="fault",
            )
        m = self.sim.metrics
        if m is not None:
            m.counter("repro_net_msg_faults_total", kind=kind).inc()

    def _dispatch(self, msg: Message, deliver_at: float) -> None:
        """Apply any active message-fault windows, then schedule delivery."""
        if self._partitions and self._partition_blocks(msg.src, msg.dst):
            self._note_partition_drop(msg)
            return  # lost to the cut: the reservation is spent, nothing arrives
        faults = self._msg_faults
        spans = faults.get((msg.src, msg.dst)) if faults else None
        if spans:
            now = self.sim.now
            duplicate = False
            for t0, t1, kind, extra in spans:
                if not (t0 <= now < t1):
                    continue
                self._note_msg_fault(msg, kind)
                if kind == "drop_msg":
                    return  # lost: the reservation is spent, nothing arrives
                if kind == "corrupt_msg":
                    msg.corrupted = True
                elif kind == "delay_msg":
                    deliver_at += extra
                elif kind == "dup_msg":
                    duplicate = True
            if duplicate:
                copy = Message(msg.src, msg.dst, msg.payload, msg.nbytes, msg.tag)
                copy.corrupted = msg.corrupted
                copy.deliver_at = deliver_at
                copy.inbox = msg.inbox
                self.sim.schedule(self._deliver, copy, deliver_at - self.sim.now)
        msg.deliver_at = deliver_at
        tracer = self.sim.tracer
        if tracer is not None:
            # Causal edge: the message leaves its link's tx span (whose end is
            # exactly the reserved tx_done ≤ deliver_at - latency) and lands in
            # the destination mailbox at the delivery instant.  The graph
            # builder matches the edge source to the link span ending at or
            # before the departure instant.
            tracer.flow(
                max(self.sim.now, deliver_at - self.latency),
                f"link:{msg.src}->{msg.dst}",
                deliver_at,
                f"mbox:{msg.dst}",
                msg.tag or "msg",
                cat="net",
            )
        self.sim.schedule(self._deliver, msg, deliver_at - self.sim.now)

    def _defer_for_downtime(self, src: Hashable, dst: Hashable, deliver_at: float) -> float:
        spans = self._downtimes.get(frozenset((src, dst)))
        if spans:
            changed = True
            while changed:
                changed = False
                for t0, t1 in spans:
                    if t0 <= deliver_at < t1:
                        deliver_at = t1
                        changed = True
        return deliver_at

    def _traffic(self, msg: Message) -> None:
        """Aggregate traffic accounting (plus the trace counters, if on)."""
        self.bytes_total += msg.nbytes
        self.n_messages += 1
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.counter(self.sim.now, "net", "bytes", float(self.bytes_total))
        if self._m_bytes is not None:
            self._m_bytes.inc(float(msg.nbytes))
            self._m_msgs.inc()

    def _deliver(self, ev: Event) -> None:
        """Complete the delivery of ``ev``'s message, or capture it if the
        destination is dead."""
        msg = ev._value
        if msg.dst in self.failed:
            self.dead_letters.append(msg)
            self.n_dropped += 1
            if self._m_dead is not None:
                self._m_dead.inc()
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.instant(
                    self.sim.now, "net",
                    f"dead-letter {msg.tag}:{msg.src}->{msg.dst}", cat="fault",
                )
            if self.dead_letter_hook is not None:
                self.dead_letter_hook(msg)
            return
        if msg.inbox is not None:
            msg.inbox.put(msg)
            return
        self._mailboxes[msg.dst].put(msg)

    # -- operations -----------------------------------------------------------
    def send(self, src: Hashable, dst: Hashable, payload: Any, nbytes: int, tag: str = ""):
        """Process generator: transmit a message; returns after tx completes.

        Delivery into ``dst``'s mailbox occurs at tx_done + latency via a
        scheduled callback, so the sender does not wait for the propagation
        delay (standard cut-through accounting).
        """
        if dst not in self._mailboxes:
            raise KeyError(f"destination {dst!r} not registered")
        msg = Message(src, dst, payload, nbytes, tag)
        tx_done, deliver_at = self._reserve_path(src, dst, nbytes)
        self._traffic(msg)
        self._dispatch(msg, deliver_at)
        if tx_done > self.sim.now:
            yield self.sim.timeout(tx_done - self.sim.now)
        return msg

    def post(self, src: Hashable, dst: Hashable, payload: Any, nbytes: int,
             tag: str = "", inbox=None) -> Message:
        """Non-blocking send: reserve the link now, deliver later.

        The sender does not wait for transmission — the paper's model assumes
        "the processor saturates before the individual network links" (§5),
        so senders are charged only their CPU copy cost (see
        :meth:`~repro.emulator.node.Node.send_async`).  Link serialisation is
        still modelled: messages posted to the same link queue behind each
        other and arrive in order.

        ``inbox`` redirects delivery into a caller-owned :class:`Store`
        instead of the destination mailbox — out-of-band traffic (heartbeats,
        probes) that must still ride the real network (and so still suffers
        partitions, flaps, and message faults) without mixing into the
        application's receive loop.
        """
        if dst not in self._mailboxes:
            raise KeyError(f"destination {dst!r} not registered")
        msg = Message(src, dst, payload, nbytes, tag)
        msg.inbox = inbox
        _tx_done, deliver_at = self._reserve_path(src, dst, nbytes)
        self._traffic(msg)
        self._dispatch(msg, deliver_at)
        return msg

    def recv(self, node_id: Hashable):
        """Process generator: receive the next message for ``node_id``."""
        msg = yield self.mailbox(node_id).get()
        return msg
