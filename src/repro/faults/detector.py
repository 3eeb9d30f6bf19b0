"""Heartbeat failure detection with configurable latency — and, optionally,
a network-borne mode that can tell *crashed* from *unreachable*.

Each node of the platform runs a *beater* process that stamps a liveness
table every ``interval`` virtual seconds; a single monitor process sweeps the
table on the same period and declares any node silent for longer than
``timeout`` failed.  Beaters are registered to their node
(:meth:`~repro.emulator.platform.ActivePlatform.spawn` with ``node=``), so a
fail-stop interrupts them and the heartbeats genuinely stop — detection then
follows within ``timeout + interval`` of the crash, which is the detector's
latency bound.

Two detection modes:

* ``mode="timer"`` (default) — heartbeats are pure timers: they charge no CPU
  cycles and send no network messages, so arming a detector perturbs neither
  the workload's timing nor its event ordering.  Link flaps, degraded clocks,
  and even network partitions cause *no suspicion at all* — only a fail-stop
  silences a beater.  That purity is also this mode's blind spot: it cannot
  see a partition, so it must never be trusted in a deployment where
  "detected" triggers exclusive takeover across a real network
  (docs/PARTITIONS.md).

* ``mode="network"`` — heartbeats travel as real zero-sized messages (link
  capacity is not perturbed) from each node to an *anchor* node, the first
  host, and therefore suffer partitions, drops, and flaps like any other
  traffic.  A silent node is first **suspected**, then probed *indirectly*
  through third-party relays (SWIM-style: anchor→relay→target→relay→anchor,
  four real message legs).  An indirect ack proves the target alive but
  unreachable from the anchor (**unreachable** — no takeover); ``timeout``
  of silence on every relay path **confirms** the failure and fires the
  usual callbacks.  False suspicion is possible by design here — which is
  exactly why confirmation must be fenced by membership epochs before any
  exclusive resource changes hands (:mod:`repro.membership`).

Re-admission: when a confirmed node's heartbeats resume (a healed cut), the
detector :meth:`clear`\\ s it and fires ``on_readmit`` so upper layers can
re-admit it under a fresh epoch.  A majority guard refuses to confirm more
than half the monitored fleet — an anchor sliced into a minority island must
quarantine itself, not expel the world.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..emulator.node import Node
from ..emulator.platform import ActivePlatform
from ..sim import Store

__all__ = ["FailureDetector"]

#: node states in network mode (timer mode only ever uses ALIVE/CONFIRMED)
ALIVE = "alive"
SUSPECTED = "suspected"
UNREACHABLE = "unreachable"
CONFIRMED = "confirmed"


class FailureDetector:
    """Timeout-based failure detector over a set of platform nodes."""

    def __init__(
        self,
        plat: ActivePlatform,
        interval: float = 0.05,
        timeout: float = 0.2,
        mode: str = "timer",
    ):
        if interval <= 0 or timeout <= 0:
            raise ValueError("interval and timeout must be positive")
        if timeout < interval:
            raise ValueError("timeout must be >= heartbeat interval")
        if mode not in ("timer", "network"):
            raise ValueError(f"unknown detection mode {mode!r}")
        self.plat = plat
        self.nodes: list[Node] = list(plat.nodes)
        self.interval = float(interval)
        self.timeout = float(timeout)
        self.mode = mode
        #: anchor node the heartbeats travel to (network mode)
        self.anchor: Optional[Node] = None
        if mode == "network":
            self.anchor = plat.hosts[0] if plat.hosts else self.nodes[0]
        #: node_id -> virtual time the failure was declared (confirmed)
        self.detected: dict[str, float] = {}
        #: node_id -> ALIVE / SUSPECTED / UNREACHABLE / CONFIRMED
        self.state: dict[str, str] = {n.node_id: ALIVE for n in self.nodes}
        #: called with (node, detection_time) when a failure is confirmed
        self.on_failure: list[Callable[[Node, float], None]] = []
        #: called with (node, time) when a cleared node's heartbeats resume
        self.on_readmit: list[Callable[[Node, float], None]] = []
        #: confirmations withheld by the majority guard (self-quarantine)
        self.n_quarantine_holds = 0
        self._last_beat: dict[str, float] = {}
        self._suspected_at: dict[str, float] = {}
        self._probe_round: dict[str, float] = {}
        self._indirect_ack: dict[str, float] = {}
        self._monitor = None
        self._beaters: list = []
        self._procs: list = []
        self._hb_inbox: Optional[Store] = None
        self._probe_seq = 0
        self._running = False
        self._g_suspected = None
        m = plat.sim.metrics
        if m is not None and mode == "network":
            # Registered only in network mode: timer-mode runs must keep
            # byte-identical metric exports (the bench regress gate).
            self._g_suspected = m.gauge("repro_failures_suspected")

    @property
    def latency_bound(self) -> float:
        """Worst-case detection lag after a fail-stop."""
        if self.mode == "network":
            # silence noticed at a sweep, then one full probe round must also
            # come up empty — and its expiry is observed at a sweep too, so
            # the quantization charge applies twice
            return 2 * self.timeout + 2 * self.interval
        return self.timeout + self.interval

    def start(self) -> None:
        """Spawn the beaters and the monitor.  Call once, before ``run()``.

        The detector's processes are perpetual; a driver that runs the
        simulator to queue-exhaustion must call :meth:`stop` (or
        ``sim.stop``) when the workload completes.
        """
        if self._running:
            raise RuntimeError("detector already started")
        self._running = True
        now = self.plat.sim.now
        if self.mode == "network":
            self._hb_inbox = Store(self.plat.sim, name="hb.inbox")
            sink = self.plat.spawn(self._hb_sink(), name="hb.sink", node=self.anchor)
            self._procs.append(sink)
        for node in self.nodes:
            self._last_beat[node.node_id] = now
            beater = self.plat.spawn(
                self._beater(node), name=f"hb.{node.node_id}", node=node
            )
            self._beaters.append(beater)
        self._monitor = self.plat.spawn(self._monitor_loop(), name="hb.monitor")

    def stop(self) -> None:
        """Tear down the monitor and any still-running beaters."""
        if not self._running:
            return
        self._running = False
        if self._monitor is not None and not self._monitor.triggered:
            self._monitor.interrupt(cause="detector stopped")
        # Beaters are node-registered, so a fail-stop already interrupted the
        # dead ones; interrupt whichever are still ticking (plus the heartbeat
        # sink and any in-flight probes in network mode).
        for proc in self._beaters + self._procs:
            if proc is not None and not proc.triggered:
                proc.interrupt(cause="detector stopped")

    # -- processes -------------------------------------------------------------
    def _beater(self, node: Node):
        if self.mode == "network" and node is not self.anchor:
            net = self.plat.network
            anchor_id = self.anchor.node_id
            while True:
                yield self.plat.sim.timeout(self.interval)
                # A real message: it rides the links, so cuts silence it.
                net.post(node.node_id, anchor_id, ("hb", node.node_id),
                         0, tag="hb", inbox=self._hb_inbox)
        else:
            while True:
                yield self.plat.sim.timeout(self.interval)
                self._last_beat[node.node_id] = self.plat.sim.now

    def _hb_sink(self):
        """Anchor-side consumer of heartbeat messages (network mode)."""
        while True:
            msg = yield self._hb_inbox.get()
            nid = msg.payload[1]
            now = self.plat.sim.now
            self._last_beat[nid] = now
            st = self.state.get(nid, ALIVE)
            if st in (SUSPECTED, UNREACHABLE):
                # the direct path works again — stand down before confirmation
                self.state[nid] = ALIVE
                self._refresh_suspected_gauge()
            elif st == CONFIRMED:
                node = self._node_by_id(nid)
                if node is not None and node.alive:
                    self.clear(node)
                    for cb in list(self.on_readmit):
                        cb(node, now)

    def _monitor_loop(self):
        while self._running:
            yield self.plat.sim.timeout(self.interval)
            now = self.plat.sim.now
            for node in self.nodes:
                nid = node.node_id
                if nid in self.detected:
                    continue
                if self.mode == "network" and node is not self.anchor:
                    self._sweep_network(node, now)
                elif now - self._last_beat[nid] > self.timeout:
                    self.declare_failed(node)

    def _sweep_network(self, node: Node, now: float) -> None:
        nid = node.node_id
        st = self.state.get(nid, ALIVE)
        if st == ALIVE:
            if now - self._last_beat[nid] > self.timeout:
                self._suspect(node, now)
        elif st in (SUSPECTED, UNREACHABLE):
            if self._indirect_ack.get(nid, -1.0) >= self._probe_round[nid]:
                # someone relayed proof of life: alive but cut off from the
                # anchor — no takeover, keep probing so a widening cut is
                # still caught
                if st != UNREACHABLE:
                    self.state[nid] = UNREACHABLE
                    self._note(f"unreachable {nid}")
                    self._refresh_suspected_gauge()
                self._launch_probes(node, now)
            elif now - self._probe_round[nid] > self.timeout:
                self._confirm(node)

    def _suspect(self, node: Node, now: float) -> None:
        nid = node.node_id
        self.state[nid] = SUSPECTED
        self._suspected_at[nid] = now
        self._note(f"suspect {nid}")
        self._refresh_suspected_gauge()
        self._launch_probes(node, now)

    def _launch_probes(self, node: Node, now: float) -> None:
        self._probe_round[node.node_id] = now
        relays = [
            n for n in self.nodes
            if n is not node and n is not self.anchor
            and self.state.get(n.node_id) == ALIVE and n.alive
        ]
        for relay in sorted(relays, key=lambda n: n.node_id):
            self._probe_seq += 1
            proc = self.plat.spawn(
                self._probe_via(relay, node),
                name=f"hb.probe{self._probe_seq}.{node.node_id}",
                node=self.anchor,
            )
            self._procs.append(proc)

    def _probe_via(self, relay: Node, target: Node):
        """One indirect probe: four real message legs through ``relay``.

        Any leg severed by a cut (or dead-lettered by a crash) stalls the
        probe forever — which is the point: only a *complete* round trip
        counts as proof of life.  Stalled probes hold no events, so they
        cost nothing; :meth:`stop` interrupts them.
        """
        sim = self.plat.sim
        net = self.plat.network
        anchor_id = self.anchor.node_id
        for src, dst in (
            (anchor_id, relay.node_id),    # probe request
            (relay.node_id, target.node_id),  # relayed ping
            (target.node_id, relay.node_id),  # ack (only an alive target's
            (relay.node_id, anchor_id),       # side of the cut sends this)
        ):
            leg = Store(sim)
            net.post(src, dst, ("probe", target.node_id), 0,
                     tag="probe", inbox=leg)
            yield leg.get()
        self._indirect_ack[target.node_id] = sim.now
        self._note(f"indirect-ack {target.node_id} via {relay.node_id}")

    def _confirm(self, node: Node) -> None:
        # Majority guard: if confirming would mean more than half the fleet
        # is "dead", the likelier story is that *we* are in the minority —
        # hold the confirmation and keep probing (self-quarantine).
        if (len(self.detected) + 1) * 2 > len(self.nodes):
            self.n_quarantine_holds += 1
            self._note(f"quarantine-hold {node.node_id}")
            return
        self.declare_failed(node)

    # -- declarations ----------------------------------------------------------
    def _node_by_id(self, nid: str) -> Optional[Node]:
        for n in self.nodes:
            if n.node_id == nid:
                return n
        return None

    def _note(self, what: str) -> None:
        tracer = self.plat.sim.tracer
        if tracer is not None:
            tracer.instant(self.plat.sim.now, "faults", what, cat="fault")

    def _refresh_suspected_gauge(self) -> None:
        if self._g_suspected is not None:
            self._g_suspected.set(float(sum(
                1 for s in self.state.values() if s in (SUSPECTED, UNREACHABLE)
            )))

    def declare_failed(self, node: Node) -> None:
        """Record a detection and fire the failure callbacks."""
        if node.node_id in self.detected:
            return
        self.detected[node.node_id] = self.plat.sim.now
        self.state[node.node_id] = CONFIRMED
        self._refresh_suspected_gauge()
        tracer = self.plat.sim.tracer
        if tracer is not None:
            tracer.instant(
                self.plat.sim.now, "faults", f"detect {node.node_id}", cat="fault"
            )
        m = self.plat.sim.metrics
        if m is not None:
            # Gauges owned by the dead node read NaN (absent) from now on —
            # a frozen last-known value would look like live feedback.
            m.mark_dead(node.node_id)
            m.counter("repro_failures_detected_total").inc()
        for cb in list(self.on_failure):
            cb(node, self.plat.sim.now)

    def clear(self, node: Node) -> None:
        """Forget a detection: the node is alive after all (a healed cut).

        Resets the liveness stamp and state, and un-NaNs the node's gauges
        via :meth:`~repro.metrics.registry.MetricsRegistry.mark_alive`.
        Upper layers re-admit the node under a fresh membership epoch in
        their ``on_readmit`` callbacks — clear() itself only repairs the
        detector's and registry's view.
        """
        nid = node.node_id
        self.detected.pop(nid, None)
        self.state[nid] = ALIVE
        self._last_beat[nid] = self.plat.sim.now
        self._indirect_ack.pop(nid, None)
        self._suspected_at.pop(nid, None)
        self._probe_round.pop(nid, None)
        self._refresh_suspected_gauge()
        self._note(f"clear {nid}")
        m = self.plat.sim.metrics
        if m is not None:
            m.mark_alive(nid)
            m.counter("repro_failures_cleared_total").inc()
