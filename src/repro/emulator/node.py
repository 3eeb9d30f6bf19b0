"""Nodes of the emulated system: hosts and Active Storage Units.

Per the model in §2.2 / Figure 2: hosts have large memories and powerful
processors; ASUs combine a (slower) processor with disk storage.  Both kinds
exchange messages through the network and run functor code on their CPU.
"""

from __future__ import annotations

from typing import Optional

from ..sim import Simulator, Store
from .cpu import Cpu
from .disk import Disk
from .net import Network
from .params import SystemParams

__all__ = ["Node", "Host", "Asu"]


class Node:
    """Base node: identity, CPU, mailbox."""

    kind = "node"

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        params: SystemParams,
        index: int,
        clock_hz: float,
        mem_bytes: int,
    ):
        self.sim = sim
        self.network = network
        self.params = params
        self.index = index
        self.node_id = f"{self.kind}{index}"
        self.cpu = Cpu(sim, clock_hz, params, name=f"{self.node_id}.cpu")
        self.mem_bytes = int(mem_bytes)
        self.mailbox: Store = network.register(self.node_id)
        #: fail-stop flag — cleared by :meth:`fail`, never restored (§repro.faults)
        self.alive = True
        self._m_net_out = None
        self._m_net_in = None
        m = sim.metrics
        if m is not None:
            self._m_net_out = m.counter(
                "repro_node_net_bytes_total",
                owner=self.node_id, node=self.node_id, dir="out",
            )
            self._m_net_in = m.counter(
                "repro_node_net_bytes_total",
                owner=self.node_id, node=self.node_id, dir="in",
            )

    def fail(self) -> None:
        """Fail-stop this node: mark it dead and close CPU accounting."""
        self.alive = False
        self.cpu.halt()

    def _trace_net(self, name: str, nbytes: int) -> None:
        """Accumulate per-node traffic counters onto the ``<id>.net`` track.

        Callers test ``sim.tracer`` / ``sim.metrics`` first, so a bare run
        never enters here."""
        tracer = self.sim.tracer
        if tracer is not None and nbytes:
            tracer.count(self.sim.now, f"{self.node_id}.net", name, float(nbytes))
        if self._m_net_out is not None and nbytes:
            (self._m_net_out if name == "bytes_out" else self._m_net_in).inc(
                float(nbytes)
            )

    # -- communication helpers (charge NIC CPU overhead, §1) ---------------
    def send(self, dst: "Node | str", payload, nbytes: int, tag: str = ""):
        """Process generator: CPU-charge the copy, then transmit."""
        dst_id = dst.node_id if isinstance(dst, Node) else dst
        overhead = nbytes * self.params.cycles_per_net_byte
        if overhead:
            yield from self.cpu.execute(cycles=overhead)
        msg = yield from self.network.send(self.node_id, dst_id, payload, nbytes, tag)
        sim = self.sim
        if sim.tracer is not None or sim.metrics is not None:
            self._trace_net("bytes_out", nbytes)
        return msg

    def send_async(self, dst: "Node | str", payload, nbytes: int, tag: str = ""):
        """Process generator: charge the CPU copy, post without waiting for tx.

        Matches the paper's assumption that processors saturate before links:
        the sender pays the per-byte memory/NIC copy cost but does not stall
        for wire time.
        """
        dst_id = dst.node_id if isinstance(dst, Node) else dst
        overhead = nbytes * self.params.cycles_per_net_byte
        if overhead:
            yield from self.cpu.execute(cycles=overhead)
        sim = self.sim
        if sim.tracer is not None or sim.metrics is not None:
            self._trace_net("bytes_out", nbytes)
        return self.network.post(self.node_id, dst_id, payload, nbytes, tag)

    def recv(self):
        """Process generator: receive the next message, charging copy cost."""
        msg = yield self.mailbox.get()
        sim = self.sim
        tracer = sim.tracer
        if tracer is not None:
            deliver_at = getattr(msg, "deliver_at", None)
            if deliver_at is not None:
                # Causal edge: mailbox residence (delivery -> consumption).
                # The gap between the two instants is queue wait the
                # critical-path profiler attributes to the mailbox.
                tracer.flow(
                    deliver_at, f"mbox:{self.node_id}",
                    sim.now, f"{self.node_id}.cpu",
                    getattr(msg, "tag", "") or "recv", cat="queue",
                )
        overhead = msg.nbytes * self.params.cycles_per_net_byte
        if overhead:
            yield from self.cpu.execute(cycles=overhead)
        if sim.tracer is not None or sim.metrics is not None:
            self._trace_net("bytes_in", msg.nbytes)
        return msg

    def compute(self, cycles: Optional[float] = None, fn=None, args=(),
                label: Optional[str] = None):
        """Process generator: run an execution segment on this node's CPU."""
        # The CPU's own generator, not a frame that re-yields it.
        return self.cpu.execute(cycles=cycles, fn=fn, args=args, label=label)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.node_id}>"


class Host(Node):
    """A dedicated application host: fast CPU, large memory, no local disk."""

    kind = "host"

    def __init__(self, sim: Simulator, network: Network, params: SystemParams, index: int):
        super().__init__(
            sim, network, params, index,
            clock_hz=params.host_clock_of(index),
            mem_bytes=params.host_mem,
        )


class Asu(Node):
    """An Active Storage Unit: disk plus a processor ``c`` times slower."""

    kind = "asu"

    def __init__(self, sim: Simulator, network: Network, params: SystemParams, index: int):
        super().__init__(
            sim, network, params, index,
            clock_hz=params.asu_clock_hz,
            mem_bytes=params.asu_mem,
        )
        self.disk = Disk(sim, params.disk_rate, name=f"{self.node_id}.disk")

    def disk_read(self, nbytes: int):
        """Process generator: stream ``nbytes`` off the local disk.

        Charges the (small) per-byte buffer-staging CPU cost in addition to
        the disk transfer time.
        """
        overhead = nbytes * self.params.cycles_per_io_byte
        if overhead:
            yield from self.cpu.execute(cycles=overhead)
        n = yield from self.disk.read(nbytes)
        return n

    def disk_write(self, nbytes: int):
        """Process generator: write ``nbytes`` (write-behind semantics)."""
        overhead = nbytes * self.params.cycles_per_io_byte
        if overhead:
            yield from self.cpu.execute(cycles=overhead)
        n = yield from self.disk.write(nbytes)
        return n
