"""The emulated platform: wiring of hosts, ASUs, network, and reporting.

:class:`ActivePlatform` is what applications program against (Figure 8): it
owns the simulator, builds the node population from a
:class:`~repro.emulator.params.SystemParams`, runs process coroutines, and
produces the utilization/runtime report the paper's instrumentation layer
emits.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..sim import Process, Simulator
from ..util.canonical import canonical_json
from .net import Network
from .node import Asu, Host, Node
from .params import SystemParams

__all__ = ["ActivePlatform", "RunReport"]


class RunReport:
    """Summary of one emulated run: makespan plus per-device utilization."""

    def __init__(
        self,
        params: SystemParams,
        makespan: float,
        host_util: list[float],
        asu_cpu_util: list[float],
        asu_disk_util: list[float],
        net_bytes: int,
        n_events: int,
    ):
        self.params = params
        self.makespan = makespan
        self.host_util = host_util
        self.asu_cpu_util = asu_cpu_util
        self.asu_disk_util = asu_disk_util
        self.net_bytes = net_bytes
        self.n_events = n_events

    #: bumped on breaking changes to the report layout (validated by
    #: ``repro.bench.regress`` when comparing against committed baselines)
    SCHEMA_VERSION = 1

    def as_dict(self) -> dict:
        return {
            "schema_version": self.SCHEMA_VERSION,
            "params": self.params.as_dict(),
            "makespan": self.makespan,
            "host_util": self.host_util,
            "asu_cpu_util": self.asu_cpu_util,
            "asu_disk_util": self.asu_disk_util,
            "net_bytes": self.net_bytes,
            "n_events": self.n_events,
        }

    def to_json(self) -> str:
        """Canonical JSON form (stable key order and separators, so the
        string is byte-identical for identical runs) — the payload the bench
        harness writes as ``BENCH_*.json``."""
        return canonical_json(self.as_dict())

    def __repr__(self) -> str:
        hu = ",".join(f"{u:.2f}" for u in self.host_util)
        return f"<RunReport makespan={self.makespan:.3f}s host_util=[{hu}]>"

    def render(self) -> str:
        """Human-readable utilization report (the §5 instrumentation output)."""
        from ..util.units import fmt_bytes, fmt_time

        lines = [
            f"makespan {fmt_time(self.makespan)}   "
            f"net {fmt_bytes(self.net_bytes)}   "
            f"events {self.n_events}",
            f"{'node':>8s} {'cpu util':>9s} {'disk util':>10s}",
        ]
        for i, u in enumerate(self.host_util):
            lines.append(f"{'host' + str(i):>8s} {u:9.2f} {'-':>10s}")
        for i, (uc, ud) in enumerate(zip(self.asu_cpu_util, self.asu_disk_util)):
            lines.append(f"{'asu' + str(i):>8s} {uc:9.2f} {ud:10.2f}")
        return "\n".join(lines)


class ActivePlatform:
    """An emulated system of H hosts and D ASUs.

    Pass a :class:`repro.trace.Tracer` to record the run's observability
    stream (device spans, queue depths, link transmissions); ``None`` keeps
    every hook disabled at the cost of a single attribute check.  Pass a
    :class:`repro.metrics.MetricsRegistry` to meter the run — devices
    register their instruments at construction, and ``scrape_interval``
    (virtual seconds) attaches a zero-perturbation collector.
    """

    def __init__(self, params: SystemParams, tracer=None, metrics=None,
                 scrape_interval: Optional[float] = None):
        self.params = params
        self.sim = Simulator()
        self.sim.tracer = tracer
        # The registry must be live before nodes are built: devices grab
        # their instrument handles in their constructors.
        if metrics is not None:
            self.sim.metrics = metrics
            if scrape_interval is not None or metrics.collector is not None:
                metrics.bind_collector(self.sim, scrape_interval)
        self.metrics = metrics
        self.network = Network(
            self.sim,
            bandwidth=params.net_bandwidth,
            latency=params.net_latency,
            backplane_bandwidth=params.backplane_bandwidth,
        )
        self.hosts: list[Host] = [
            Host(self.sim, self.network, params, i) for i in range(params.n_hosts)
        ]
        self.asus: list[Asu] = [
            Asu(self.sim, self.network, params, i) for i in range(params.n_asus)
        ]
        self._procs: list[Process] = []
        #: processes registered to a node, interrupted when that node fails
        self._node_procs: dict[str, list[Process]] = {}
        #: node_ids fail-stopped via :meth:`fail_node`
        self.failed_nodes: set[str] = set()

    # -- node lookup --------------------------------------------------------
    @property
    def nodes(self) -> list[Node]:
        return [*self.hosts, *self.asus]

    def node(self, node_id: str) -> Node:
        for n in self.nodes:
            if n.node_id == node_id:
                return n
        raise KeyError(f"no node {node_id!r}")

    # -- process management ---------------------------------------------------
    def spawn(self, generator, name: str = "", node: Optional[Node] = None) -> Process:
        """Start a process coroutine on the platform.

        If ``node`` is given, the process is registered to it: a fail-stop of
        that node (:meth:`fail_node`) interrupts the process.  Spawning onto a
        node that already failed interrupts the process immediately.
        """
        p = self.sim.process(generator, name=name)
        self._procs.append(p)
        if node is not None:
            self._node_procs.setdefault(node.node_id, []).append(p)
            if not node.alive:
                p.interrupt(cause=f"{node.node_id} failed")
        return p

    def fail_node(self, node: "Node | str") -> None:
        """Fail-stop a node: kill its processes and black-hole its traffic."""
        n = self.node(node) if isinstance(node, str) else node
        if not n.alive:
            return
        n.fail()
        self.failed_nodes.add(n.node_id)
        self.network.fail_node(n.node_id)
        for p in self._node_procs.get(n.node_id, ()):
            if not p.triggered:
                p.interrupt(cause=f"{n.node_id} failed")

    def alive_hosts(self) -> list[Host]:
        return [h for h in self.hosts if h.alive]

    def alive_asus(self) -> list[Asu]:
        return [a for a in self.asus if a.alive]

    def run(
        self,
        until: Optional[float] = None,
        wait_for: Optional[Iterable[Process]] = None,
    ) -> RunReport:
        """Run the simulation and return the instrumentation report.

        With ``wait_for``, the clock stops the moment the last of those
        processes finishes — auxiliary processes (a watchdog that ticks
        forever, acks still in flight) cannot stretch the makespan — and a
        process that fails re-raises its exception here.  If they have not
        all finished by ``until``, the report is a partial one at ``until``;
        with no ``until`` that is a deadlock, and raises.  Without
        ``wait_for`` the run ends when the event queue drains (or at
        ``until``).
        """
        if wait_for is not None:
            wait_for = list(wait_for)
            self.sim.all_of(wait_for).callbacks.append(self._stop_when_done)
        self.sim.run(until=until)
        if wait_for is not None and until is None:
            pending = [p for p in wait_for if not p.triggered]
            if pending:
                raise RuntimeError(
                    f"{len(pending)} awaited process(es) never finished "
                    f"(deadlock or missing input): {pending[:3]}"
                )
        return self.report()

    def close(self) -> None:
        """Release what a finished run holds, so its owner is freed by
        reference counting rather than left to the cycle collector.

        Closes every live process generator (a perpetual worker's frame
        holds the application that spawned it) and drops what waits on it —
        it will never finish; then drops the queued events (their callbacks
        hold suspended processes and in-flight payloads), then unhooks the
        network's dead-letter callback and the tracer and metrics registry.
        Devices and counters stay readable; the clock does not move.
        """
        for p in self._procs:
            if not p.triggered:
                p._gen.close()
                p.callbacks.clear()
        self.sim.discard_queue()
        self.network.dead_letter_hook = None
        # The observers outlive the run (the caller reads them); the
        # simulator's internal cycles must not keep them alive as well.
        self.sim.tracer = None
        self.sim.metrics = self.metrics = None

    def _stop_when_done(self, done) -> None:
        if not done.ok:
            raise done.value  # a process crashed: surface its exception
        self.sim.stop()

    def report(self) -> RunReport:
        """The report at the current instant; finalizes the metrics collector
        (one final scrape), so take it once per run."""
        t = self.sim.now
        if self.metrics is not None and self.metrics.collector is not None:
            self.metrics.collector.finalize(t)
        return RunReport(
            params=self.params,
            makespan=t,
            host_util=[h.cpu.utilization(t) for h in self.hosts],
            asu_cpu_util=[a.cpu.utilization(t) for a in self.asus],
            asu_disk_util=[a.disk.utilization(t) for a in self.asus],
            net_bytes=self.network.bytes_total,
            n_events=self.sim.n_events_processed,
        )
