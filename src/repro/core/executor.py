"""Generic emulated executor for functor pipelines.

"Functors ... are composed to build complete programs that process data as it
moves from stored input to output" (§3.1).  :class:`PipelineJob` takes a
linear :class:`~repro.functors.graph.Dataflow` (single-output stages), a
:class:`~repro.core.placement.Placement`, and ASU-resident input data, and
executes the whole network on the emulated platform:

* every stage instance is a process on its placed node (host or ASU);
* producers route each packet to a downstream instance through the stage's
  router (free routing on ``set`` edges; ``stream`` edges are pinned to a
  single instance, preserving order);
* packets crossing nodes pay NIC copy cycles and wire time; co-located
  hand-offs are free;
* functors really transform the record batches — the sink's output is
  checked against direct evaluation in the tests.

Multi-input/multi-output functors (distribute, merge) have their own
purpose-built runtime in :mod:`repro.dsmsort`; this executor covers the
scan/map/filter/aggregate class plus the block-sort (1-in/1-out per packet).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..emulator.net import Message
from ..emulator.params import SystemParams
from ..emulator.platform import ActivePlatform
from ..functors.base import FunctorError
from ..functors.graph import Dataflow
from ..util.records import concat_records
from ..util.rng import RngRegistry
from .placement import Placement, PlacementSolver
from .routing import make_router

__all__ = ["PipelineJob", "PipelineResult"]

_EOF = object()


@dataclass
class PipelineResult:
    makespan: float
    output: np.ndarray
    host_util: list[float]
    asu_cpu_util: list[float]
    net_bytes: int
    #: records processed per stage instance: {stage: [n per instance]}
    records_per_instance: dict[str, list[int]] = field(default_factory=dict)
    #: straggler-watch decisions (``StragglerSignal``), speculation mode only
    straggler_signals: list = field(default_factory=list)


class PipelineJob:
    """Run a linear functor pipeline over ASU-resident input records."""

    def __init__(
        self,
        params: SystemParams,
        graph: Dataflow,
        placement: Placement,
        asu_data: list[np.ndarray],
        routing: str = "sr",
        seed: int = 0,
        tracer=None,
        metrics=None,
        scrape_interval=None,
        speculation=None,
        job_id=None,
    ):
        if len(asu_data) != params.n_asus:
            raise ValueError(
                f"asu_data has {len(asu_data)} entries for {params.n_asus} ASUs"
            )
        graph.validate()
        PlacementSolver(params).validate(graph, placement)
        self._check_linear(graph)
        if speculation is not None and metrics is None:
            # The registry's rate instruments ARE the straggler signal.
            from ..metrics.registry import MetricsRegistry

            metrics = MetricsRegistry()
        self.params = params
        self.graph = graph
        self.placement = placement
        self.asu_data = asu_data
        self.routing = routing
        self.rngs = RngRegistry(seed)
        self.tracer = tracer
        self.metrics = metrics
        self.scrape_interval = scrape_interval
        #: repro.recovery.speculate.SpeculationPolicy enabling the straggler
        #: watch: lagging stage instances become a routing steer-around
        #: signal, the same mechanism the DSM-Sort speculator feeds through
        #: the load manager
        self.speculation = speculation
        #: scheduler namespace: ``job=<id>`` label on this job's registry
        #: instruments so concurrent jobs can share one MetricsRegistry;
        #: None adds no label (single-job exports unchanged)
        self.job_id = job_id
        self._job_labels = {"job": job_id} if job_id is not None else {}

    @staticmethod
    def _check_linear(graph: Dataflow) -> None:
        order = graph.topological_order()
        for name in order:
            st = graph.stages[name]
            if st.functor.n_outputs != 1:
                raise FunctorError(
                    f"PipelineJob handles single-output functors; stage "
                    f"{name!r} has {st.functor.n_outputs} outputs "
                    "(use repro.dsmsort for distribute/merge networks)"
                )
            if len(graph.out_edges(name)) > 1 or len(graph.in_edges(name)) > 1:
                raise FunctorError(
                    f"stage {name!r} is not on a linear chain"
                )

    # -- wiring ---------------------------------------------------------------
    def _instance_addr(self, stage: str, idx: int) -> str:
        return f"pipe.{stage}.{idx}"

    def run(self) -> PipelineResult:
        params = self.params
        plat = ActivePlatform(
            params, tracer=self.tracer,
            metrics=self.metrics, scrape_interval=self.scrape_interval,
        )
        graph = self.graph
        order = graph.topological_order()
        rs = params.schema.record_size
        blk = params.block_records

        # Register one mailbox per stage instance.
        inst_nodes: dict[str, list] = {}
        for name in order:
            sp = self.placement.of(name)
            nodes = [
                (plat.asus if sp.node_class == "asu" else plat.hosts)[i]
                for i in sp.instances
            ]
            inst_nodes[name] = nodes
            for k in range(len(nodes)):
                plat.network.register(self._instance_addr(name, k))

        # Router per stage (chooses which downstream instance gets a packet).
        routers = {}
        for name in order:
            n_inst = len(inst_nodes[name])
            in_edges = graph.in_edges(name)
            pinned = any(e.kind == "stream" for e in in_edges)
            policy = "static" if (pinned or n_inst == 1) else self.routing
            routers[name] = make_router(
                policy, n_inst, n_buckets=1, rng=self.rngs.get(f"route.{name}")
            )

        collected: list[np.ndarray] = []
        records_per_instance = {
            name: [0] * len(inst_nodes[name]) for name in order
        }

        # Straggler watch (speculation mode): per-stage sets of instances
        # currently flagged slow.  pick_instance() steers around them — the
        # signal changes *routing*, never correctness, exactly like the load
        # manager's speculative_slow set in the DSM-Sort runtime.
        spec = self.speculation
        slow: dict[str, set[int]] = {name: set() for name in order}
        straggler_signals: list = []
        # Stages where steering is meaningful: free routing, >1 instance.
        _pinned = {
            name for name in order
            if any(e.kind == "stream" for e in graph.in_edges(name))
        }
        watchable = [
            name for name in order
            if name not in _pinned and len(inst_nodes[name]) > 1
        ]

        # The sink is a collector on host 0 (results return to the
        # application); its traffic is charged like any other hand-off.
        sink_addr = "pipe.__sink__"
        plat.network.register(sink_addr)
        sink_node = plat.hosts[0]

        def deliver_addr(src_node, payload, nbytes, addr, dst_node):
            """Hand a payload to a mailbox, charging NIC/wire unless local."""
            if dst_node is src_node:
                plat.network.mailbox(addr).put(
                    Message(src_node.node_id, addr, payload, 0)
                )
                return
            overhead = nbytes * params.cycles_per_net_byte
            if overhead:
                yield from src_node.cpu.execute(cycles=overhead)
            plat.network.post(src_node.node_id, addr, payload, nbytes)

        def deliver(src_node, payload, nbytes, dst_stage, dst_idx):
            yield from deliver_addr(
                src_node, payload, nbytes,
                self._instance_addr(dst_stage, dst_idx),
                inst_nodes[dst_stage][dst_idx],
            )

        def pick_instance(src_node, dst_stage, n_records):
            """Locality-affine choice: stay on this node when possible.

            Instances flagged by the straggler watch are steered around —
            including forfeiting locality — whenever an alternative exists.
            """
            avoid = slow[dst_stage]
            n_inst = len(inst_nodes[dst_stage])
            for k, node in enumerate(inst_nodes[dst_stage]):
                if node is src_node and (k not in avoid or n_inst == 1):
                    routers[dst_stage].on_sent(k, n_records)
                    return k
            if avoid and len(avoid) < n_inst:
                k = routers[dst_stage].pick(0, n_records, avoid=tuple(sorted(avoid)))
            else:
                k = routers[dst_stage].choose(0, n_records)
            routers[dst_stage].on_sent(k, n_records)
            return k

        def route_out(src_node, stage_name, batch):
            """Send a batch to the next stage (or ship it to the sink)."""
            outs = graph.out_edges(stage_name)
            if not outs or outs[0].dst == Dataflow.SINK:
                yield from deliver_addr(
                    src_node, batch, batch.shape[0] * rs, sink_addr, sink_node
                )
                return
            dst = outs[0].dst
            k = pick_instance(src_node, dst, batch.shape[0])
            yield from deliver(src_node, batch, batch.shape[0] * rs, dst, k)

        def send_eofs(src_node, stage_name):
            outs = graph.out_edges(stage_name)
            if not outs or outs[0].dst == Dataflow.SINK:
                yield from deliver_addr(src_node, _EOF, 16, sink_addr, sink_node)
                return
            dst = outs[0].dst
            for k in range(len(inst_nodes[dst])):
                yield from deliver(src_node, _EOF, 16, dst, k)

        # -- source: each ASU streams its share into the first stage --------
        # pick_instance gives locality affinity: when the first stage has an
        # instance on this very ASU, data is processed where it lives —
        # functors are "stacked on stored data collections to process data as
        # a side effect of I/O operations" (§3.1).
        first = order[0]

        def source(d):
            from ..emulator.readahead import ReadAhead

            asu = plat.asus[d]
            data = self.asu_data[d]
            blocks = [data[s : s + blk] for s in range(0, data.shape[0], blk)]
            ra = ReadAhead(plat, asu, [b.shape[0] * rs for b in blocks])
            for i, block in enumerate(blocks):
                yield ra.wait_next()
                staging = block.shape[0] * rs * params.cycles_per_io_byte
                if staging:
                    yield from asu.cpu.execute(cycles=staging)
                k = pick_instance(asu, first, block.shape[0])
                yield from deliver(asu, block, block.shape[0] * rs, first, k)
            yield from (send_to_first_eof(asu))

        def send_to_first_eof(asu):
            for k in range(len(inst_nodes[first])):
                yield from deliver(asu, _EOF, 16, first, k)

        # -- stage instances --------------------------------------------------
        def instance(stage_name, k):
            node = inst_nodes[stage_name][k]
            functor = graph.stages[stage_name].functor
            box = plat.network.mailbox(self._instance_addr(stage_name, k))
            in_edges = graph.in_edges(stage_name)
            upstream = in_edges[0].src if in_edges else Dataflow.SOURCE
            n_producers = (
                params.n_asus if upstream == Dataflow.SOURCE
                else len(inst_nodes[upstream])
            )
            n_eof = 0
            while n_eof < n_producers:
                msg = yield box.get()
                tracer = plat.sim.tracer
                if tracer is not None and msg.deliver_at is not None:
                    # Causal edge: batch left the instance mailbox for this
                    # stage's CPU — mailbox residence is the stage's queue wait.
                    tracer.flow(
                        msg.deliver_at,
                        f"mbox:{self._instance_addr(stage_name, k)}",
                        plat.sim.now, f"{node.node_id}.cpu",
                        stage_name, cat="queue",
                    )
                if msg.nbytes:
                    overhead = msg.nbytes * params.cycles_per_net_byte
                    yield from node.cpu.execute(cycles=overhead)
                if msg.payload is _EOF:
                    n_eof += 1
                    continue
                batch = msg.payload
                t0 = plat.sim.now
                out = yield from node.compute(
                    cycles=functor.cost_cycles(batch.shape[0], params),
                    fn=lambda b: functor.apply(b)[0],
                    args=(batch,),
                    label=stage_name,
                )
                records_per_instance[stage_name][k] += int(batch.shape[0])
                tracer = plat.sim.tracer
                if tracer is not None:
                    tracer.counter(
                        plat.sim.now,
                        self._instance_addr(stage_name, k),
                        "records",
                        float(records_per_instance[stage_name][k]),
                    )
                m = plat.sim.metrics
                if m is not None and batch.shape[0]:
                    n = int(batch.shape[0])
                    m.rate(
                        "repro_stage_records", stage=stage_name,
                        **self._job_labels,
                    ).mark(plat.sim.now, float(n))
                    if spec is not None:
                        # Per-instance series only in speculation mode, so
                        # pre-speculation registry exports are unchanged.
                        m.rate(
                            "repro_stage_records",
                            stage=stage_name, instance=str(k),
                            **self._job_labels,
                        ).mark(plat.sim.now, float(n))
                    m.histogram(
                        "repro_stage_record_latency_seconds", stage=stage_name,
                        **self._job_labels,
                    ).observe((plat.sim.now - t0) / n, n=n)
                if out.shape[0]:
                    yield from route_out(node, stage_name, out)
            yield from send_eofs(node, stage_name)

        def sink():
            """Collect results at host 0 (charging the receive copy)."""
            last = order[-1]
            n_eof = 0
            box = plat.network.mailbox(sink_addr)
            while n_eof < len(inst_nodes[last]):
                msg = yield box.get()
                tracer = plat.sim.tracer
                if tracer is not None and msg.deliver_at is not None:
                    tracer.flow(
                        msg.deliver_at, f"mbox:{sink_addr}",
                        plat.sim.now, f"{sink_node.node_id}.cpu",
                        "sink", cat="queue",
                    )
                if msg.nbytes:
                    yield from sink_node.cpu.execute(
                        cycles=msg.nbytes * params.cycles_per_net_byte,
                        label="sink",
                    )
                if msg.payload is _EOF:
                    n_eof += 1
                else:
                    collected.append(msg.payload)

        def straggler_watch():
            """Flag/clear lagging stage instances from the registry's rates."""
            from ..recovery.speculate import StragglerSignal, laggard_threshold
            from ..util.rng import derive_seed

            m = self.metrics
            rng = np.random.default_rng(derive_seed(spec.seed, "exec-speculate"))

            def avg(name, k, now):
                inst = m.get(
                    "repro_stage_records", stage=name, instance=str(k),
                    **self._job_labels,
                )
                return (float(inst.total) if inst is not None else 0.0) / now

            while True:
                yield plat.sim.timeout(spec.interval)
                now = plat.sim.now
                if now < spec.warmup:
                    continue
                for name in watchable:
                    rates = [
                        avg(name, k, now)
                        for k in range(len(inst_nodes[name]))
                    ]
                    thr = laggard_threshold(rates, rng)
                    for k, rate in enumerate(rates):
                        if rate < thr and k not in slow[name]:
                            slow[name].add(k)
                            straggler_signals.append(StragglerSignal(
                                t=now, kind="instance", index=k, rate=rate,
                                threshold=thr, action="steer",
                            ))
                        elif rate >= thr and k in slow[name]:
                            slow[name].discard(k)
                            straggler_signals.append(StragglerSignal(
                                t=now, kind="instance", index=k, rate=rate,
                                threshold=thr, action="clear",
                            ))

        procs = [plat.spawn(source(d), name=f"src{d}") for d in range(params.n_asus)]
        for name in order:
            for k in range(len(inst_nodes[name])):
                procs.append(plat.spawn(instance(name, k), name=f"{name}#{k}"))
        procs.append(plat.spawn(sink(), name="sink"))
        if spec is not None and watchable:
            # The watch ticks forever; the run stops the clock at the job's
            # own completion instant, so the tail tick cannot inflate makespan.
            plat.spawn(straggler_watch(), name="straggler-watch")
        report = plat.run(wait_for=procs)

        return PipelineResult(
            makespan=report.makespan,
            output=concat_records(collected, params.schema),
            host_util=report.host_util,
            asu_cpu_util=report.asu_cpu_util,
            net_bytes=report.net_bytes,
            records_per_instance=records_per_instance,
            straggler_signals=straggler_signals,
        )
