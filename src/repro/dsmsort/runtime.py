"""Emulated distributed DSM-Sort (§4.3, Figures 6–7) on the active platform.

Pass 1 (run formation — what Figure 9 times):

* each ASU streams its share of the input off disk, runs the α-way
  **distribute** functor (when active), and ships bucket fragments to hosts;
* a **router** (the load-management hook) decides which host instance of the
  block-sort functor receives each fragment — static bucket ownership,
  simple randomization (SR), round-robin, or join-shortest-queue;
* hosts accumulate per-bucket buffers, cut them into β-record runs, really
  sort each run, and stripe the sorted runs back across the ASUs;
* ASUs write incoming runs to disk (write-behind) — pass 1 ends when every
  run is durable.

In the **passive baseline** ("conventional storage units with no integrated
processing", §6) the storage units charge no CPU at all: raw blocks stream to
their host, which performs the distribute as well as the sort.

Pass 2 (final merge): ASUs pre-merge their local runs per bucket with fan-in
γ1, hosts complete each bucket with γ2-way merges (γ1·γ2 = γ).

Every phase really transforms the records; :meth:`DsmSortJob.verify` checks
the final output is a sorted permutation of the input.  Timing comes from the
same per-record cost bounds the predictor uses (:mod:`repro.core.costs`).
"""

from __future__ import annotations

import weakref
from collections import defaultdict
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Optional

import numpy as np

from ..core.config import DSMConfig
from ..core.costs import RecordCosts
from ..core.load_manager import LoadManager
from ..emulator.net import Message
from ..emulator.params import SystemParams
from ..emulator.platform import ActivePlatform
from ..faults.detector import FailureDetector
from ..faults.errors import UnrecoverableJobError
from ..faults.injector import LOSSY_FAULT_KINDS, FaultPlan, Injector
from ..faults.report import FaultReport
from ..functors.blocksort import BlockSortFunctor
from ..functors.distribute import DistributeFunctor
from ..functors.merge import MergeFunctor, merge_sorted_batches
from ..metrics.registry import derive_owner
from ..sim import Event, Store
from ..util.distributions import make_workload
from ..util.records import concat_records, sort_records
from ..util.rng import RngRegistry
from ..util.validation import check_sorted_permutation
from .durability import StripedRuns
from .journal import NO_JOURNAL
from .membership import FAIL_STOP
from .transport import DirectTransport

__all__ = ["DsmSortJob", "MODE_RULES", "Pass1Result", "Pass2Result"]

_EOF = "__eof__"


def _weak(method):
    """``method`` (bound to the job) called through a weak reference.

    Every collaborator the FT pass hands a job callback to is owned by the
    job, so a strong bound method would make each finished job a reference
    cycle — its record arrays left to the cycle collector instead of freed
    by reference counting (DESIGN.md decision 7).
    """
    ref = weakref.WeakMethod(method)

    def call(*args):
        bound = ref()
        if bound is not None:
            bound(*args)

    return call


def _key_column(batches: list[np.ndarray]) -> np.ndarray:
    """The keys of ``batches`` back to back (no batches: no keys)."""
    if not batches:
        return np.empty(0, dtype=np.uint32)
    return np.concatenate([b["key"] for b in batches])


class _FragEntry:
    """Upstream-retention record for one routed bucket fragment.

    Producers retain every fragment they ship until pass 1 completes; if the
    destination host dies, the entry is replayed to a survivor.  ``done``
    marks an entry superseded by a replay, so detection-time sweeps and the
    dead-letter hook cannot both resend it.
    """

    __slots__ = ("src_d", "src_node", "block", "bucket", "piece", "done")

    def __init__(self, src_d, src_node, block, bucket, piece):
        self.src_d = src_d
        self.src_node = src_node
        self.block = block
        self.bucket = bucket
        self.piece = piece
        self.done = False


@dataclass
class Pass1Result:
    """Outcome of the run-formation pass."""

    makespan: float
    host_util: list[float]
    asu_cpu_util: list[float]
    asu_disk_util: list[float]
    n_runs: int
    net_bytes: int
    imbalance: float
    #: (time, utilization) samples per host — the Figure-10 traces
    host_util_series: list[list[tuple[float, float]]] = field(default_factory=list)
    #: set when the pass ran in fault-tolerant mode (``faults=`` given)
    fault_report: Optional["FaultReport"] = None
    #: recovery traffic counters (fault-tolerant mode)
    n_replayed_frags: int = 0
    n_reemitted_runs: int = 0
    n_takeover_blocks: int = 0
    #: False when a ``deadline`` expired before every record was durable
    #: (e.g. the chaos harness's retries-disabled negative control)
    completed: bool = True
    #: set when a ``crash_coordinator`` fault killed the job mid-pass
    coordinator_crashed: bool = False
    #: straggler-speculation counters (``speculation=`` given)
    n_hedged_shards: int = 0
    n_hedge_wasted_frags: int = 0
    #: records durable when the pass ended (== the input count if completed)
    n_durable: int = -1
    #: aggregated :class:`~repro.resilience.channel.ChannelStats` totals
    #: (reliable transport only)
    channel_stats: Optional[dict] = None
    #: circuit-breaker trips across all links (reliable transport only)
    n_breaker_trips: int = 0
    #: replication counters (``replication=`` given): runs kept durable by
    #: in-place promotion after an ASU crash, copies restored by the
    #: anti-entropy loop, fresh copies posted for fully-stranded sets, and
    #: sets still below target when the pass ended
    n_promoted_runs: int = 0
    n_repaired_copies: int = 0
    n_retargeted_copies: int = 0
    n_underreplicated: int = 0
    #: membership counters (``detection_mode="network"``): writes rejected
    #: with a stale epoch, nodes re-admitted after a heal, physical copies
    #: reconciled back (digest-verified) on re-admission, copies refused for
    #: digest divergence, confirmations withheld by the detector's majority
    #: guard, duplicate fragments dropped by the host-side global filter,
    #: and the view's final epoch (0 = no view)
    n_epoch_rejections: int = 0
    n_readmitted: int = 0
    n_reconciled_runs: int = 0
    n_divergent_copies: int = 0
    n_quarantine_holds: int = 0
    n_dup_frags_dropped: int = 0
    view_epoch: int = 0


@dataclass
class Pass2Result:
    makespan: float
    host_util: list[float]
    asu_cpu_util: list[float]
    n_partial_runs: int
    #: False when a ``deadline`` stopped the merge before every bucket
    #: completed (checkpoint/restart: the caller resumes from the manifest)
    completed: bool = True
    #: buckets adopted from the manifest's merge frontier instead of merged
    n_restored_buckets: int = 0


#: The legal/illegal mode matrix (transport x detection x replication x
#: speculation x manifest, plus what the fault plan injects) as ordered
#: ``(name, rejects, message)`` rules: ``rejects(m)`` returns a truthy
#: ``hit`` when the mode namespace ``m`` is illegal, and ``message`` is
#: formatted with both.  The table is the constructor's validator *and* the
#: input of the parametrised cross-product test: a combination no rule
#: rejects must sort and verify.
MODE_RULES = (
    ("duty-range", lambda m: not 0.0 <= m.background_asu_duty < 1.0,
     "background_asu_duty must be in [0, 1)"),
    ("ft-needs-active", lambda m: m.faults is not None and not m.active,
     "fault-tolerant mode needs active storage (recovery relies on "
     "ASU-side shard mirroring and takeover producers)"),
    ("transport-name", lambda m: m.transport not in ("direct", "reliable"),
     "transport must be 'direct' or 'reliable', got {m.transport!r}"),
    ("lossy-needs-reliable",
     lambda m: m.faults is not None and m.transport == "direct"
     and sorted(m.faults.kinds() & LOSSY_FAULT_KINDS),
     "fault plan injects {hit} but transport='direct' cannot mask message "
     "loss or transient I/O errors; use transport='reliable'"),
    ("retry-policy-needs-reliable",
     lambda m: m.retry_policy is not None and m.transport == "direct",
     "retry_policy= tunes the reliable transport; transport='direct' never "
     "retries and takes no policy"),
    ("detection-name", lambda m: m.detection_mode not in ("timer", "network"),
     "detection_mode must be 'timer' or 'network', got {m.detection_mode!r}"),
    ("network-excludes-speculation",
     lambda m: m.detection_mode == "network" and m.speculation is not None,
     "speculation= is incompatible with detection_mode='network': hedged "
     "shard ownership would race the epoch-fenced takeover"),
    ("r-exceeds-fleet",
     lambda m: m.replication is not None and m.replication.r > m.params.n_asus,
     "replication factor {m.replication.r} exceeds the fleet size "
     "({m.params.n_asus} ASUs)"),
    ("lose_replica-needs-replication",
     lambda m: m.faults is not None and m.replication is None
     and "lose_replica" in m.faults.kinds(),
     "fault plan injects lose_replica but the job has no replication "
     "layer to absorb media loss; pass replication="),
)


def check_modes(m) -> None:
    """Raise ``ValueError`` for the first :data:`MODE_RULES` entry ``m`` hits."""
    for _name, rejects, message in MODE_RULES:
        hit = rejects(m)
        if hit:
            raise ValueError(message.format(m=m, hit=hit))


class DsmSortJob:
    """One emulated DSM-Sort execution on a given platform configuration."""

    def __init__(
        self,
        params: SystemParams,
        config: DSMConfig,
        policy: str = "static",
        workload: str = "uniform",
        active: bool = True,
        seed: int = 0,
        background_asu_duty: float = 0.0,
        asu_data: Optional[list[np.ndarray]] = None,
        faults: Optional[FaultPlan] = None,
        heartbeat_interval: float = 0.05,
        heartbeat_timeout: float = 0.2,
        tracer=None,
        metrics=None,
        scrape_interval=None,
        transport: str = "direct",
        retry_policy=None,
        manifest=None,
        routing_seed: Optional[int] = None,
        speculation=None,
        routing_weights=None,
        job_id: Optional[str] = None,
        replication=None,
        detection_mode: str = "timer",
    ):
        if faults is None and (
            transport == "reliable" or detection_mode == "network"
            or manifest is not None or speculation is not None
            or replication is not None
        ):
            # These layers run on the fault-tolerant engine; asking for one
            # without a plan means the empty plan.
            faults = FaultPlan()
        check_modes(SimpleNamespace(
            params=params, active=active, faults=faults, transport=transport,
            detection_mode=detection_mode, speculation=speculation,
            replication=replication, background_asu_duty=background_asu_duty,
            retry_policy=retry_policy,
        ))
        if speculation is not None and metrics is None:
            # The speculator reads per-replica progress rates from the
            # metrics registry, so a speculative run is always metered.
            from ..metrics import MetricsRegistry

            metrics = MetricsRegistry()
        self.params = params
        self.config = config
        self.policy = policy
        self.active = active
        #: repro.recovery.manifest.RunManifest journaling this job's progress
        #: (checkpoint/restart); None = no durability layer
        self.manifest = manifest
        #: the one journal decision (:mod:`repro.dsmsort.journal`): every log
        #: point below calls this without asking which side it holds
        self._journal = manifest if manifest is not None else NO_JOURNAL
        #: repro.recovery.speculate.SpeculationPolicy enabling the straggler
        #: speculator during fault-tolerant run formation
        self.speculation = speculation
        #: repro.replica.ReplicationConfig enabling r-way run replication
        #: during fault-tolerant run formation; None = single-copy runs
        self.replication = replication
        #: routing RNG seed override: lets a supervisor *re-place* work
        #: (fresh routing decisions) without changing the workload seed
        self._routing_seed = int(routing_seed) if routing_seed is not None else int(seed)
        #: fraction of every ASU's CPU consumed by a competing application.
        #: ASUs are *shared* network storage and the competitor has strict
        #: priority (§1: storage-side computation must not interfere with
        #: other applications' storage access), so the sort's functors see
        #: only the leftover (1 - duty) of each ASU's cycles.
        self.background_asu_duty = background_asu_duty
        self.costs = RecordCosts(params)
        self.rngs = RngRegistry(seed)
        self.dist = DistributeFunctor.uniform(config.alpha, params.schema)
        self.sorter = BlockSortFunctor(config.beta)
        # Capacity-aware routing ("static information about node capacity",
        # §3.3): the weighted policy splits records in proportion to each
        # host's clock — unless the caller (e.g. the scheduler's placement
        # layer, which knows cross-job wear the job cannot see) supplies
        # explicit per-host weights.
        if routing_weights is not None:
            if policy != "weighted":
                raise ValueError(
                    "routing_weights requires policy='weighted', got "
                    f"policy={policy!r}"
                )
            w = [float(x) for x in routing_weights]
            if len(w) != params.n_hosts:
                raise ValueError(
                    f"routing_weights has {len(w)} entries for "
                    f"{params.n_hosts} hosts"
                )
            if any(not np.isfinite(x) or x <= 0 for x in w):
                raise ValueError(f"routing_weights must be positive, got {w}")
            self._host_weights = w
        else:
            self._host_weights = (
                [params.host_clock_of(h) for h in range(params.n_hosts)]
                if policy == "weighted"
                else None
            )
        #: scheduler namespace: labels this job's registry instruments with
        #: ``job=<id>`` so concurrent jobs can share one MetricsRegistry
        #: without aliasing; None keeps exports identical to single-job runs
        self.job_id = job_id
        self._job_labels = {"job": job_id} if job_id is not None else {}
        #: optional repro.metrics.MetricsRegistry shared by both passes and
        #: by the load manager (its routing feedback = these metrics);
        #: ``scrape_interval`` attaches a zero-perturbation collector.
        self.metrics = metrics
        self.scrape_interval = scrape_interval
        self.load_manager = self._new_load_manager()
        # Input: either supplied by the caller (pre-distributed application
        # data, e.g. TerraFlow cell records keyed by elevation) or generated
        # — n_records split evenly across the D ASUs, each ASU's share drawn
        # independently from the workload so temporal structure (the Fig-10
        # half-uniform/half-exponential switch) appears at every ASU.
        if asu_data is not None:
            if len(asu_data) != params.n_asus:
                raise ValueError(
                    f"asu_data has {len(asu_data)} entries for "
                    f"{params.n_asus} ASUs"
                )
            for batch in asu_data:
                if batch.dtype != params.schema.dtype:
                    raise ValueError(
                        f"asu_data dtype {batch.dtype} does not match the "
                        f"platform schema {params.schema.dtype}"
                    )
            self.asu_data = list(asu_data)
        else:
            per_asu = config.n_records // params.n_asus
            self.asu_data = [
                make_workload(
                    self.rngs.get(f"workload.{d}"), per_asu, workload,
                    params.schema,
                )
                for d in range(params.n_asus)
            ]
        #: runs written back, per ASU: list of (bucket, batch)
        self.runs_on_asu: list[list[tuple[int, np.ndarray]]] = [
            [] for _ in range(params.n_asus)
        ]
        self._pass1_done = False
        #: fault schedule for pass 1 (None = run the plain, non-FT path)
        self.faults = faults
        self.heartbeat_interval = float(heartbeat_interval)
        self.heartbeat_timeout = float(heartbeat_timeout)
        #: "timer" = zero-cost heartbeats (fail-stop only, no false suspicion);
        #: "network" = heartbeats as real messages + indirect probes, so cuts
        #: are *detected* and confirmations are fenced by membership epochs
        #: (docs/PARTITIONS.md).  Timer mode leaves legacy runs byte-identical.
        self.detection_mode = detection_mode
        #: "direct" posts straight onto the network (the paper's lossless
        #: emulation); "reliable" runs every host<->ASU exchange through
        #: seq/ack/retransmit endpoints so injected message faults
        #: (drop/dup/delay/corrupt) and transient disk errors are masked by
        #: retransmission, dedup, and resilient reads.  The FT pass builds
        #: ``self._net`` from it (:mod:`repro.dsmsort.transport`).
        self.transport = transport
        #: repro.resilience.RetryPolicy (None = the reliable default)
        self.retry_policy = retry_policy
        #: optional repro.trace.Tracer shared by both passes; pass-2 events
        #: are placed after pass 1 on one stitched timeline via tracer.offset
        self.tracer = tracer
        self._pass1_makespan = 0.0

    def _new_load_manager(self) -> LoadManager:
        return LoadManager(
            self.params,
            n_instances=self.params.n_hosts,
            n_buckets=self.config.alpha,
            policy=self.policy,
            rng=RngRegistry(self._routing_seed).get("routing"),
            weights=self._host_weights,
            registry=self.metrics,
            job_id=self.job_id,
        )

    # ------------------------------------------------------------------ pass 1
    def run_pass1(self, util_dt: float = 0.1, deadline: Optional[float] = None) -> Pass1Result:
        """Run the run-formation pass.

        ``deadline`` (fault-tolerant mode only) caps the simulated time: if
        the pass has not completed by then, a *partial* result is returned
        with ``completed=False`` instead of raising — the chaos harness's
        negative control relies on this to demonstrate record loss when
        retries are disabled.
        """
        if deadline is not None and self.faults is None:
            raise ValueError("deadline is only meaningful in fault-tolerant mode")
        # Re-runnable: clear per-run state (runs, router counters, RNG).
        self.runs_on_asu = [[] for _ in range(self.params.n_asus)]
        self._pass1_done = False
        self._runs = StripedRuns(self)
        self._members = FAIL_STOP
        self.load_manager = self._new_load_manager()
        plat_params = self.params
        if self.background_asu_duty > 0.0:
            # Strict-priority competitor: ASUs deliver (1 - duty) capacity.
            plat_params = plat_params.with_(
                asu_ratio=plat_params.asu_ratio / (1.0 - self.background_asu_duty)
            )
        if self.tracer is not None:
            self.tracer.offset = 0.0
        if self.metrics is not None and self.metrics.collector is not None:
            self.metrics.collector.offset = 0.0
        plat = ActivePlatform(
            plat_params, tracer=self.tracer,
            metrics=self.metrics, scrape_interval=self.scrape_interval,
        )
        self.platform = plat
        self.load_manager.attach_sim(plat.sim)
        if self.faults is not None:
            return self._run_pass1_ft(plat, util_dt, deadline)
        D, H = self.params.n_asus, self.params.n_hosts
        blk = self.params.block_records
        rs = self.params.schema.record_size
        sort_cpr = self.costs.blocksort_cycles(self.config.beta)

        producers = [
            plat.spawn(self._asu_producer(plat, d, blk, rs), name=f"prod{d}")
            for d in range(D)
        ]
        hosts = [
            plat.spawn(self._host_pass1(plat, h, rs, sort_cpr), name=f"host{h}")
            for h in range(H)
        ]
        consumers = [
            plat.spawn(self._asu_consumer(plat, d, rs), name=f"cons{d}")
            for d in range(D)
        ]
        report = plat.run(wait_for=[*producers, *hosts, *consumers])
        self._finish_pass1(report.makespan, completed=True)
        result = self._pass1_result(plat, report, util_dt)
        plat.close()
        return result

    def _finish_pass1(self, makespan: float, completed: bool) -> None:
        if completed:
            self._pass1_done = True
            self._pass1_makespan = makespan
            if self.tracer is not None:
                # Job-phase aggregate span: excluded from causal-graph node
                # sets (cat="phase") but anchors the sid/parent chain for
                # pass 2.
                self.tracer.span(0.0, makespan, "job", "pass1",
                                 cat="phase", sid="pass1")
            self._journal.log_pass1_done(makespan)

    def _pass1_result(self, plat, report, util_dt: float, **ft) -> Pass1Result:
        return Pass1Result(
            makespan=report.makespan,
            host_util=report.host_util,
            asu_cpu_util=report.asu_cpu_util,
            asu_disk_util=report.asu_disk_util,
            n_runs=sum(len(r) for r in self.runs_on_asu),
            net_bytes=report.net_bytes,
            imbalance=self.load_manager.imbalance(),
            host_util_series=[
                h.cpu.busy.utilization_series(report.makespan, dt=util_dt)
                for h in plat.hosts
            ],
            **ft,
        )

    def _trace_records(self, sim, track: str, n: int, dt: Optional[float] = None) -> None:
        """Per-stage record observation (no-op when untraced and unmetered;
        the pass-1 call sites test ``sim.tracer`` / ``sim.metrics`` first, so
        a bare run never enters here nor formats ``track``).

        ``track`` is ``<node>.<stage>``; ``n`` records just finished the
        stage.  Tracing accumulates the ``records`` counter; metering marks
        the stage's windowed throughput :class:`~repro.metrics.Rate` and —
        when the caller passes ``dt``, the virtual time the batch spent in
        the stage — feeds the per-record latency histogram.
        """
        tracer = sim.tracer
        if tracer is not None and n:
            tracer.count(sim.now, track, "records", float(n))
        m = sim.metrics
        if m is not None and n:
            owner = derive_owner(track)
            stage = track.split(".", 1)[-1]
            m.rate(
                "repro_stage_records", owner=owner, node=owner, stage=stage,
                **self._job_labels,
            ).mark(sim.now, float(n))
            if dt is not None:
                m.histogram(
                    "repro_stage_record_latency_seconds", stage=stage,
                    **self._job_labels,
                ).observe(dt / n, n=int(n))

    def _asu_producer(self, plat: ActivePlatform, d: int, blk: int, rs: int):
        from ..emulator.readahead import ReadAhead

        sim = plat.sim
        asu = plat.asus[d]
        data = self.asu_data[d]
        H = self.params.n_hosts
        blocks = [data[s : s + blk] for s in range(0, data.shape[0], blk)]
        # The whole block stripe moves through the charge models as one
        # NumPy op each (bit-identical per element to the scalar paths).
        sizes = np.array([b.shape[0] for b in blocks], dtype=np.int64)
        stripe_bytes = sizes * rs
        staging_cycles = stripe_bytes * self.params.cycles_per_io_byte
        dist_cycles = self.dist.cost_cycles_batch(sizes, self.params)
        ra = ReadAhead(plat, asu, stripe_bytes.tolist())
        for i, block in enumerate(blocks):
            yield ra.wait_next()
            if self.active:
                # Buffer-staging CPU cost of the read, then the distribute.
                t0 = sim.now
                staging = staging_cycles[i]
                if staging:
                    yield from asu.cpu.execute(cycles=staging)
                pieces = yield from asu.compute(
                    cycles=dist_cycles[i],
                    fn=self.dist.apply,
                    args=(block,),
                )
                if sim.tracer is not None or sim.metrics is not None:
                    self._trace_records(
                        sim, f"asu{d}.distribute", block.shape[0], dt=sim.now - t0
                    )
                # Route each bucket fragment; group fragments by destination
                # host so each (block, host) pair is one message.
                per_host: dict[int, list[tuple[int, np.ndarray]]] = defaultdict(list)
                for bucket, piece in enumerate(pieces):
                    if piece.shape[0] == 0:
                        continue
                    h = self.load_manager.route(bucket, piece.shape[0])
                    per_host[h].append((bucket, piece))
                for h, frags in per_host.items():
                    n = sum(p.shape[0] for _b, p in frags)
                    yield from asu.send_async(
                        plat.hosts[h], payload=("frags", d, frags), nbytes=n * rs,
                        tag="frags",
                    )
            else:
                # Passive storage: stream raw blocks, zero CPU charged.
                h = d % H
                plat.network.post(
                    asu.node_id, plat.hosts[h].node_id,
                    ("raw", d, block), block.shape[0] * rs, tag="raw",
                )
        # End of stream: tell every host.
        for h in range(H):
            if self.active:
                yield from asu.send_async(
                    plat.hosts[h], (_EOF, d, None), nbytes=16, tag="eof"
                )
            else:
                plat.network.post(
                    asu.node_id, plat.hosts[h].node_id, (_EOF, d, None), 16, tag="eof"
                )

    def _host_pass1(self, plat: ActivePlatform, h: int, rs: int, sort_cpr: float):
        host = plat.hosts[h]
        D = self.params.n_asus
        beta = self.config.beta
        buffers: dict[int, list[np.ndarray]] = defaultdict(list)
        buffered: dict[int, int] = defaultdict(int)
        next_asu = h  # stripe runs across ASUs, offset by host index
        n_eof = 0
        while n_eof < D:
            msg = yield from host.recv()
            kind, src_d, payload = msg.payload
            if kind == _EOF:
                n_eof += 1
                continue
            if kind == "raw":
                # Baseline: host performs the distribute itself.
                block = payload
                pieces = yield from host.compute(
                    cycles=self.dist.cost_cycles(block.shape[0], self.params),
                    fn=self.dist.apply,
                    args=(block,),
                )
                frags = [
                    (b, p) for b, p in enumerate(pieces) if p.shape[0] > 0
                ]
            else:
                frags = payload
            for bucket, piece in frags:
                buffers[bucket].append(piece)
                buffered[bucket] += piece.shape[0]
                while buffered[bucket] >= beta:
                    batch = concat_records(buffers[bucket], self.params.schema)
                    run_src, rest = batch[:beta], batch[beta:]
                    buffers[bucket] = [rest] if rest.shape[0] else []
                    buffered[bucket] = rest.shape[0]
                    next_asu = yield from self._emit_run(
                        plat, host, h, bucket, run_src, next_asu, rs, sort_cpr
                    )
        # Flush partial runs.
        for bucket in sorted(buffers):
            if buffered[bucket]:
                batch = concat_records(buffers[bucket], self.params.schema)
                next_asu = yield from self._emit_run(
                    plat, host, h, bucket, batch, next_asu, rs, sort_cpr
                )
        for d in range(D):
            yield from host.send_async(plat.asus[d], (_EOF, h, None), nbytes=16, tag="eof")

    def _emit_run(self, plat, host, h, bucket, batch, next_asu, rs, sort_cpr):
        """Really sort one run on the host CPU and stripe it to an ASU."""
        sim = plat.sim
        t0 = sim.now
        run = yield from host.compute(
            cycles=batch.shape[0] * sort_cpr,
            fn=sort_records,
            args=(batch,),
        )
        self.load_manager.complete(h, batch.shape[0])
        if sim.tracer is not None or sim.metrics is not None:
            self._trace_records(sim, f"host{h}.sort", batch.shape[0], dt=sim.now - t0)
        d = next_asu % self.params.n_asus
        # Host pays the NIC copy in both modes; wire time is off the CPU.
        yield from host.send_async(
            plat.asus[d], ("run", bucket, run), nbytes=run.shape[0] * rs, tag="run"
        )
        return next_asu + 1

    def _asu_consumer(self, plat: ActivePlatform, d: int, rs: int):
        sim = plat.sim
        asu = plat.asus[d]
        H = self.params.n_hosts
        n_eof = 0
        while n_eof < H:
            if self.active:
                msg = yield from asu.recv()
            else:
                msg = yield from plat.network.recv(asu.node_id)
            kind, bucket, payload = msg.payload
            if kind == _EOF:
                n_eof += 1
                continue
            nbytes = payload.shape[0] * rs
            t0 = sim.now
            if self.active:
                yield from asu.disk_write(nbytes)
            else:
                yield from asu.disk.write(nbytes)
            self.runs_on_asu[d].append((bucket, payload))
            if sim.tracer is not None or sim.metrics is not None:
                self._trace_records(
                    sim, f"asu{d}.write", payload.shape[0], dt=sim.now - t0
                )
        yield from asu.disk.drain()

    # ------------------------------------------------------------ pass 1 (FT)
    def _run_pass1_ft(
        self, plat: ActivePlatform, util_dt: float, deadline: Optional[float] = None
    ) -> Pass1Result:
        """Fault-tolerant run formation (see docs/FAULTS.md).

        Same dataflow as the plain pass, rebuilt around exactly-once record
        accounting so any schedule of fail-stops still yields a complete,
        verified-sorted output:

        * every input shard is mirrored; a dead ASU's shard is re-produced by
          a takeover on the next alive ASU, resuming from per-(block, bucket)
          ship markers;
        * producers retain every shipped fragment (:class:`_FragEntry`); a
          dead host's fragments are replayed to survivors and *all* of its
          runs are discarded, wherever they landed — the frag is the unit of
          replay, so no record is ever counted twice;
        * where a sorted run lives, and what happens when its ASU dies, is
          the job's :class:`~repro.dsmsort.durability.RunDurability`: striped
          single copies re-emitted from the host's run lineage, or r-way
          replica sets promoted in place (re-emit requests ride the host's
          own mailbox, which serialises recovery behind in-flight emits);
        * completion is a durable-record count: pass 1 ends when every input
          record is in exactly one durable run on an alive ASU.

        All marker updates share a yield-free region with the network post
        they describe, so a fail-stop (which can only land at a yield) can
        never half-record a transition.
        """
        D, H = self.params.n_asus, self.params.n_hosts
        blk = self.params.block_records
        rs = self.params.schema.record_size
        sort_cpr = self.costs.blocksort_cycles(self.config.beta)

        # Recovery bookkeeping (reset so the job is re-runnable).
        self._ft_total = sum(a.shape[0] for a in self.asu_data)
        self._ft_durable = 0
        self._frag_log: dict[int, list[_FragEntry]] = defaultdict(list)
        #: ship markers, (shard, block, bucket) -> the piece shipped; a replay
        #: that skips a marked fragment must have recomputed the same bytes
        self._shipped: dict[tuple[int, int, int], Optional[np.ndarray]] = {}
        self._blocks_complete: set[tuple[int, int]] = set()
        self._eof_posted: set[int] = set()
        self._shard_owner: dict[int, int] = {d: d for d in range(D)}
        self._dead_asus: set[int] = set()
        self._dead_hosts: set[int] = set()
        self._n_replayed_frags = 0
        self._n_takeover_blocks = 0
        self._n_hedged_shards = 0
        self._n_hedge_wasted_frags = 0
        self._coord_crashed = False
        #: global frag exactly-once authority: (src_d, block, bucket) -> the
        #: _FragEntry whose host actually buffered the records.  A takeover
        #: re-ships whatever its dead or expelled predecessor left in doubt
        #: (a copy may still have landed), so hosts dedup across entries.
        self._frags_accepted: dict[tuple, "_FragEntry"] = {}
        self._n_dup_frags_dropped = 0
        self.recovered_at: dict[str, float] = {}
        self._complete_ev = Event(plat.sim)
        self._ft_plat = plat

        # The one membership decision (:mod:`repro.dsmsort.membership`): a
        # confirmed node is dead, or — network detection — maybe alive behind
        # a cut, so epochs fence its writes and journal appends and the
        # engine's state it left in doubt is unwound.
        if self.detection_mode == "network":
            from ..membership.fencing import EpochFencing

            self._members = EpochFencing(self)

        if self.replication is not None:
            from ..replica.durability import ReplicatedRuns

            self._runs = ReplicatedRuns(self, self.replication)

        # Checkpoint/restart: bind the journal's charged writer to this
        # platform, then replay it — no journal or a fresh one replays to
        # nothing, a crashed predecessor's restores the durable frontier so
        # producers skip completed blocks and re-ship only what was lost
        # (its runs are digest-verified on load: no piece to compare).  EOF
        # markers are volatile by design: every shard's producer
        # re-announces EOF on the new platform.
        self._journal.bind(plat)
        state = self._journal.restore_state()
        self._shipped = dict.fromkeys(state.covered)
        self._blocks_complete = set(state.blocks_complete)
        self._ft_durable = state.n_durable
        for rid, h, bucket, dest, payload in state.live_runs:
            self._runs.adopt(rid, h, bucket, dest, payload)

        # The one transport decision; from here on the engine calls
        # ``self._net`` without asking which it holds.
        if self.transport == "reliable":
            from ..resilience.transport import ReliableTransport

            self._net = ReliableTransport(
                plat, self.retry_policy, self.rngs.seed, _weak(self._undeliverable_ft)
            )
        else:
            self._net = DirectTransport(plat, _weak(self._undeliverable_ft))

        injector = Injector(plat, self.faults, on_fault=_weak(self._on_fault_ft))
        detector = FailureDetector(
            plat, interval=self.heartbeat_interval, timeout=self.heartbeat_timeout,
            mode=self.detection_mode,
        )
        detector.on_failure.append(_weak(self._on_detected_ft))
        detector.on_readmit.append(self._members.readmitted)
        self.injector, self.detector = injector, detector
        injector.arm()
        detector.start()

        for d in range(D):
            plat.spawn(
                self._produce_shard_ft(plat, d, d, blk, rs),
                name=f"prod{d}", node=plat.asus[d],
            )
        for h in range(H):
            plat.spawn(
                self._host_pass1_ft(plat, h, sort_cpr),
                name=f"host{h}", node=plat.hosts[h],
            )
        for d in range(D):
            plat.spawn(
                self._asu_consumer_ft(plat, d),
                name=f"cons{d}", node=plat.asus[d],
            )
        for name, proc in self._runs.background():
            plat.spawn(proc, name=name)
        coord = plat.spawn(self._coordinator_ft(plat), name="coordinator")
        if self.speculation is not None:
            from ..recovery.speculate import Speculator

            self._speculator = Speculator(self, self.speculation)
            self._speculator.attach(plat)
        plat.sim.run(until=deadline)
        completed = coord.triggered
        if not completed and deadline is None and not self._coord_crashed:
            raise RuntimeError("fault-tolerant pass 1 never completed (deadlock?)")
        self._finish_pass1(plat.sim.now, completed)
        self.fault_report = FaultReport.from_run(injector, detector, self.recovered_at)
        result = self._pass1_result(
            plat, plat.report(), util_dt,
            fault_report=self.fault_report,
            n_replayed_frags=self._n_replayed_frags,
            n_takeover_blocks=self._n_takeover_blocks,
            completed=completed,
            n_durable=self._ft_durable,
            coordinator_crashed=self._coord_crashed,
            n_hedged_shards=self._n_hedged_shards,
            n_hedge_wasted_frags=self._n_hedge_wasted_frags,
            n_quarantine_holds=detector.n_quarantine_holds,
            n_dup_frags_dropped=self._n_dup_frags_dropped,
            **self._members.counters(),
            **self._runs.counters(),
            **self._net.counters(),
        )
        plat.close()
        return result

    def _avoid_hosts(self, src_id: str) -> tuple:
        """Hosts the transport reports an unhealthy link to from ``src_id``.

        A soft steer-around set for the router: quarantined (dead) hosts are
        already masked, this additionally routes fragments away from flapping
        links until they recover.  Empty while every link is healthy, so
        fault-free routing decisions are untouched.
        """
        healthy = self._net.healthy
        return tuple(
            h for h in range(self.params.n_hosts)
            if h not in self._dead_hosts and not healthy(src_id, f"host{h}")
        )

    def _produce_shard_ft(self, plat: ActivePlatform, owner: int, shard: int, blk: int, rs: int):
        """Stream ``shard``'s input, distribute, route, ship — resumable.

        Runs on ``owner``: the shard's home ASU, or the mirror holder after a
        takeover.  Ship markers are per (block, bucket) and updated in the
        same yield-free region as the post, so a ship is exactly-once across
        any chain of takeovers.
        """
        asu = plat.asus[owner]
        net = self._net
        data = self.asu_data[shard]
        H = self.params.n_hosts
        cpnb = self.params.cycles_per_net_byte
        takeover = owner != shard
        blocks = [data[s : s + blk] for s in range(0, data.shape[0], blk)]
        pending = [
            i for i in range(len(blocks)) if (shard, i) not in self._blocks_complete
        ]
        # Batched charge paths over the pending stripe (see _asu_producer).
        sizes = np.array([b.shape[0] for b in blocks], dtype=np.int64)
        stripe_bytes = sizes * rs
        staging_cycles = stripe_bytes * self.params.cycles_per_io_byte
        dist_cycles = self.dist.cost_cycles_batch(sizes, self.params)
        reads = net.reader(asu, [int(stripe_bytes[i]) for i in pending])
        for i in pending:
            block = blocks[i]
            yield from reads.arrive()
            # A hedged replica (or the hedged original) may have completed
            # this block while we progressed: skip it.  For a solo producer
            # the marker can never appear mid-loop, so the plain FT path is
            # untouched.  A read that arrived above is still consumed.
            if (shard, i) in self._blocks_complete:
                continue
            if self._members.producer_fenced(owner, shard):
                return  # expelled mid-stream: the fenced takeover owns the rest
            yield from reads.fetch(int(stripe_bytes[i]))
            t0 = plat.sim.now
            staging = staging_cycles[i]
            if staging:
                yield from asu.cpu.execute(cycles=staging)
            pieces = yield from asu.compute(
                cycles=dist_cycles[i],
                fn=self.dist.apply,
                args=(block,),
            )
            sim = plat.sim
            if sim.tracer is not None or sim.metrics is not None:
                self._trace_records(
                    sim, f"asu{owner}.distribute", block.shape[0], dt=sim.now - t0
                )
            if takeover:
                self._n_takeover_blocks += 1
            per_host: dict[int, list[tuple[int, np.ndarray]]] = defaultdict(list)
            for bucket, piece in enumerate(pieces):
                if piece.shape[0] == 0:
                    continue
                if (shard, i, bucket) in self._shipped:
                    # A skipped fragment must be byte-identical to the piece
                    # that was shipped — catches any nondeterminism in a
                    # replay (hedge or takeover).  Only a replay gets here.
                    prev = self._shipped[shard, i, bucket]
                    if prev is not None and prev.tobytes() != piece.tobytes():
                        raise RuntimeError(
                            f"replay recomputed fragment ({shard}, {i}, "
                            f"{bucket}) with different content than the "
                            f"shipped original"
                        )
                    continue
                h = self.load_manager.route(
                    bucket, piece.shape[0], avoid=self._avoid_hosts(asu.node_id)
                )
                per_host[h].append((bucket, piece))
            for h, frags in per_host.items():
                n = sum(p.shape[0] for _b, p in frags)
                # Flow control *before* the atomic ship region.
                yield from net.wait_window(
                    asu.node_id, plat.hosts[h].node_id, self.load_manager, h, n
                )
                yield from asu.cpu.execute(cycles=n * rs * cpnb)
                # Atomic with the post: retention entries + ship markers.
                # Expulsion can only land at the yields above, so this check
                # opens the yield-free region — a zombie can never pair a
                # marker with a post the view no longer sanctions.
                if self._members.producer_fenced(owner, shard):
                    return
                if self._members.must_reroute(h):
                    # The destination was expelled while we waited on its
                    # window: the cancel released us, but posting now would
                    # vanish into the cut with no dead-letter.  Reroute the
                    # batch to a live host (quarantine already steers the
                    # router away from the corpse).
                    h = self.load_manager.route(
                        frags[0][0], n, avoid=self._avoid_hosts(asu.node_id)
                    )
                # Re-filter against the markers first — first-finisher-wins:
                # a concurrent hedge may have shipped some of these buckets
                # while we waited on the window/CPU above.  With no hedge
                # alive the filter is the identity, so the plain FT path is
                # bit-identical.
                dropped = [b for b, _p in frags if (shard, i, b) in self._shipped]
                if dropped:
                    self._n_hedge_wasted_frags += len(dropped)
                    frags = [
                        (b, p) for b, p in frags if (shard, i, b) not in self._shipped
                    ]
                    if not frags:
                        continue
                    n = sum(p.shape[0] for _b, p in frags)
                entries = [_FragEntry(shard, asu.node_id, i, b, p) for b, p in frags]
                self._frag_log[h].extend(entries)
                for b, p in frags:
                    self._shipped[shard, i, b] = p
                net.post(
                    asu.node_id, plat.hosts[h].node_id,
                    ("frags", shard, frags, entries), n * rs, "frags",
                )
            self._blocks_complete.add((shard, i))
            self._journal.log_block(
                shard, i,
                [(b, p.shape[0]) for b, p in enumerate(pieces) if p.shape[0]],
            )
        if shard not in self._eof_posted:
            yield from asu.cpu.execute(cycles=H * 16 * cpnb)
            if self._members.producer_fenced(owner, shard):
                return  # the takeover announces EOF under the new epoch
            # Atomic: the marker guards the whole EOF broadcast, so a crash
            # here either leaves the shard EOF-less (next takeover posts) or
            # fully announced — hosts can never count a shard's EOF twice.
            # (A hedge racing the original to this point can double-post;
            # hosts track EOFs as a *set* of shard ids, so that is benign.)
            self._eof_posted.add(shard)
            self._journal.log_shard_done(shard, len(blocks))
            for h in range(H):
                net.post(
                    asu.node_id, plat.hosts[h].node_id, (_EOF, shard, None), 16,
                    "eof",
                )

    def _host_pass1_ft(self, plat: ActivePlatform, h: int, sort_cpr: float):
        """Perpetual host worker: buffer, cut runs, flush at D EOFs.

        After the flush, each late fragment (a replay or a takeover tail)
        becomes its own run immediately — with no buffering state left, even
        arbitrarily delayed deliveries are safe.  The loop never exits; the
        coordinator stops the clock when every record is durable.
        """
        host = plat.hosts[h]
        D = self.params.n_asus
        beta = self.config.beta
        # Where a full buffer is cut is the journal's answer: exactly beta
        # when nothing records lineage (the historical cuts, bit-identical),
        # the whole buffer when a run's lineage must be an exact
        # fragment-key list (:mod:`repro.dsmsort.journal`).
        run_length = self._journal.run_length
        buffers: dict[int, list[np.ndarray]] = defaultdict(list)
        buffered: dict[int, int] = defaultdict(int)
        fkeys: dict[int, list] = defaultdict(list)
        eof_from: set[int] = set()
        flushed = False
        while True:
            msg = yield from self._net.recv(host)
            kind, src = msg.payload[0], msg.payload[1]
            if kind == _EOF:
                eof_from.add(src)
                if not flushed and len(eof_from) >= D:
                    flushed = True
                    for bucket in sorted(buffers):
                        if buffered[bucket]:
                            batch = concat_records(buffers[bucket], self.params.schema)
                            yield from self._emit_run_ft(
                                plat, host, h, bucket, batch, sort_cpr, fkeys[bucket]
                            )
                    buffers.clear()
                    buffered.clear()
                    fkeys.clear()
                continue
            if kind == "reemit":
                # Riding the mailbox serialises the re-emit after any
                # in-flight emit of this host.
                yield from self._runs.reemit(host, h, msg.payload[2])
                continue
            frags = msg.payload[2]
            entries = msg.payload[3]
            if h in self._dead_hosts:
                # Expelled but still alive (a cut, not a crash): the
                # expulsion-time replay handed these records to survivors —
                # buffering them here would strand them behind the run fence.
                continue
            fresh = []
            for f, e in zip(frags, entries):
                fkey = (e.src_d, e.block, e.bucket)
                owner = self._frags_accepted.get(fkey)
                if owner is e:
                    self._n_dup_frags_dropped += 1
                    continue  # duplicate delivery of the accepted entry
                if owner is not None:
                    # Another host already buffered these records (a takeover
                    # re-shipped what its predecessor left in doubt): drop,
                    # and retire this retention entry so a later host death
                    # cannot replay it into a dup.
                    e.done = True
                    self._n_dup_frags_dropped += 1
                    continue
                self._frags_accepted[fkey] = e
                fresh.append((f, fkey))
            if flushed:
                for (bucket, piece), fkey in fresh:
                    yield from self._emit_run_ft(
                        plat, host, h, bucket, piece, sort_cpr, [fkey]
                    )
                continue
            for (bucket, piece), fkey in fresh:
                buffers[bucket].append(piece)
                fkeys[bucket].append(fkey)
                buffered[bucket] += piece.shape[0]
                while buffered[bucket] >= beta:
                    batch = concat_records(buffers[bucket], self.params.schema)
                    n = run_length(buffered[bucket], beta)
                    run_src, rest = batch[:n], batch[n:]
                    keys, fkeys[bucket] = fkeys[bucket], []
                    buffers[bucket] = [rest] if rest.shape[0] else []
                    buffered[bucket] = rest.shape[0]
                    yield from self._emit_run_ft(
                        plat, host, h, bucket, run_src, sort_cpr, keys
                    )

    def _emit_run_ft(self, plat, host, h, bucket, batch, sort_cpr, fkeys):
        """Sort one run, log its lineage, stripe it to an alive ASU.

        ``fkeys`` lists the fragment keys buffered since the last cut — for a
        journaled run, exactly the fragments it covers; the run gets its
        journal id in the emit, but only becomes a durable journal entry
        when the destination ASU's write completes.
        """
        if h in self._dead_hosts:
            # An expelled host may still be running (a cut, not a crash; a
            # crashed host's processes died with it).  Its records were
            # replayed to survivors, so a zombie emit would only register
            # sets the consumers must drop.
            return
        t0 = plat.sim.now
        run = yield from host.compute(
            cycles=batch.shape[0] * sort_cpr,
            fn=sort_records,
            args=(batch,),
        )
        self.load_manager.complete(h, batch.shape[0])
        sim = plat.sim
        if sim.tracer is not None or sim.metrics is not None:
            self._trace_records(sim, f"host{h}.sort", batch.shape[0], dt=sim.now - t0)
        yield from self._runs.emit(host, h, bucket, run, fkeys)

    def _asu_consumer_ft(self, plat: ActivePlatform, d: int):
        """Perpetual consumer: make runs durable, drop quarantined hosts'."""
        asu = plat.asus[d]
        while True:
            msg = yield from self._net.recv(asu)
            if msg.payload[0] != "run":
                continue
            delta = yield from self._runs.consume(asu, d, msg)
            if delta:
                self._credit_durable(delta)

    def _credit_durable(self, n: int) -> None:
        self._ft_durable += n
        if self._ft_durable >= self._ft_total and not self._complete_ev.triggered:
            self._complete_ev.succeed()

    def _coordinator_ft(self, plat: ActivePlatform):
        """Stop the clock once every input record is durable (post-drain)."""
        while True:
            if self._ft_durable < self._ft_total:
                if self._complete_ev.triggered:
                    self._complete_ev = Event(plat.sim)
                yield self._complete_ev
            # Flush write-behind so "durable" is on-platter; a crash during
            # the drain can revoke completion, hence the re-check.
            for a in plat.asus:
                if a.alive:
                    yield from a.disk.drain()
            if self._ft_durable >= self._ft_total:
                break
        plat.sim.schedule(lambda _ev: plat.sim.stop())

    # -- FT recovery callbacks (run inside simulator callbacks; no yields) ----
    def _on_fault_ft(self, fault) -> None:
        """Ground-truth accounting at the crash instant: data on the dead
        device is gone *now*, whatever the detector believes."""
        plat = self._ft_plat
        if fault.kind == "crash_asu":
            self._ft_durable += self._runs.asu_lost(plat.asus[fault.index])
        elif fault.kind == "crash_host":
            self._ft_durable += self._runs.host_lost(fault.index)
        elif fault.kind == "lose_replica":
            self._ft_durable += self._runs.media_lost(plat.asus[fault.index])
        elif fault.kind == "crash_coordinator":
            # Whole-job fail-stop: every volatile structure (host buffers,
            # in-flight messages, ship markers) dies with this platform.
            # What survives is exactly the manifest and the run payloads it
            # references; repro.recovery.checkpoint resumes from there.
            self._coord_crashed = True
            plat.sim.schedule(lambda _ev: plat.sim.stop())

    def _on_detected_ft(self, node, t: float) -> None:
        plat = self._ft_plat
        nid = node.node_id
        tracer = plat.sim.tracer
        if tracer is not None:
            tracer.instant(plat.sim.now, "faults", f"recover {nid}", cat="fault")
        if nid.startswith("asu"):
            d = node.index
            if d in self._dead_asus:
                return
            self._dead_asus.add(d)
            self._members.confirmed(node, t)
            # What the node posted and never saw acknowledged has no owner
            # left to resend it: back to not-shipped, before the takeover
            # below reads the markers.
            for _dst, tag, payload in self._net.peer_lost(nid):
                if tag == "frags":
                    self._unship(payload[3])
                elif tag == "eof":
                    self._eof_posted.discard(payload[1])
            self._ft_durable += self._runs.asu_lost(node)  # idempotent; the crash hook already ran
            # Re-assign every shard the dead ASU owned to the next alive
            # mirror holder; ship markers make the takeover resume exactly
            # where the dead producer stopped.
            for shard, owner in sorted(self._shard_owner.items()):
                if owner != d:
                    continue
                new_owner = self._next_alive_asu(d)
                self._shard_owner[shard] = new_owner
                proc = plat.spawn(
                    self._produce_shard_ft(
                        plat, new_owner, shard,
                        self.params.block_records, self.params.schema.record_size,
                    ),
                    name=f"takeover{shard}", node=plat.asus[new_owner],
                )
                proc.callbacks.append(
                    lambda _ev, nid=nid, shard=shard: (
                        self.recovered_at.setdefault(nid, plat.sim.now)
                        if shard in self._eof_posted
                        else None
                    )
                )
            for h, request in self._runs.detected(d):
                plat.hosts[h].mailbox.put(
                    Message(
                        "system", plat.hosts[h].node_id,
                        ("reemit", h, request), 0, tag="ctl",
                    )
                )
        else:
            h = node.index
            if h in self._dead_hosts:
                return
            self._dead_hosts.add(h)
            self._members.confirmed(node, t)
            # A host's unacknowledged transfers are runs, which die with it
            # (host_lost below); only the peers' side needs cancelling.
            self._net.peer_lost(nid)
            self.load_manager.quarantine(h)
            self._ft_durable += self._runs.host_lost(h)  # idempotent; the crash hook already ran
            for e in self._frag_log.pop(h, []):
                if e.done:
                    continue
                fkey = (e.src_d, e.block, e.bucket)
                owner = self._frags_accepted.get(fkey)
                if owner is not None and owner is not e:
                    # Stale retention: another host buffered these records
                    # — replaying this copy would double-count.
                    e.done = True
                    continue
                # Transfer the exactly-once authority with the replay.
                self._frags_accepted.pop(fkey, None)
                self._replay_frag_entry(plat, e)
            self.recovered_at[nid] = plat.sim.now

    def _next_alive_asu(self, d: int) -> int:
        D = self.params.n_asus
        for step in range(1, D + 1):
            cand = (d + step) % D
            if cand not in self._dead_asus:
                return cand
        raise UnrecoverableJobError("no alive ASU for shard takeover")

    def _replay_frag_entry(self, plat: ActivePlatform, e: _FragEntry) -> None:
        """Re-route one retained fragment to a surviving host.

        Runs inside a simulator callback (detection sweep or dead-letter
        hook): the retransmission reserves link capacity and is charged to
        the wire, but no CPU — the recovery manager replays out of the
        retention buffer without re-running the functor.
        """
        e.done = True
        n = int(e.piece.shape[0])
        h2 = self.load_manager.route(e.bucket, n, avoid=self._avoid_hosts(e.src_node))
        ne = _FragEntry(e.src_d, e.src_node, e.block, e.bucket, e.piece)
        self._frag_log[h2].append(ne)
        self._n_replayed_frags += 1
        rs = self.params.schema.record_size
        # If the retaining producer died (or was expelled into a cut), the
        # transport names a surviving member to replay from (hosts key
        # fragments by the payload's shard id, not the wire-level source).
        src = self._net.sender_for(e.src_node, self._members.is_member)
        self._net.post(
            src, plat.hosts[h2].node_id,
            ("frags", e.src_d, [(e.bucket, e.piece)], [ne]), n * rs, "frags",
        )

    def _unship(self, entries) -> None:
        """Return in-doubt fragments to not-shipped so a takeover re-produces
        them: every live entry whose records no host has proven accepted.

        A copy that did land after all is dedup'd by the host-side
        accepted-fragment authority, so the unwind can never double-count —
        and an entry is *not* retired here: if its copy lands first it is the
        accepted one, and a later death of that host must still replay it.
        """
        for e in entries:
            fkey = (e.src_d, e.block, e.bucket)
            if e.done or fkey in self._frags_accepted:
                continue  # superseded, or a host holds these records
            self._shipped.pop(fkey, None)
            self._blocks_complete.discard((e.src_d, e.block))

    def _undeliverable_ft(self, dst: str, tag: str, payload) -> None:
        """Transport callback: a message will never arrive — it reached a
        fail-stopped node, or its sender stopped retrying a peer declared
        dead before any copy was acknowledged.

        Only fragment messages whose destination host is *already detected*
        need action — they were posted in the window between a routing
        decision and the detection sweep, so the sweep missed them.  Every
        other loss is covered by log-based recovery (run lineage, EOF
        markers).  A transfer can die both ways; ``done`` makes the second
        report a no-op.
        """
        if tag != "frags" or not dst.startswith("host"):
            return
        if int(dst[4:]) not in self._dead_hosts:
            return
        for e in payload[3]:
            if not e.done:
                self._replay_frag_entry(self._ft_plat, e)

    # ------------------------------------------------------------- restore
    def restore_pass1(self) -> None:
        """Adopt a *completed* pass 1 from the manifest without re-running it.

        Used by :class:`~repro.recovery.checkpoint.RecoverableSort` when the
        coordinator died between the passes: the manifest already holds every
        durable run (digest-verified on load), so the job can jump straight
        to :meth:`run_pass2`.
        """
        from ..recovery.manifest import CheckpointError

        state = self._journal.restore_state()
        if not state.pass1_done:
            raise CheckpointError(
                "manifest does not record pass-1 completion; resume with "
                "run_pass1 instead"
            )
        self.runs_on_asu = [[] for _ in range(self.params.n_asus)]
        self._runs = StripedRuns(self)
        for rid, h, bucket, dest, payload in state.live_runs:
            self.runs_on_asu[dest].append((bucket, payload))
        self._pass1_done = True
        self._pass1_makespan = state.pass1_makespan

    # ------------------------------------------------------------------ pass 2
    def run_pass2(self, deadline: Optional[float] = None) -> Pass2Result:
        """Final merge: γ1-way pre-merge on ASUs, γ2-way completion on hosts.

        ``deadline`` bounds the pass-2 platform clock (used by the recovery
        harness to model a coordinator crash mid-merge): the simulation stops
        at that instant and the result comes back with ``completed=False``;
        buckets merged before the crash are already journalled and survive.
        """
        if not self._pass1_done:
            raise RuntimeError("run_pass1 first")
        params = self.params
        if self.tracer is not None:
            # Pass 2 runs on a fresh platform whose clock restarts at 0;
            # offsetting its events by the pass-1 makespan stitches both
            # passes onto one job timeline in the exported trace.
            self.tracer.offset = self._pass1_makespan
        if self.metrics is not None and self.metrics.collector is not None:
            # Same stitching for metric samples.
            self.metrics.collector.offset = self._pass1_makespan
        plat = ActivePlatform(
            params, tracer=self.tracer,
            metrics=self.metrics, scrape_interval=self.scrape_interval,
        )
        D, H = params.n_asus, params.n_hosts
        rs = params.schema.record_size
        g1 = self.config.gamma1
        g2 = self.config.merge_host_fan_in
        pre_cpr = self.costs.merge_cycles(g1)
        fin_cpr = self.costs.merge_cycles(g2)
        merger1 = MergeFunctor(g1)

        self.final_buckets: dict[int, list[np.ndarray]] = defaultdict(list)
        n_partial = 0

        # Merge-frontier restore: buckets the manifest already holds fully
        # merged (from an attempt that crashed mid-pass-2) are adopted
        # verbatim — their runs are never re-read off the ASU disks and the
        # owning host never waits on their done markers.
        self._journal.bind(plat)
        merged_restored = self._journal.merged_buckets()
        for bucket in sorted(merged_restored):
            self.final_buckets[bucket].append(merged_restored[bucket])

        # One read per logical run (a replicated pass 1 holds up to r copies).
        read_plan = self._runs.read_plan()

        def plan_groups(d):
            """(bucket, runs-or-None) items in bucket order; None = done marker.

            Every ASU visits every bucket in order (empty ones included) so
            the host can count D "bucket done" markers per bucket and start
            merging a bucket while later buckets are still streaming in —
            the pipelined-phases execution of §3.3.
            """
            by_bucket: dict[int, list[np.ndarray]] = defaultdict(list)
            for bucket, run in read_plan[d]:
                by_bucket[bucket].append(run)
            items: list[tuple[int, Optional[list[np.ndarray]]]] = []
            for bucket in range(self.config.alpha):
                if bucket in merged_restored:
                    continue
                runs = by_bucket.get(bucket, [])
                for gi in range(0, len(runs), g1):
                    items.append((bucket, runs[gi : gi + g1]))
                items.append((bucket, None))
            return items

        def asu_reader(d, items, buf):
            """Stream run groups off the disk ahead of the merge worker."""
            asu = plat.asus[d]
            for bucket, group in items:
                if group is not None:
                    n = sum(r.shape[0] for r in group)
                    yield from asu.disk.read(n * rs)
                yield buf.put((bucket, group))

        def asu_merge(d, buf, n_items):
            nonlocal n_partial
            asu = plat.asus[d]
            for _ in range(n_items):
                bucket, group = yield buf.get()
                h = bucket * H // self.config.alpha
                if group is None:
                    yield from asu.send_async(
                        plat.hosts[h], ("bucket_done", bucket, None), 16, tag="done"
                    )
                    continue
                n = sum(r.shape[0] for r in group)
                t0 = plat.sim.now
                staging = n * rs * self.params.cycles_per_io_byte
                if staging:
                    yield from asu.cpu.execute(cycles=staging)
                if g1 > 1 and len(group) > 1:
                    merged = yield from asu.compute(
                        cycles=n * pre_cpr, fn=merger1.merge, args=(group,)
                    )
                else:
                    merged = group[0] if len(group) == 1 else merge_sorted_batches(group)
                self._trace_records(
                    plat.sim, f"asu{d}.premerge", n, dt=plat.sim.now - t0
                )
                n_partial += 1
                yield from asu.send_async(
                    plat.hosts[h], ("partial", bucket, merged),
                    nbytes=merged.shape[0] * rs, tag="partial",
                )

        def host_merge(h):
            host = plat.hosts[h]
            partials: dict[int, list[np.ndarray]] = defaultdict(list)
            done_count: dict[int, int] = defaultdict(int)
            my_buckets = [
                b for b in range(self.config.alpha)
                if b * H // self.config.alpha == h and b not in merged_restored
            ]
            n_finished = 0

            def complete_bucket(bucket):
                t0 = plat.sim.now
                runs = partials.pop(bucket, [])
                fan = max(g2, 2)
                # Reduce to <= fan runs by folding the *smallest* runs first
                # (the tiny pass-1 flush runs), so the overflow work is
                # proportional to the tail records, not the whole bucket.
                while len(runs) > fan:
                    runs.sort(key=lambda r: r.shape[0])
                    k = min(len(runs) - fan + 1, fan)
                    group, runs = runs[:k], runs[k:]
                    n = sum(r.shape[0] for r in group)
                    merged = yield from host.compute(
                        cycles=n * fin_cpr, fn=merge_sorted_batches, args=(group,)
                    )
                    runs.append(merged)
                if len(runs) > 1:
                    n = sum(r.shape[0] for r in runs)
                    merged = yield from host.compute(
                        cycles=n * fin_cpr, fn=merge_sorted_batches, args=(runs,)
                    )
                    runs = [merged]
                if runs:
                    self._trace_records(
                        plat.sim, f"host{h}.merge", runs[0].shape[0],
                        dt=plat.sim.now - t0,
                    )
                    self.final_buckets[bucket].append(runs[0])
                    self._journal.log_bucket_merged(bucket, runs[0])

            while n_finished < len(my_buckets):
                msg = yield from host.recv()
                kind, bucket, payload = msg.payload
                if kind == "bucket_done":
                    done_count[bucket] += 1
                    if done_count[bucket] == D:
                        yield from complete_bucket(bucket)
                        n_finished += 1
                else:
                    partials[bucket].append(payload)

        procs = []
        for d in range(D):
            items = plan_groups(d)
            buf = Store(plat.sim, capacity=2, name=f"ra2.{d}")  # double buffer
            procs.append(plat.spawn(asu_reader(d, items, buf), name=f"r{d}"))
            procs.append(plat.spawn(asu_merge(d, buf, len(items)), name=f"m{d}"))
        procs += [plat.spawn(host_merge(h), name=f"hm{h}") for h in range(H)]
        report = plat.run(wait_for=procs, until=deadline)
        makespan = report.makespan
        if self.tracer is not None:
            self.tracer.span(0.0, makespan, "job", "pass2",
                             cat="phase", sid="pass2", parent="pass1")
            # Causal edge across the offset boundary: both endpoints land at
            # the stitched pass-1 makespan, linking the two phase spans.
            self.tracer.flow(0.0, "job", 0.0, "job", "pass1->pass2",
                             cat="phase")
        result = Pass2Result(
            makespan=makespan,
            host_util=report.host_util,
            asu_cpu_util=report.asu_cpu_util,
            n_partial_runs=n_partial,
            completed=all(p.triggered for p in procs),
            n_restored_buckets=len(merged_restored),
        )
        plat.close()
        return result

    # ------------------------------------------------------------------ checks
    def input_records(self) -> np.ndarray:
        return concat_records(list(self.asu_data), self.params.schema)

    def _output_runs(self) -> list[np.ndarray]:
        """The merged runs of the final output, buckets in splitter order."""
        if not hasattr(self, "final_buckets"):
            raise RuntimeError("run_pass2 first")
        return [
            run for bucket in sorted(self.final_buckets)
            for run in self.final_buckets[bucket]
        ]

    def collected_output(self) -> np.ndarray:
        """Final sorted output: buckets in splitter order, concatenated."""
        return concat_records(self._output_runs(), self.params.schema)

    def verify(self) -> None:
        """Assert the emulated sort really sorted the data.

        Sortedness and permutation are both decided on keys, so only the key
        columns of the input and of the output are gathered (1/32 of the
        paper's records), never a second copy of the records themselves.
        """
        runs = self._output_runs()  # raises before pass 2, before any gather
        check_sorted_permutation(_key_column(self.asu_data), _key_column(runs))
