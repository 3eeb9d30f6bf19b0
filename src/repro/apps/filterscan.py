"""Active filtering and aggregation at the storage (§2).

"Filtering and aggregation operations performed directly at the ASUs can
reduce data movement across the interconnect, helping to overcome bandwidth
limitations" — the canonical active-disk workload the paper builds on
[1, 19, 26].  A :class:`FilterScanJob` scans records resident on the ASUs
through a :class:`~repro.functors.basic.FilterFunctor`, either at the storage
(active) or at the host (passive), and reports makespan plus interconnect
traffic.  The filter really runs: the surviving records are returned and
checked against a direct evaluation.

Blocks move through the transport seam (:mod:`repro.dsmsort.transport`): the
paper's lossless network, or — given a ``retry_policy`` — the reliable mesh,
where a link whose circuit breaker is open gets its blocks raw and the host
filters them (correct, but without the interconnect savings).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..dsmsort.transport import DirectTransport
from ..emulator.params import SystemParams
from ..emulator.platform import ActivePlatform
from ..faults.injector import Injector
from ..functors.basic import FilterFunctor
from ..resilience.transport import ReliableTransport
from ..util.distributions import make_workload
from ..util.records import concat_records
from ..util.rng import RngRegistry

__all__ = ["FilterScanJob", "FilterScanResult"]


@dataclass
class FilterScanResult:
    makespan: float
    net_bytes: int
    n_selected: int
    host_util: float
    asu_cpu_util: list[float]
    #: False when the ``deadline`` cut the scan short
    completed: bool = True
    #: active blocks shipped raw because their link's breaker was open
    n_degraded_blocks: int = 0
    #: summed reliable-endpoint counters (``None`` on the direct network)
    channel_stats: Optional[dict] = None
    n_breaker_trips: int = 0


class FilterScanJob:
    """Scan + filter over ASU-resident records.

    ``retry_policy`` selects the reliable mesh (``None``: the lossless
    network); ``faults`` is a :class:`~repro.faults.injector.FaultPlan` armed
    on every run.
    """

    def __init__(
        self,
        params: SystemParams,
        n_records: int,
        predicate: Callable[[np.ndarray], np.ndarray],
        workload: str = "uniform",
        seed: int = 0,
        retry_policy=None,
        faults=None,
    ):
        self.params = params
        self.n_records = int(n_records)
        self.functor = FilterFunctor(predicate, compares=1.0)
        self.seed = int(seed)
        self.retry_policy = retry_policy
        self.faults = faults
        rngs = RngRegistry(seed)
        per_asu = self.n_records // params.n_asus
        self.asu_data = [
            make_workload(rngs.get(f"w.{d}"), per_asu, workload, params.schema)
            for d in range(params.n_asus)
        ]

    def expected_output(self) -> np.ndarray:
        """Direct evaluation of the filter (for verification)."""
        kept = [self.functor.apply(b)[0] for b in self.asu_data]
        return concat_records(kept, self.params.schema)

    def run(
        self, active: bool = True, deadline: Optional[float] = None
    ) -> tuple[FilterScanResult, np.ndarray]:
        """Emulate the scan; returns (stats, records that reached the host).

        ``deadline`` caps the virtual clock: a scan still running then comes
        back with ``completed=False`` and whatever reached the host.
        """
        plat = ActivePlatform(self.params)
        if self.retry_policy is None:
            net = DirectTransport(plat)
        else:
            net = ReliableTransport(plat, self.retry_policy, self.seed)
        if self.faults is not None:
            Injector(plat, self.faults).arm()
        host = plat.hosts[0]
        hid = host.node_id
        blk = self.params.block_records
        rs = self.params.schema.record_size
        filter_records = lambda b: self.functor.apply(b)[0]
        collected: list[np.ndarray] = []
        n_degraded = 0

        def producer(d):
            nonlocal n_degraded
            asu = plat.asus[d]
            data = self.asu_data[d]
            blocks = [data[s : s + blk] for s in range(0, data.shape[0], blk)]
            reads = net.reader(asu, [b.shape[0] * rs for b in blocks])
            n_sent = 0
            for block in blocks:
                nbytes = block.shape[0] * rs
                yield from reads.arrive()
                yield from reads.fetch(nbytes)
                if not active:
                    # Passive storage: the raw block, no ASU CPU at all.
                    net.post(asu.node_id, hid, ("raw", block), nbytes, "raw")
                    n_sent += 1
                    continue
                staging = nbytes * self.params.cycles_per_io_byte
                if net.healthy(asu.node_id, hid):
                    kept = yield from asu.compute(
                        cycles=staging
                        + self.functor.cost_cycles(block.shape[0], self.params),
                        fn=filter_records,
                        args=(block,),
                    )
                    if kept.shape[0]:
                        yield from net.send(
                            asu, hid, ("data", kept), kept.shape[0] * rs, "data"
                        )
                        n_sent += 1
                else:
                    # Breaker open: this link is flapping.  Ship raw and let
                    # the host filter — degraded but correct.
                    n_degraded += 1
                    if staging:
                        yield from asu.cpu.execute(cycles=staging)
                    yield from net.send(asu, hid, ("raw", block), nbytes, "raw")
                    n_sent += 1
            # The EOF carries the data-message count: a retransmitted block
            # can arrive after its producer's EOF.
            if active:
                yield from net.send(asu, hid, ("eof", n_sent), 16, "eof")
            else:
                net.post(asu.node_id, hid, ("eof", n_sent), 16, "eof")

        def sink():
            n_eof = n_expected = n_got = 0
            while n_eof < len(plat.asus) or n_got < n_expected:
                msg = yield from net.recv(host)
                kind, payload = msg.payload
                if kind == "eof":
                    n_eof += 1
                    n_expected += payload
                    continue
                n_got += 1
                if kind == "raw":
                    payload = yield from host.compute(
                        cycles=self.functor.cost_cycles(payload.shape[0], self.params),
                        fn=filter_records,
                        args=(payload,),
                    )
                if payload.shape[0]:
                    collected.append(payload)

        procs = [
            plat.spawn(producer(d), name=f"scan{d}", node=asu)
            for d, asu in enumerate(plat.asus)
        ]
        procs.append(plat.spawn(sink(), name="sink", node=host))
        rep = plat.run(wait_for=procs, until=deadline)

        out = concat_records(collected, self.params.schema)
        stats = FilterScanResult(
            makespan=rep.makespan,
            net_bytes=rep.net_bytes,
            n_selected=int(out.shape[0]),
            host_util=rep.host_util[0],
            asu_cpu_util=rep.asu_cpu_util,
            completed=all(p.triggered for p in procs),
            n_degraded_blocks=n_degraded,
            **net.counters(),
        )
        return stats, out

    def verify(self, out: np.ndarray) -> None:
        expect = self.expected_output()
        got = np.sort(out["key"])
        want = np.sort(expect["key"])
        if not np.array_equal(got, want):
            raise AssertionError("filtered output does not match direct evaluation")
