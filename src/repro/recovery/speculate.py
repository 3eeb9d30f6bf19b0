"""Straggler speculation: hedge slow replicas, steer routing around them.

"Dynamic changes in load at different points of the system can cause
imbalances" (§3.3) — and the worst imbalance is a *straggler*: one ASU or
host running far below its peers (a degraded clock, a competing tenant)
while the job's completion waits on it.  The :class:`Speculator` is an
unbound monitor process that watches per-replica progress **through the
metrics registry** (the same ``repro_stage_records`` rate instruments the
observability layer exports — no side channel) and reacts two ways:

* a lagging *ASU producer* gets its shard **hedged**: a duplicate
  distribute replica is spawned on the fastest alive peer (the shard is
  mirrored there), racing the original block-by-block.  First finisher
  wins each (block, bucket) fragment — the runtime's atomic ship markers
  dedup the loser, and every skipped fragment is compared byte for byte
  against the piece the winner shipped (the marker retains it), so a hedge
  can never smuggle in divergent data;
* a lagging *host sorter* is flagged to the
  :class:`~repro.core.load_manager.LoadManager` as a soft steer-around
  (:meth:`mark_speculative`): new fragments prefer its peers until it
  catches back up, at which point the flag is cleared.

The laggard test is median-relative with a seeded jitter so sweeps are
reproducible: replica ``i`` is slow iff its average rate falls below
``RATIO * quantile(peer rates, QUANTILE) * (1 + JITTER * u)`` with ``u``
drawn from the policy's own RNG stream.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..util.rng import derive_seed

__all__ = ["SpeculationPolicy", "Speculator", "StragglerSignal", "laggard_threshold"]

#: peer-rate quantile the laggard threshold is anchored to
QUANTILE = 0.5
#: a replica is slow below ``RATIO`` × that quantile
RATIO = 0.55
#: ± relative jitter applied to the threshold (seeded, reproducible)
JITTER = 0.05
#: don't hedge a shard with fewer unfinished blocks than this — the
#: duplicate would finish after the original anyway
MIN_REMAINING_BLOCKS = 2
#: at most this many hedge replicas per shard
MAX_HEDGES_PER_SHARD = 1


@dataclass(frozen=True)
class SpeculationPolicy:
    """Knobs for the straggler monitor (all times are virtual seconds)."""

    #: sampling period of the monitor process
    interval: float = 0.05
    #: no decisions before this instant (rates need history to mean anything)
    warmup: float = 0.1
    #: global hedge budget for the whole pass
    max_hedges: int = 4
    #: RNG stream seed for the threshold jitter
    seed: int = 0

    def __post_init__(self):
        if self.interval <= 0:
            raise ValueError("interval must be positive")


def laggard_threshold(rates, rng) -> float:
    """The rate below which a replica counts as a straggler.

    Shared by the DSM-Sort :class:`Speculator` and the pipeline executor's
    straggler watch, so "slow" means the same thing job-wide: ``RATIO`` ×
    the ``QUANTILE``-th peer rate, jittered by a seeded draw from ``rng``.
    """
    anchor = float(np.quantile(np.asarray(list(rates), dtype=float), QUANTILE))
    u = float(rng.uniform(-1.0, 1.0))
    return RATIO * anchor * (1.0 + JITTER * u)


@dataclass
class StragglerSignal:
    """One monitor decision, for reports and tests."""

    t: float
    #: "asu" or "host"
    kind: str
    #: index of the replica the decision is about
    index: int
    #: its observed average rate (records/s since t=0)
    rate: float
    #: the threshold it was compared against
    threshold: float
    #: "hedge" (duplicate replica spawned), "steer" (routing flag set),
    #: or "clear" (routing flag lifted)
    action: str
    shard: Optional[int] = None
    helper: Optional[int] = None


class Speculator:
    """Monitor + hedging policy for one fault-tolerant pass-1 run.

    Attached by :class:`~repro.dsmsort.DsmSortJob` when constructed with
    ``speculation=SpeculationPolicy(...)``; requires a metrics registry
    (the job creates one if the caller didn't) because the registry's rate
    instruments ARE the progress signal.
    """

    def __init__(self, job, policy: SpeculationPolicy):
        if job.metrics is None:
            raise ValueError("speculation requires a metrics registry")
        self.job = weakref.proxy(job)  # the job owns its speculator
        self.policy = policy
        self.rng = np.random.default_rng(derive_seed(policy.seed, "speculate"))
        #: every decision, in firing order
        self.signals: list[StragglerSignal] = []
        #: hedge replicas spawned (shard -> count)
        self.hedged: dict[int, int] = {}
        self.n_hedges = 0
        self._steered: set[int] = set()
        self._plat = None

    def attach(self, plat) -> None:
        """Spawn the monitor on ``plat`` (unbound: it is coordinator logic)."""
        self._plat = plat
        plat.spawn(self._monitor(plat), name="speculator")

    # -- monitor loop -------------------------------------------------------
    def _monitor(self, plat):
        pol = self.policy
        while True:
            yield plat.sim.timeout(pol.interval)
            now = plat.sim.now
            if now < pol.warmup:
                continue
            self._check_producers(plat, now)
            self._check_hosts(plat, now)

    def _avg_rate(self, now: float, node: str, stage: str) -> float:
        # The runtime marks "repro_stage_records" with (node, stage) labels
        # (owner= is export metadata, not part of the instrument key), plus
        # a job=<id> label when the job runs namespaced under the scheduler.
        labels = getattr(self.job, "_job_labels", {})
        inst = self.job.metrics.get(
            "repro_stage_records", node=node, stage=stage, **labels
        )
        total = float(inst.total) if inst is not None else 0.0
        return total / now if now > 0 else 0.0

    # -- ASU producers: hedge ------------------------------------------------
    def _shard_blocks(self, shard: int) -> int:
        blk = self.job.params.block_records
        n = int(self.job.asu_data[shard].shape[0])
        return (n + blk - 1) // blk

    def _check_producers(self, plat, now: float) -> None:
        job, pol = self.job, self.policy
        active: list[tuple[int, int, float]] = []  # (shard, owner, rate)
        for shard, owner in sorted(job._shard_owner.items()):
            if shard in job._eof_posted or owner in job._dead_asus:
                continue
            active.append((shard, owner, self._avg_rate(now, f"asu{owner}", "distribute")))
        if len(active) < 2 or self.n_hedges >= pol.max_hedges:
            return
        thr = laggard_threshold([r for _s, _o, r in active], self.rng)
        for shard, owner, rate in active:
            if rate >= thr:
                continue
            if self.hedged.get(shard, 0) >= MAX_HEDGES_PER_SHARD:
                continue
            remaining = self._shard_blocks(shard) - sum(
                1 for (s, _b) in job._blocks_complete if s == shard
            )
            if remaining < MIN_REMAINING_BLOCKS:
                continue
            helper = self._pick_helper(now, owner)
            if helper is None:
                continue
            self._hedge(plat, now, shard, owner, helper, rate, thr)
            if self.n_hedges >= pol.max_hedges:
                return

    def _pick_helper(self, now: float, owner: int) -> Optional[int]:
        """Fastest alive ASU that isn't the laggard (ties -> lowest index)."""
        job = self.job
        best, best_rate = None, -1.0
        for d in range(job.params.n_asus):
            if d == owner or d in job._dead_asus:
                continue
            r = self._avg_rate(now, f"asu{d}", "distribute")
            if r > best_rate:
                best, best_rate = d, r
        return best

    def _hedge(self, plat, now, shard, owner, helper, rate, thr) -> None:
        job = self.job
        blk = job.params.block_records
        rs = job.params.schema.record_size
        plat.spawn(
            job._produce_shard_ft(plat, helper, shard, blk, rs),
            name=f"hedge{shard}", node=plat.asus[helper],
        )
        self.hedged[shard] = self.hedged.get(shard, 0) + 1
        self.n_hedges += 1
        job._n_hedged_shards += 1
        self.signals.append(
            StragglerSignal(
                t=now, kind="asu", index=owner, rate=rate, threshold=thr,
                action="hedge", shard=shard, helper=helper,
            )
        )
        job.metrics.counter(
            "repro_speculation_hedges_total", **getattr(job, "_job_labels", {})
        ).inc()
        tracer = plat.sim.tracer
        if tracer is not None:
            tracer.instant(
                now, "faults",
                f"hedge shard{shard} (asu{owner} -> asu{helper})", cat="fault",
            )

    # -- host sorters: steer -------------------------------------------------
    def _check_hosts(self, plat, now: float) -> None:
        job = self.job
        lm = job.load_manager
        rates: list[tuple[int, float]] = []
        for h in range(job.params.n_hosts):
            if h in job._dead_hosts:
                continue
            rates.append((h, self._avg_rate(now, f"host{h}", "sort")))
        if len(rates) < 2:
            return
        thr = laggard_threshold([r for _h, r in rates], self.rng)
        for h, rate in rates:
            if rate < thr and h not in self._steered:
                self._steered.add(h)
                lm.mark_speculative(h)
                self.signals.append(
                    StragglerSignal(
                        t=now, kind="host", index=h, rate=rate,
                        threshold=thr, action="steer",
                    )
                )
            elif rate >= thr and h in self._steered:
                self._steered.discard(h)
                lm.clear_speculative(h)
                self.signals.append(
                    StragglerSignal(
                        t=now, kind="host", index=h, rate=rate,
                        threshold=thr, action="clear",
                    )
                )
