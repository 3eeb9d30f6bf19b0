"""Chaos soak harness: seeded random fault schedules vs. end-to-end invariants.

The reliability claims of :mod:`repro.resilience` are only worth something if
they hold under *schedules nobody hand-picked*.  This harness sweeps seeded
:class:`~repro.faults.injector.RandomFaultModel` plans — message drop /
duplicate / delay / corruption windows, transient disk-read errors, CPU
degradation, and fail-stop crashes — across two applications on the reliable
transport:

* **DSM-Sort** run formation (crash recovery + reliable channel combined):
  the run must complete, and the final two-pass output must be a *sorted
  permutation* of the input — exact record count, zero duplicates, zero loss;
* **filter-scan** (:class:`~repro.apps.filterscan.FilterScanJob` on the
  reliable mesh): the filtered records reaching the host must be the exact
  multiset a direct evaluation produces, with breaker-open links degrading
  gracefully to host-side filtering.

Each case also checks **bounded retry amplification** (wire bytes over
payload bytes) so the protocol cannot pass by brute-force flooding.  A
**negative control** reruns DSM-Sort with retries disabled under forced drop
windows and must *lose* records — demonstrating the invariants are earned by
the retransmission layer, not vacuously true.

Everything is virtual-time deterministic: the same seeds produce a
byte-identical :class:`ChaosReport` JSON.  Run it via ``python -m repro
chaos`` (see ``docs/RESILIENCE.md``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from ..apps.filterscan import FilterScanJob
from ..bench.parallel import parallel_map
from ..bench.report import SCHEMA_VERSION, canonical_json, render_table, write_canonical_json
from ..core.config import DSMConfig
from ..dsmsort.runtime import DsmSortJob
from ..emulator.params import SystemParams
from ..faults.injector import (
    FaultPlan, RandomFaultModel, crash_asu, crash_host, degrade_asu,
    drop_msg, partition,
)
from ..recovery.checkpoint import RecoverableSort
from ..recovery.manifest import CheckpointError
from ..recovery.speculate import SpeculationPolicy
from ..recovery.supervisor import RestartBudget
from ..replica import ReplicationConfig
from ..sched import (
    JobState, OpenLoopWorkload, Scheduler, ServiceOracle, default_mix,
    default_tenants, estimate_capacity, serve_params, summarize_outcome,
)
from ..util.records import concat_records, sort_records
from ..util.rng import derive_seed
from .channel import RetryPolicy

__all__ = [
    "ChaosApp", "ChaosReport", "chaos_cell", "chaos_params", "cut_plan",
    "dsmsort_t0", "fence_counters", "list_chaos_apps", "partition_scenario",
    "reliable_job", "run_chaos", "sort_verified",
]


def chaos_params() -> SystemParams:
    """Small platform (2 hosts, 4 ASUs) calibrated so chaos runs stay fast."""
    return SystemParams(
        n_hosts=2,
        n_asus=4,
        cycles_per_compare=100.0,
        cycles_per_record=300.0,
        cycles_per_net_byte=1.5,
        cycles_per_io_byte=0.5,
        block_records=512,
    )


def _policy_for(t0: float, max_attempts: Optional[int] = None) -> RetryPolicy:
    """Retry policy scaled to the fault-free makespan ``t0``.

    The first timeout grace must exceed an ack round-trip (else fault-free
    runs retransmit spuriously) yet stay far below the run length (else a
    drop window stalls the whole pass); ``t0/50`` sits comfortably between.
    """
    return RetryPolicy(
        timeout=t0 / 50,
        backoff=2.0,
        max_backoff=t0 / 10,
        jitter=0.25,
        max_attempts=max_attempts,
        window=64,
    )


def _fault_plan(seed: int, t0: float, **device_faults) -> FaultPlan:
    """Per-seed chaos schedule: message/disk faults scaled to ``t0``, plus
    the app's own ``device_faults`` (crashes, degradations)."""
    model = RandomFaultModel(
        seed=seed,
        mtt_drop=1.5 * t0,
        mtt_dup=2.0 * t0,
        mtt_delay=2.0 * t0,
        mtt_corrupt=2.5 * t0,
        mtt_disk_fault=2.0 * t0,
        msg_fault_duration=t0 / 8,
        msg_delay=t0 / 50,
        disk_fault_duration=t0 / 10,
        **device_faults,
    )
    return model.plan(chaos_params(), horizon=0.8 * t0)


def _amplification(channel_stats: Optional[dict]) -> float:
    cs = channel_stats or {}
    payload = cs.get("payload_bytes", 0)
    if payload == 0:
        return 1.0
    return (payload + cs.get("retrans_bytes", 0)) / payload


# ---------------------------------------------------- shared scenario pieces
def chaos_cell(n_records: int) -> tuple[SystemParams, DSMConfig]:
    """The platform + DSM-Sort config every chaos app and soak sweep runs on."""
    return chaos_params(), DSMConfig.for_n(n_records, alpha=8, gamma=16)


def reliable_job(
    n_records: int, t0: float, faults: FaultPlan, seed: int = 0,
    max_attempts: Optional[int] = None, **layers,
) -> DsmSortJob:
    """DSM-Sort on the reliable stack, retries and heartbeats scaled to
    ``t0``; ``layers`` are further :class:`DsmSortJob` keywords on top."""
    params, cfg = chaos_cell(n_records)
    return DsmSortJob(
        params, cfg, policy="sr", seed=seed, faults=faults,
        transport="reliable", retry_policy=_policy_for(t0, max_attempts),
        heartbeat_interval=t0 / 40, heartbeat_timeout=t0 / 10, **layers,
    )


def sort_verified(job: DsmSortJob, deadline: Optional[float] = None):
    """Pass 1 (under ``deadline``), then pass 2 and ``verify()`` if it completed.

    Returns ``(pass-1 result, two-pass makespan, verified)``; ``verified``
    means sorted and the exact input multiset — no loss, no duplicates.
    """
    res = job.run_pass1(deadline=deadline)
    if not res.completed:
        return res, res.makespan, False
    makespan = res.makespan + job.run_pass2().makespan
    try:
        job.verify()
    except Exception:
        return res, makespan, False
    return res, makespan, True


def cut_plan(
    cut_asus: Sequence[int], cut_hosts: Sequence[int], start: float,
    duration: float, asymmetry: str, kill: bool,
) -> FaultPlan:
    """One network cut, optionally with a cut node fail-stopped mid-window.

    The kill is the split-brain acid test: the node dies while partitioned,
    so "crashed" and "unreachable" are indistinguishable until the heal.
    """
    faults = [partition(start, cut_asus, hosts=cut_hosts,
                        duration=duration, asymmetry=asymmetry)]
    if kill:
        t_kill = start + 0.4 * duration
        faults.append(crash_asu(t_kill, cut_asus[0]) if cut_asus
                      else crash_host(t_kill, cut_hosts[0]))
    return FaultPlan(faults)


def partition_scenario(n_records: int, t0: float, plan: FaultPlan, seed: int = 0):
    """The replicated sort (r=2, network-borne detection) under ``plan``.

    The one partition-tolerance scenario: the chaos app feeds it seeded
    cuts, ``repro partition`` a fixed grid, and an empty plan is that
    grid's reference.  Returns ``(job, pass-1 result, verified)``.
    """
    job = reliable_job(
        n_records, t0, plan, seed=seed, replication=ReplicationConfig(r=2),
        detection_mode="network",
    )
    res, _makespan, verified = sort_verified(job, deadline=20.0 * t0)
    return job, res, verified


def fence_counters(res) -> dict:
    """Membership / epoch-fencing evidence of one pass-1 result."""
    return {
        name: int(getattr(res, name))
        for name in ("n_epoch_rejections", "n_readmitted", "n_reconciled_runs",
                     "n_divergent_copies", "n_dup_frags_dropped", "view_epoch")
    }


def _case_record(
    app: str, seed: int, n_faults: int, fault_kinds: list[str],
    makespan_ratio: float, invariants: dict, channel_stats: Optional[dict] = None,
    n_breaker_trips: int = 0, **evidence,
) -> dict:
    """One chaos case: the fields every app reports, plus its own evidence."""
    cs = channel_stats or {}
    return {
        "app": app,
        "seed": seed,
        "n_faults": n_faults,
        "fault_kinds": fault_kinds,
        "makespan_ratio": makespan_ratio,
        "amplification": _amplification(cs),
        "n_retransmits": cs.get("n_retransmits", 0),
        "n_dup_dropped": cs.get("n_dup_dropped", 0),
        "n_corrupt_dropped": cs.get("n_corrupt_dropped", 0),
        "n_breaker_trips": n_breaker_trips,
        **evidence,
        "invariants": invariants,
        "ok": all(invariants.values()),
    }


# ------------------------------------------------------------------- cases
def _chaos_dsmsort(seed: int, n_records: int, t0: float, amp_bound: float) -> dict:
    """DSM-Sort run formation under seeded message/disk/crash chaos."""
    plan = _fault_plan(
        seed, t0, mttf_asu=8.0 * t0, mttf_host=16.0 * t0
    )
    job = reliable_job(n_records, t0, plan)
    res, _makespan, sorted_ok = sort_verified(job, deadline=12.0 * t0)
    invariants = {
        "completed": bool(res.completed),
        "sorted_permutation": sorted_ok,
        "exact_count": bool(res.completed and res.n_durable == n_records),
        "amplification_bounded": bool(_amplification(res.channel_stats) <= amp_bound),
    }
    return _case_record(
        "dsmsort", seed, len(plan), sorted(plan.kinds()), res.makespan / t0,
        invariants, res.channel_stats, res.n_breaker_trips,
        n_replayed_frags=res.n_replayed_frags,
        n_takeover_blocks=res.n_takeover_blocks,
    )


def _filterscan_job(n_records: int, policy: RetryPolicy, faults=None) -> FilterScanJob:
    """The chaos filter-scan: even keys, on the reliable mesh."""
    return FilterScanJob(
        chaos_params(), n_records, predicate=lambda b: b["key"] % 2 == 0,
        retry_policy=policy, faults=faults,
    )


def _chaos_filterscan(seed: int, n_records: int, t0: float, amp_bound: float) -> dict:
    """Active filter-scan on the reliable channel, degrading via breakers."""
    # no crashes: the scan has no replica recovery, so reliability must come
    # from the channel alone
    plan = _fault_plan(
        seed, t0, mtt_degrade=3.0 * t0, degrade_duration=t0 / 4,
    )
    job = _filterscan_job(n_records, _policy_for(t0), faults=plan)
    res, out = job.run(deadline=12.0 * t0)
    invariants = {
        "completed": bool(res.completed),
        "exact_multiset": bool(res.completed and np.array_equal(
            np.sort(out["key"]), np.sort(job.expected_output()["key"])
        )),
        "amplification_bounded": bool(
            _amplification(res.channel_stats) <= amp_bound
        ),
    }
    return _case_record(
        "filterscan", seed, len(plan), sorted(plan.kinds()),
        res.makespan / t0, invariants, res.channel_stats,
        res.n_breaker_trips, n_degraded_blocks=res.n_degraded_blocks,
    )


@functools.lru_cache(maxsize=None)
def _two_pass_reference(n_records: int) -> tuple[float, np.ndarray]:
    """Fault-free two-pass (makespan, output) on the direct transport.

    Cached per ``n``: it is the recovery and straggler apps' baseline, and
    every recovery seed checks byte-identity against the same output.
    """
    params, cfg = chaos_cell(n_records)
    job = DsmSortJob(params, cfg, policy="sr", seed=0, faults=FaultPlan())
    _res, makespan, verified = sort_verified(job)
    if not verified:
        raise RuntimeError("fault-free reference sort failed to verify")
    return makespan, job.collected_output()


def _two_pass_t0(n_records: int) -> float:
    return _two_pass_reference(n_records)[0]


def _chaos_recovery(seed: int, n_records: int, t0: float, amp_bound: float) -> dict:
    """Coordinator kill at a seeded instant, then checkpoint-restart.

    The invariant is the tentpole's proof of equivalence: whatever the kill
    instant, the supervised resume must complete and produce output
    *byte-identical* to the uninterrupted reference, with the manifest
    showing zero duplicate fragment coverage.
    """
    params, cfg = chaos_cell(n_records)
    _t0, reference = _two_pass_reference(n_records)
    rng = np.random.default_rng(derive_seed(seed, "chaos-recovery"))
    crash_at = float(rng.uniform(0.05, 0.95)) * t0
    sort = RecoverableSort(params, cfg, seed=0, policy="sr")
    rep = sort.run_supervised(
        crashes=[crash_at], budget=RestartBudget(max_restarts=3)
    )
    identical = no_dup = False
    if rep.completed:
        sort.verify()
        identical = bool(np.array_equal(reference, sort.output()))
        try:
            sort.manifest.check_no_duplicate_coverage()
            no_dup = True
        except CheckpointError:
            pass
    invariants = {
        "completed": bool(rep.completed),
        "byte_identical": identical,
        "no_duplicate_coverage": no_dup,
        "crash_observed": bool(rep.n_crashes >= 1) or crash_at >= t0,
    }
    return _case_record(
        "recovery", seed, 1, ["crash_coordinator"], rep.total_virtual_time / t0,
        invariants, crash_at_frac=crash_at / t0,
        n_attempts=rep.n_attempts, n_crashes=rep.n_crashes,
    )


def _chaos_straggler(seed: int, n_records: int, t0: float, amp_bound: float) -> dict:
    """A seeded heavy ASU degradation, raced with and without speculation.

    Invariants: both runs complete and verify (exactly-once despite hedged
    duplicate replicas), and speculation never makes the degraded schedule
    slower.  The makespan improvement is recorded for the report.
    """
    params, cfg = chaos_cell(n_records)
    rng = np.random.default_rng(derive_seed(seed, "chaos-straggler"))
    victim = int(rng.integers(0, params.n_asus))
    factor = float(rng.uniform(0.1, 0.3))
    start = float(rng.uniform(0.01, 0.1)) * t0
    plan = FaultPlan([degrade_asu(start, victim, duration=8.0 * t0, factor=factor)])

    policy = SpeculationPolicy(
        interval=t0 / 25, warmup=t0 / 10, max_hedges=params.n_asus, seed=seed
    )
    b1, mk_base, base_ok = sort_verified(
        DsmSortJob(params, cfg, policy="sr", seed=0, faults=plan)
    )
    s1, mk_spec, spec_ok = sort_verified(
        DsmSortJob(params, cfg, policy="sr", seed=0, faults=plan, speculation=policy)
    )
    invariants = {
        "completed": bool(b1.completed and s1.completed),
        # sorted + exact multiset: hedges added no duplicates
        "sorted_permutation": base_ok and spec_ok,
        "not_slower": bool(mk_spec <= mk_base * 1.001),
    }
    return _case_record(
        "straggler", seed, 1, ["degrade_asu"], mk_spec / t0, invariants,
        victim=victim, degrade_factor=factor,
        makespan_ratio_nospec=mk_base / t0,
        speedup=mk_base / mk_spec if mk_spec else 1.0,
        n_hedged_shards=s1.n_hedged_shards,
        n_hedge_wasted_frags=s1.n_hedge_wasted_frags,
    )


def _chaos_partition(seed: int, n_records: int, t0: float, amp_bound: float) -> dict:
    """Seeded network cut against the membership / epoch-fencing stack.

    Each seed draws one partition scenario — minority group (one or two
    ASUs), asymmetry mode, window length, and optionally a fail-stop kill of
    a cut node *while it is unreachable* — and runs the replicated sort
    (r=2) with the network-borne failure detector.  Invariants: the job
    completes, the output is a sorted permutation, and it is byte-identical
    to the fault-free reference — i.e. no split-brain double-writes leaked
    past the epoch fences and no records were lost to the cut.  Long cuts
    that silence heartbeats must actually disrupt (expulsion observed), so
    the fencing claims are non-vacuous.
    """
    params = chaos_params()
    rng = np.random.default_rng(derive_seed(seed, "chaos-partition"))
    n_cut = int(rng.integers(1, 3))
    cut = tuple(sorted(
        int(d) for d in rng.choice(params.n_asus, size=n_cut, replace=False)
    ))
    asymmetry = ("both", "out", "in")[int(rng.integers(0, 3))]
    long_cut = bool(rng.integers(0, 2))
    duration = (0.5 if long_cut else 0.08) * t0
    start = float(rng.uniform(0.15, 0.35)) * t0
    kill = bool(long_cut and n_cut == 1 and rng.integers(0, 2))
    plan = cut_plan(cut, (), start, duration, asymmetry, kill)
    job, res, sorted_ok = partition_scenario(n_records, t0, plan)
    identical = False
    if sorted_ok:
        ref = sort_records(concat_records(job.asu_data, params.schema))
        identical = bool(np.array_equal(job.collected_output(), ref))
    # "in" cuts never silence the minority's outbound heartbeats, so the
    # detector must stay quiet; "both"/"out" cuts longer than the detection
    # horizon must expel — and re-admit once heartbeats resume (unless the
    # node was killed mid-cut, in which case only the expulsion epoch shows)
    disruptive = long_cut and asymmetry in ("both", "out")
    invariants = {
        "completed": bool(res.completed),
        "sorted_permutation": sorted_ok,
        "byte_identical_no_split_brain": identical,
        # a cut legitimately amplifies: every pending into the severed route
        # retransmits (bounded by backoff) for the whole window, so the
        # partition app earns twice the flood allowance of the other apps
        "amplification_bounded": bool(
            _amplification(res.channel_stats) <= 2.0 * amp_bound
        ),
        "disruption_observed": bool(
            not disruptive
            or res.n_readmitted >= 1
            or (kill and res.view_epoch >= 2)
        ),
    }
    return _case_record(
        "partition", seed, len(plan), sorted(plan.kinds()), res.makespan / t0,
        invariants, res.channel_stats, res.n_breaker_trips,
        cut_asus=list(cut), asymmetry=asymmetry, duration_frac=duration / t0,
        killed_in_cut=kill, **fence_counters(res),
    )


#: fixed arrival-stream length for the scheduler chaos app: long enough to
#: force preemptions and restart-budget kills at 3x overload, short enough
#: that one case stays in the same cost band as the other apps
_SCHED_CHAOS_JOBS = 30
#: offered load as a multiple of measured fleet capacity — deep saturation,
#: so admission control, preemption and the restart budget all fire
_SCHED_CHAOS_OVERLOAD = 3.0


def _scheduler_t0(n_records: int) -> float:
    """Ideal drain time of the chaos arrival stream (offered work / capacity).

    The scheduler app has no fault-free twin — overload *is* the chaos — so
    the makespan ratio is normalised against the work-conserving lower bound
    instead.
    """
    capacity = estimate_capacity(serve_params(), default_mix(), ServiceOracle())
    return _SCHED_CHAOS_JOBS / capacity


def _scheduler_once(seed: int, rate: float) -> tuple:
    """One overloaded priority-preemption scheduler run; returns evidence."""
    arrivals = OpenLoopWorkload(
        rate, default_mix(), _SCHED_CHAOS_JOBS, seed=seed
    ).generate()
    sched = Scheduler(
        serve_params(),
        default_tenants(),
        "priority",
        oracle=ServiceOracle(),
        restart_budget=RestartBudget(max_restarts=1),
        preempt=True,
        policy_kwargs={"age_rate": 0.05},
    )
    outcome = sched.run(arrivals)
    cell = summarize_outcome(outcome, sched.tenants, rate)
    return sched, outcome, cell


def _chaos_scheduler(seed: int, n_records: int, t0: float, amp_bound: float) -> dict:
    """Multi-tenant scheduler at 3x overload: preemption + restart budget.

    The chaos here is *contention*, not injected faults: a seeded Poisson
    stream at triple the fleet's measured capacity drives strict-priority
    preemption, quota rejections and restart-budget kills simultaneously.
    Invariants: every admitted job reaches a terminal state (no job leaked
    mid-preemption), the queues and lease table drain to empty, the metrics
    counters agree exactly with the outcome, and a second run of the same
    seed reproduces the summary cell byte-for-byte.
    """
    rate = _SCHED_CHAOS_OVERLOAD * (_SCHED_CHAOS_JOBS / t0)
    sched, outcome, cell = _scheduler_once(seed, rate)
    jobs = outcome.jobs
    n_done = sum(1 for j in jobs if j.state == JobState.DONE)
    n_failed = sum(1 for j in jobs if j.state == JobState.FAILED)
    n_rejected = sum(1 for j in jobs if j.state == JobState.REJECTED)
    reg = sched.registry
    cell2 = _scheduler_once(seed, rate)[2]

    invariants = {
        "all_terminal": all(j.state in JobState.TERMINAL for j in jobs),
        "accounting_exact": n_done + n_failed + n_rejected == len(jobs),
        "queues_drained": not sched.queued and not sched.running,
        "leases_released": not sched._lease_of,
        "counters_consistent": (
            reg.counter("repro_sched_jobs_completed_total").value == n_done
            and reg.counter("repro_sched_jobs_failed_total").value == n_failed
            and reg.counter("repro_sched_jobs_rejected_total").value
            == outcome.n_rejected
            and reg.counter("repro_sched_preemptions_total").value
            == outcome.n_preempted
        ),
        # which contention lever fires (preemption, quota rejection, budget
        # kill) varies per seed; the case only proves itself non-vacuous if
        # at least one did
        "overload_exercised": bool(
            outcome.n_preempted + outcome.n_rejected + outcome.n_restarted > 0
        ),
        "deterministic_replay": canonical_json(cell) == canonical_json(cell2),
    }
    return _case_record(
        "scheduler", seed, int(outcome.n_preempted + outcome.n_failed),
        ["overload", "preempt", "restart_budget"], outcome.makespan / t0,
        invariants, n_jobs=len(jobs), n_done=n_done,
        n_rejected=int(outcome.n_rejected), n_preempted=int(outcome.n_preempted),
        n_restarted=int(outcome.n_restarted), n_failed=n_failed,
    )


def _run_negative_control(n_records: int, t0: float) -> dict:
    """Retries disabled + forced drop windows => records must be LOST.

    This is the control group proving the chaos invariants are earned by
    the retransmission layer: with ``max_attempts=1`` the same drop fault
    that the positive cases shrug off permanently loses fragments, so the
    pass cannot complete (the deadline converts the stall into a partial
    result).
    """
    params = chaos_params()
    plan = FaultPlan([
        drop_msg(0.3 * t0, h, d, 0.15 * t0)
        for h in range(params.n_hosts)
        for d in range(params.n_asus)
    ])
    res = reliable_job(n_records, t0, plan, max_attempts=1).run_pass1(
        deadline=4.0 * t0
    )
    lost = n_records - max(res.n_durable, 0)
    return {
        "completed": bool(res.completed),
        "n_total": n_records,
        "n_durable": int(max(res.n_durable, 0)),
        "lost_records": int(lost),
        # The control PASSES by FAILING: incomplete and demonstrably lossy.
        "ok": bool(not res.completed and lost > 0),
    }


# ------------------------------------------------------------------ report
@dataclass
class ChaosReport:
    """Outcome of one chaos soak sweep (JSON-stable, wall-clock free)."""

    n_records: int
    amp_bound: float
    apps: list[str]
    seeds: list[int]
    baselines: dict[str, float]
    cases: list[dict] = field(default_factory=list)
    negative_control: Optional[dict] = None
    schema_version: int = SCHEMA_VERSION

    def violations(self) -> list[str]:
        out = []
        for c in self.cases:
            for name in sorted(c["invariants"]):
                if not c["invariants"][name]:
                    out.append(f"{c['app']}/seed{c['seed']}: {name}")
        nc = self.negative_control
        if nc is not None and not nc["ok"]:
            out.append(
                "negative_control: retries-disabled run lost no records "
                "(the invariant suite would be vacuous)"
            )
        return out

    @property
    def ok(self) -> bool:
        return not self.violations()

    def as_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "n_records": self.n_records,
            "amp_bound": self.amp_bound,
            "apps": list(self.apps),
            "seeds": list(self.seeds),
            "baselines": dict(self.baselines),
            "cases": self.cases,
            "negative_control": self.negative_control,
            "ok": self.ok,
            "violations": self.violations(),
        }

    def to_json(self) -> str:
        """Canonical JSON: two identical sweeps are byte-identical."""
        return canonical_json(self.as_dict())

    def write(self, path: str) -> None:
        write_canonical_json(path, self.as_dict())

    def render(self) -> str:
        rows = []
        for c in self.cases:
            rows.append([
                c["app"], c["seed"], c["n_faults"],
                f"{c['makespan_ratio']:.2f}", f"{c['amplification']:.3f}",
                c["n_retransmits"], c["n_breaker_trips"],
                "ok" if c["ok"] else "FAIL",
            ])
        table = render_table(
            ["app", "seed", "faults", "T/T0", "amp", "retx", "trips", "result"],
            rows,
            title=f"chaos soak, N={self.n_records}, "
            f"{len(self.seeds)} seeds x {len(self.apps)} apps",
        )
        lines = [table]
        nc = self.negative_control
        if nc is not None:
            lines.append(
                f"negative control (retries disabled): lost "
                f"{nc['lost_records']}/{nc['n_total']} records, "
                f"completed={nc['completed']} -> "
                f"{'ok' if nc['ok'] else 'FAIL'}"
            )
        v = self.violations()
        lines.append(
            "PASS: all invariants held" if not v
            else "FAIL: " + "; ".join(v)
        )
        return "\n".join(lines)


# ------------------------------------------------------------------- sweep
def dsmsort_t0(n_records: int) -> float:
    """Fault-free reliable-transport baseline makespan for DSM-Sort."""
    params, cfg = chaos_cell(n_records)
    # Provisional direct-transport run sizes the retry policy; the real
    # baseline then runs the same reliable stack the chaos cases use.
    provisional = DsmSortJob(
        params, cfg, policy="sr", seed=0, faults=FaultPlan()
    ).run_pass1().makespan
    return reliable_job(n_records, provisional, FaultPlan()).run_pass1().makespan


def _filterscan_t0(n_records: int) -> float:
    """Fault-free reliable-transport baseline makespan for filter-scan."""
    provisional = _filterscan_job(n_records, RetryPolicy()).run()[0].makespan
    return _filterscan_job(n_records, _policy_for(provisional)).run()[0].makespan


@dataclass(frozen=True)
class ChaosApp:
    """One chaos app: ``baseline(n_records)`` gives its fault-free T0;
    ``case(seed, n_records, t0, amp_bound)`` returns a :func:`_case_record`
    (the first line of its docstring is the ``--list-apps`` summary)."""

    name: str
    baseline: Callable[[int], float]
    case: Callable[[int, int, float, float], dict]


_APPS = {
    app.name: app
    for app in (
        ChaosApp("dsmsort", dsmsort_t0, _chaos_dsmsort),
        ChaosApp("filterscan", _filterscan_t0, _chaos_filterscan),
        ChaosApp("recovery", _two_pass_t0, _chaos_recovery),
        ChaosApp("straggler", _two_pass_t0, _chaos_straggler),
        ChaosApp("scheduler", _scheduler_t0, _chaos_scheduler),
        # the partition app runs the same reliable-transport sort, so it
        # shares the dsmsort fault-free baseline
        ChaosApp("partition", dsmsort_t0, _chaos_partition),
    )
}


def list_chaos_apps() -> list[tuple[str, str]]:
    """Registered chaos apps with one-line summaries (for ``--list-apps``)."""
    return [
        (name, _APPS[name].case.__doc__.strip().splitlines()[0].strip())
        for name in sorted(_APPS)
    ]


def _chaos_case(task: tuple) -> dict:
    """One (app, seed) chaos case — module-level so it pickles to workers."""
    app, seed, n_records, baseline, amp_bound = task
    return _APPS[app].case(seed, n_records, baseline, amp_bound)


def run_chaos(
    seeds: Union[int, Sequence[int]] = 12,
    apps: Sequence[str] = ("dsmsort", "filterscan"),
    n_records: int = 1 << 13,
    amp_bound: float = 3.5,
    negative_control: bool = True,
    seed0: int = 0,
    progress: Optional[Callable[[str], None]] = None,
    workers: Optional[int] = None,
) -> ChaosReport:
    """Sweep seeded fault schedules across the apps; return the report.

    ``seeds`` is a count (seeds ``seed0 .. seed0 + seeds - 1``) or an
    explicit sequence.  Deterministic: identical arguments produce a
    byte-identical :meth:`ChaosReport.to_json`.

    Each (seed, app) case is an independent emulation, so the sweep fans
    out across ``workers`` processes (default: ``REPRO_BENCH_WORKERS`` or
    the CPU count); results merge in sweep order, so the report is
    byte-identical whatever the worker count.
    """
    seed_list = (
        list(range(seed0, seed0 + seeds)) if isinstance(seeds, int) else list(seeds)
    )
    for app in apps:
        if app not in _APPS:
            raise ValueError(
                f"unknown chaos app {app!r}; expected one of {sorted(_APPS)}"
            )
    say = progress if progress is not None else (lambda _msg: None)
    baselines = {}
    for app in apps:
        baselines[app] = _APPS[app].baseline(n_records)
        say(f"baseline {app}: T0={baselines[app]:.4f}s")
    report = ChaosReport(
        n_records=int(n_records),
        amp_bound=float(amp_bound),
        apps=list(apps),
        seeds=seed_list,
        baselines=baselines,
    )
    tasks = [
        (app, seed, n_records, baselines[app], amp_bound)
        for seed in seed_list
        for app in apps
    ]
    for case in parallel_map(_chaos_case, tasks, workers=workers):
        report.cases.append(case)
        say(
            f"{case['app']} seed={case['seed']}: {case['n_faults']} faults, "
            f"T/T0={case['makespan_ratio']:.2f}, "
            f"{'ok' if case['ok'] else 'VIOLATION'}"
        )
    if negative_control and "dsmsort" in apps:
        report.negative_control = _run_negative_control(
            n_records, baselines["dsmsort"]
        )
        say(
            f"negative control: lost "
            f"{report.negative_control['lost_records']} records "
            f"({'ok' if report.negative_control['ok'] else 'FAIL'})"
        )
    return report
