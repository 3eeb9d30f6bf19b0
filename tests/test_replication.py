"""r-way run replication (repro.replica) wired through the FT DSM-Sort.

Covers the tentpole acceptance scenarios: promotion-based takeover (an ASU
kill at any instant completes with zero fragment replay AND zero run
re-emission when r >= 2, byte-identical to the uninterrupted reference),
the r=1 re-emission fallback, write policies, media-loss repair, the
checkpoint integration, the typed UnrecoverableJobError dead ends, and the
placement walk behind every target pick (its draw count, pinned exactly).
"""

from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import DSMConfig
from repro.dsmsort import DsmSortJob
from repro.emulator.params import SystemParams
from repro.faults import (
    FaultPlan,
    UnrecoverableJobError,
    crash_asu,
    crash_host,
    lose_replica,
)
from repro.recovery.checkpoint import RecoverableSort
from repro.recovery.supervisor import JobSupervisor, RestartBudget
from repro.replica import (
    ReplicaPlacement,
    ReplicaSet,
    ReplicationConfig,
    ReplicationManager,
)

from .test_ledger_counters import CELLS
from .test_replica_placement import scalar_walk

N = 1 << 13
HB = dict(heartbeat_interval=0.002, heartbeat_timeout=0.008)


def small_params(**over):
    base = dict(n_hosts=2, n_asus=4)
    base.update(over)
    return SystemParams(**base)


def make_job(faults, replication, **over):
    params = over.pop("params", small_params())
    cfg = DSMConfig.for_n(N, alpha=8, gamma=16)
    defaults = dict(policy="sr", seed=3, faults=faults,
                    replication=replication, **HB)
    defaults.update(over)
    return DsmSortJob(params, cfg, **defaults)


def sort_once(faults, replication, **over):
    job = make_job(faults, replication, **over)
    r1 = job.run_pass1()
    job.run_pass2()
    job.verify()
    return job, r1, job.collected_output()


@pytest.fixture(scope="module")
def reference():
    """Uninterrupted replicated run: t0 + output bytes (shared per module)."""
    _job, r1, out = sort_once(FaultPlan([]), ReplicationConfig(r=2))
    return r1.makespan, out


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="replication factor"):
            ReplicationConfig(r=0)
        with pytest.raises(ValueError, match="repair_interval"):
            ReplicationConfig(repair_interval=0)
        with pytest.raises(ValueError, match="repair_bandwidth"):
            ReplicationConfig(repair_bandwidth=-1.0)

    def test_job_gates(self):
        with pytest.raises(ValueError, match="exceeds the fleet"):
            make_job(FaultPlan([]), ReplicationConfig(r=5))
        with pytest.raises(ValueError, match="no\\s+replication layer"):
            make_job(FaultPlan([lose_replica(0.01, 0)]), None)

    def test_replication_without_a_plan_is_the_empty_plan(self):
        derived = make_job(None, ReplicationConfig(r=2))
        explicit = make_job(FaultPlan([]), ReplicationConfig(r=2))
        assert derived.faults is not None and not derived.faults.kinds()
        a, b = vars(derived.run_pass1()), vars(explicit.run_pass1())
        a.pop("fault_report"), b.pop("fault_report")
        assert a == b

    def test_replication_off_is_bitwise_legacy(self):
        """replication=None perturbs nothing on the FT path."""
        _j1, r1a, out_a = sort_once(FaultPlan([]), None)
        _j2, r1b, out_b = sort_once(FaultPlan([]), ReplicationConfig(r=1))
        assert out_a.tobytes() == out_b.tobytes()
        # r=1 writes each run once, so run counts match the legacy path.
        assert r1a.n_runs == r1b.n_runs


class TestPromotionTakeover:
    def test_fault_free_run_counts(self, reference):
        _job, r1, out = sort_once(FaultPlan([]), ReplicationConfig(r=2))
        _job1, r11, _ = sort_once(FaultPlan([]), ReplicationConfig(r=1))
        # r=2 stores every run twice.
        assert r1.n_runs == 2 * r11.n_runs
        assert out.tobytes() == reference[1].tobytes()

    @pytest.mark.parametrize("asu", [0, 1, 2, 3])
    def test_asu_kill_zero_replay(self, asu, reference):
        t0, ref_out = reference
        plan = FaultPlan([crash_asu(0.8 * t0, asu)])
        _job, r1, out = sort_once(plan, ReplicationConfig(r=2))
        assert r1.completed
        assert r1.n_replayed_frags == 0
        assert r1.n_reemitted_runs == 0
        assert r1.n_promoted_runs > 0
        assert out.tobytes() == ref_out.tobytes()

    def test_kill_sweep_any_instant(self, reference):
        """Kills across the whole pass: always zero re-emission at r=2."""
        t0, ref_out = reference
        for frac in (0.2, 0.5, 0.7, 0.95):
            plan = FaultPlan([crash_asu(frac * t0, 1)])
            _job, r1, out = sort_once(plan, ReplicationConfig(r=2))
            assert r1.completed and r1.n_reemitted_runs == 0, frac
            assert out.tobytes() == ref_out.tobytes(), frac

    def test_r1_fallback_reemits(self, reference):
        # r=1 finishes pass 1 earlier than the r=2 reference, so the kill
        # must be timed against its *own* fault-free makespan.
        _jr, ref1, _ = sort_once(FaultPlan([]), ReplicationConfig(r=1))
        ref_out = reference[1]
        plan = FaultPlan([crash_asu(0.8 * ref1.makespan, 1)])
        _job, r1, out = sort_once(plan, ReplicationConfig(r=1))
        assert r1.n_reemitted_runs > 0
        assert r1.n_promoted_runs == 0
        assert out.tobytes() == ref_out.tobytes()

    def test_double_kill_r3(self, reference):
        t0, ref_out = reference
        plan = FaultPlan([crash_asu(0.7 * t0, 0), crash_asu(0.85 * t0, 2)])
        _job, r1, out = sort_once(plan, ReplicationConfig(r=3))
        assert r1.completed and r1.n_reemitted_runs == 0
        assert out.tobytes() == ref_out.tobytes()

    def test_host_kill_still_replays_frags(self, reference):
        """Host death is lineage-replay territory; replication is ASU-side."""
        t0, ref_out = reference
        plan = FaultPlan([crash_host(0.5 * t0, 0)])
        _job, r1, out = sort_once(plan, ReplicationConfig(r=2))
        assert r1.completed and r1.n_replayed_frags > 0
        assert out.tobytes() == ref_out.tobytes()


class TestMediaLossRepair:
    def test_lose_replica_absorbed(self, reference):
        t0, ref_out = reference
        cfg = ReplicationConfig(r=2, repair_interval=0.002)
        plan = FaultPlan([lose_replica(0.8 * t0, 2)])
        _job, r1, out = sort_once(plan, cfg)
        assert r1.completed
        # The node stayed alive, so nothing was re-emitted or taken over.
        assert r1.n_reemitted_runs == 0 and r1.n_takeover_blocks == 0
        assert out.tobytes() == ref_out.tobytes()

    def test_repair_loop_restores_redundancy(self, reference):
        t0, _ = reference
        cfg = ReplicationConfig(r=2, repair_interval=0.002)
        plan = FaultPlan([crash_asu(0.8 * t0, 1)])
        job, r1, _out = sort_once(plan, cfg)
        assert r1.n_repaired_copies > 0
        mgr = job._runs.mgr
        # Every repaired set's copies avoid the dead ASU.
        for st in mgr.sets.values():
            assert 1 not in st.copies

    def test_underreplication_gauge(self):
        from repro.metrics import MetricsRegistry

        reg = MetricsRegistry()
        mgr = ReplicationManager(ReplicationConfig(r=2), 4, registry=reg)
        run = np.zeros(10, dtype=np.int64)
        key, targets = mgr.register_emit(0, 0, run)
        assert len(targets) == 2
        under = reg.gauge("repro_replica_underreplicated")
        assert under.sample(0.0) == 0.0  # targets in flight count as planned
        delta, fresh = mgr.copy_durable(key, targets[0])
        assert fresh and delta == 0  # a run counts once both copies land
        delta, fresh = mgr.copy_durable(key, targets[1])
        assert fresh and delta == 10
        assert mgr.copy_durable(key, targets[1]) == (0, False)  # dup copy
        # Crash one holder: promotion (still counted), now under-replicated.
        assert mgr.on_asu_crash(targets[0]) == 0
        assert mgr.n_promoted_runs == 1
        assert under.sample(1.0) == 1.0


class TestCheckpointIntegration:
    def test_supervised_crash_with_replication(self, reference):
        rs = RecoverableSort(
            small_params(), DSMConfig.for_n(N, alpha=8, gamma=16), seed=3,
            base_faults=FaultPlan([crash_asu(0.018, 1)]),
            job_kwargs=dict(replication=ReplicationConfig(r=2), **HB),
        )
        rep = rs.run_supervised(
            crashes=[0.03], budget=RestartBudget(max_restarts=3)
        )
        assert rep.completed
        rs.job.verify()
        assert rs.output().tobytes() == reference[1].tobytes()


class TestUnrecoverableAbort:
    """Satellite: fleet-gone dead ends abort cleanly instead of crashing."""

    def test_error_is_runtime_error_subclass(self):
        # Existing `except RuntimeError` guards must keep catching it.
        assert issubclass(UnrecoverableJobError, RuntimeError)

    def test_all_asus_dead_aborts_cleanly(self):
        rs = RecoverableSort(
            small_params(), DSMConfig.for_n(N, alpha=8, gamma=16), seed=3,
            base_faults=FaultPlan(
                [crash_asu(0.004 + 0.001 * d, d) for d in range(4)]
            ),
            job_kwargs=dict(**HB),
        )
        sup = JobSupervisor(rs, RestartBudget(max_restarts=2))
        rep = sup.run()
        assert rep.aborted and not rep.completed
        assert rep.reason.startswith("unrecoverable:")

    def test_all_asus_dead_aborts_with_replication(self):
        rs = RecoverableSort(
            small_params(), DSMConfig.for_n(N, alpha=8, gamma=16), seed=3,
            base_faults=FaultPlan(
                [crash_asu(0.004 + 0.001 * d, d) for d in range(4)]
            ),
            job_kwargs=dict(replication=ReplicationConfig(r=2), **HB),
        )
        sup = JobSupervisor(rs, RestartBudget(max_restarts=2))
        rep = sup.run()
        assert rep.aborted and rep.reason.startswith("unrecoverable:")

    def test_supervisor_counts_unrecoverable(self):
        from repro.metrics import MetricsRegistry

        reg = MetricsRegistry()
        rs = RecoverableSort(
            small_params(), DSMConfig.for_n(N, alpha=8, gamma=16), seed=3,
            base_faults=FaultPlan(
                [crash_asu(0.004 + 0.001 * d, d) for d in range(4)]
            ),
            job_kwargs=dict(**HB),
        )
        sup = JobSupervisor(rs, RestartBudget(max_restarts=2), registry=reg)
        rep = sup.run()
        assert rep.aborted
        assert reg.counter("repro_supervisor_unrecoverable_total").value == 1.0


class TestDrawOrderPin:
    """Regression pin for the RandomFaultModel draw order: a committed
    seeded plan never moves."""

    def test_seeded_plan_snapshot(self):
        # Hardcoded draw snapshot: fails if anyone perturbs the rng
        # consumption order (e.g. interleaves a new class mid-plan).
        from repro.faults.injector import RandomFaultModel

        plan = RandomFaultModel(seed=7, mttf_asu=0.5, mtt_drop=0.4).plan(
            small_params(), horizon=0.25
        )
        assert [(f.kind, f.index, round(f.t, 12)) for f in plan.faults] == [
            ("drop_msg", 0, 0.00390145066),
            ("drop_msg", 0, 0.082613101607),
            ("drop_msg", 1, 0.088828504953),
            ("drop_msg", 0, 0.216454357675),
            ("drop_msg", 0, 0.23013310254),
        ]


class TestSchedulerChaosApp:
    def test_scheduler_chaos_case_holds_invariants(self):
        from repro.resilience.chaos import run_chaos

        rep = run_chaos(
            seeds=2, apps=("scheduler",), negative_control=False, workers=1
        )
        assert rep.ok, rep.violations()
        for c in rep.cases:
            assert c["app"] == "scheduler"
            assert c["invariants"]["deterministic_replay"]
            assert c["n_done"] > 0

    def test_default_apps_exclude_scheduler(self):
        # The default chaos sweep is the transport pair; the scheduler app
        # is opt-in (python -m repro chaos --apps scheduler).
        import inspect

        from repro.resilience.chaos import list_chaos_apps, run_chaos

        assert "scheduler" in dict(list_chaos_apps())
        sig = inspect.signature(run_chaos)
        assert sig.parameters["apps"].default == ("dsmsort", "filterscan")


class TestDeterminism:
    def test_same_seed_same_everything(self, reference):
        t0, _ = reference
        plan = FaultPlan([crash_asu(0.8 * t0, 0)])
        cfg = ReplicationConfig(r=2)
        _j1, r1a, out_a = sort_once(plan, cfg)
        _j2, r1b, out_b = sort_once(plan, cfg)
        assert out_a.tobytes() == out_b.tobytes()
        assert r1a.makespan == r1b.makespan
        assert r1a.n_promoted_runs == r1b.n_promoted_runs
        assert r1a.n_repaired_copies == r1b.n_repaired_copies


class TestCandidateWalk:
    """``_candidates`` ranks only as deep as its caller consumes."""

    def test_draw_count_ratchet(self, monkeypatch):
        # Exact draws *consumed* by the walks of the ledger's guarded@2^12/r2
        # pass 1 (the eager full-fleet ranking drew 3,570,518): per walk, the
        # draws up to the last ASU its caller took, read off the scalar walk
        # over ``_draw``.  ``ranked`` computes draws a block at a time, so
        # this counts what the walk uses, not what a block computes — and
        # checks every ranked ASU against the scalar walk on the way.
        # Regenerate only for a deliberate placement change.
        consumed = [0]
        ranked = ReplicaPlacement.ranked

        def counted(self, shard):
            used = 0
            for (k, d), got in zip(scalar_walk(self, shard), ranked(self, shard)):
                assert got == d
                consumed[0] += k - used
                used = k
                yield got

        monkeypatch.setattr(ReplicaPlacement, "ranked", counted)
        CELLS["guarded@2^12/r2"]().run_pass1()
        assert consumed[0] == 133_273

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 16),
        shard=st.integers(0, (1 << 40) - 1),
        dead=st.sets(st.integers(0, 15)),
        copies=st.sets(st.integers(0, 15)),
        targets=st.sets(st.integers(0, 15)),
        with_set=st.booleans(),
    )
    def test_lazy_walk_equals_eager_filter(
        self, n, shard, dead, copies, targets, with_set
    ):
        mgr = ReplicationManager(ReplicationConfig(r=2), n)
        mgr._dead = {d for d in dead if d < n}
        rs = None
        if with_set:
            rs = ReplicaSet((0, 0, 0), 0, 0, None, None, {d for d in targets if d < n})
            rs.copies = {d for d in copies if d < n}
        eager = [
            d for d in mgr.placement.replicas(shard, mgr.n_asus)
            if d not in mgr._dead
            and (rs is None or (d not in rs.copies and d not in rs.targets))
        ]
        assert list(mgr._candidates(shard, rs)) == eager
        for k in range(len(eager) + 2):
            assert list(islice(mgr._candidates(shard, rs), k)) == eager[:k]
