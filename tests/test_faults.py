"""Tests for repro.faults: injection, detection, and DSM-Sort recovery."""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import repro
from repro.core import DSMConfig
from repro.core.load_manager import LoadManager
from repro.core.placement import Placement, PlacementSolver
from repro.core.routing import make_router
from repro.dsmsort import DsmSortJob
from repro.emulator.params import SystemParams
from repro.emulator.platform import ActivePlatform
from repro.faults import (
    CRASH_FAULT_KINDS,
    FAULT_KINDS,
    LOSSY_FAULT_KINDS,
    FailureDetector,
    Fault,
    FaultPlan,
    FaultReport,
    Injector,
    RandomFaultModel,
    corrupt_msg,
    crash_asu,
    crash_coordinator,
    crash_host,
    degrade_asu,
    degrade_host,
    delay_msg,
    disk_fault,
    drop_msg,
    dup_msg,
    heal,
    link_flap,
    lose_replica,
    partition,
)
from repro.functors.base import FunctorError


def small_params(**over):
    base = dict(n_hosts=2, n_asus=4)
    base.update(over)
    return SystemParams(**base)


def fig_params(**over):
    """Same calibrated cost family as the figure benches."""
    base = dict(
        n_hosts=2,
        n_asus=16,
        cycles_per_compare=100.0,
        cycles_per_record=300.0,
        cycles_per_net_byte=1.5,
        cycles_per_io_byte=0.5,
        block_records=1024,
    )
    base.update(over)
    return SystemParams(**base)


# ---------------------------------------------------------------------------
# Fault / FaultPlan
# ---------------------------------------------------------------------------
class TestFaultPlan:
    def test_kind_validation(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            Fault(t=0.0, kind="meteor", index=0)
        with pytest.raises(ValueError, match="nonnegative"):
            crash_asu(-1.0, 0)
        with pytest.raises(ValueError, match="positive duration"):
            degrade_asu(0.0, 0, factor=0.5, duration=0.0)
        with pytest.raises(ValueError, match="factor"):
            degrade_host(0.0, 0, factor=1.5, duration=1.0)
        with pytest.raises(ValueError, match="peer"):
            Fault(t=0.0, kind="link_flap", index=0, duration=1.0)

    def test_plan_sorts_chronologically(self):
        plan = FaultPlan([crash_asu(2.0, 1), crash_host(1.0, 0)])
        plan.add(degrade_asu(0.5, 2, factor=0.5, duration=1.0))
        assert [f.t for f in plan] == [0.5, 1.0, 2.0]
        assert len(plan) == 3

    def test_horizon_includes_durations(self):
        plan = FaultPlan([crash_asu(2.0, 0), degrade_asu(1.0, 1, 0.5, 5.0)])
        assert plan.horizon() == 6.0
        assert FaultPlan().horizon() == 0.0

    def test_validate_device_ranges(self):
        p = small_params()
        FaultPlan([crash_asu(0.0, 3), link_flap(0.0, 1, 3, 1.0)]).validate(p)
        with pytest.raises(ValueError, match="no such ASU"):
            FaultPlan([crash_asu(0.0, 4)]).validate(p)
        with pytest.raises(ValueError, match="no such host"):
            FaultPlan([crash_host(0.0, 2)]).validate(p)
        with pytest.raises(ValueError, match="no such ASU"):
            FaultPlan([link_flap(0.0, 0, 9, 1.0)]).validate(p)

    def test_scaled(self):
        plan = FaultPlan([degrade_asu(1.0, 0, 0.5, 2.0)]).scaled(0.5)
        f = plan.faults[0]
        assert (f.t, f.duration) == (0.5, 1.0)

    def test_window_cannot_end_before_it_starts(self):
        with pytest.raises(ValueError, match="ends before it starts"):
            Fault(t=1.0, kind="crash_asu", index=0, duration=-0.5)

    def test_overlapping_crash_windows_same_target_rejected(self):
        with pytest.raises(ValueError, match="overlapping crash windows"):
            FaultPlan([crash_asu(1.0, 2), crash_asu(3.0, 2)])
        with pytest.raises(ValueError, match="overlapping crash windows"):
            FaultPlan([crash_host(0.5, 0)]).add(crash_host(0.5, 0))
        # distinct targets (or distinct kinds) never conflict
        FaultPlan([crash_asu(1.0, 2), crash_asu(3.0, 1), crash_host(1.0, 2)])

    def test_plan_rejects_non_fault_entries(self):
        with pytest.raises(TypeError, match="must be Fault instances"):
            FaultPlan([("crash_asu", 0.0, 1)])


class TestFaultKindRegistry:
    def test_unknown_kind_error_lists_registered(self):
        with pytest.raises(ValueError, match="known kinds:.*crash_asu"):
            Fault(t=0.0, kind="meteor", index=0)

    def test_builtin_kinds_registered(self):
        assert {
            "crash_asu", "crash_host", "degrade_asu", "degrade_host",
            "link_flap", "drop_msg", "dup_msg", "delay_msg", "corrupt_msg",
            "disk_fault",
        } <= set(FAULT_KINDS)

    def test_message_fault_constructors_validate(self):
        drop_msg(0.0, 0, 1, 0.5)
        dup_msg(0.0, 1, 3, 0.5)
        corrupt_msg(0.0, 0, 0, 0.5)
        disk_fault(0.0, 2, 0.5)
        with pytest.raises(ValueError, match="positive duration"):
            drop_msg(0.0, 0, 1, 0.0)
        with pytest.raises(ValueError, match="peer"):
            Fault(t=0.0, kind="dup_msg", index=0, duration=1.0)
        with pytest.raises(ValueError, match="positive extra delay"):
            delay_msg(0.0, 0, 1, 0.5, delay=0.0)
        with pytest.raises(ValueError, match="positive duration"):
            disk_fault(0.0, 2, -1.0)

    def test_message_fault_target_validation(self):
        p = small_params()  # 2 hosts, 4 ASUs
        FaultPlan([drop_msg(0.0, 1, 3, 0.5)]).validate(p)
        with pytest.raises(ValueError, match="no such host"):
            FaultPlan([drop_msg(0.0, 2, 0, 0.5)]).validate(p)
        with pytest.raises(ValueError, match="no such ASU"):
            FaultPlan([corrupt_msg(0.0, 0, 4, 0.5)]).validate(p)
        with pytest.raises(ValueError, match="no such ASU"):
            FaultPlan([disk_fault(0.0, 4, 0.5)]).validate(p)

    def test_plan_kinds(self):
        plan = FaultPlan([crash_asu(1.0, 0), drop_msg(0.5, 0, 1, 0.2)])
        assert plan.kinds() == {"crash_asu", "drop_msg"}
        assert FaultPlan().kinds() == set()


#: one fault of every kind, each aimed at asu1 / host1 where it has a target
ONE_OF_EACH = {
    "crash_asu": crash_asu(0.1, 1),
    "crash_host": crash_host(0.1, 1),
    "crash_coordinator": crash_coordinator(0.1),
    "degrade_asu": degrade_asu(0.1, 1, factor=0.5, duration=0.2),
    "degrade_host": degrade_host(0.1, 1, factor=0.5, duration=0.2),
    "link_flap": link_flap(0.1, 1, 1, 0.2),
    "drop_msg": drop_msg(0.1, 1, 1, 0.2),
    "dup_msg": dup_msg(0.1, 1, 1, 0.2),
    "delay_msg": delay_msg(0.1, 1, 1, 0.2, delay=0.01),
    "corrupt_msg": corrupt_msg(0.1, 1, 1, 0.2),
    "disk_fault": disk_fault(0.1, 1, 0.2),
    "lose_replica": lose_replica(0.1, 1),
    "partition": partition(0.1, [1], duration=0.2),
    "heal": heal(0.1),
}


class TestFaultKindTable:
    def test_one_example_per_row(self):
        assert set(ONE_OF_EACH) == set(FAULT_KINDS)
        assert all(f.kind == k for k, f in ONE_OF_EACH.items())

    @pytest.mark.parametrize("kind", sorted(FAULT_KINDS))
    def test_row_fires_on_bare_platform(self, kind):
        f = ONE_OF_EACH[kind]
        plat = ActivePlatform(small_params())
        seen = []
        inj = Injector(plat, FaultPlan([f]), on_fault=seen.append)
        inj.arm()
        plat.sim.run(until=1.0)
        assert (inj.injected, inj.skipped, seen) == ([f], [], [f])

    @pytest.mark.parametrize(
        "kind", sorted(k for k, row in FAULT_KINDS.items()
                       if row.target in ("asu", "host"))
    )
    def test_dead_target(self, kind):
        f = ONE_OF_EACH[kind]
        plat = ActivePlatform(small_params())
        devices = plat.asus if FAULT_KINDS[kind].target == "asu" else plat.hosts
        plat.fail_node(devices[f.index])
        inj = Injector(plat, FaultPlan([f]))
        inj.arm()
        plat.sim.run(until=1.0)
        if kind == "lose_replica":  # media loss is reported, dead or not
            assert (inj.injected, inj.skipped) == ([f], [])
        else:
            assert (inj.injected, inj.skipped) == ([], [f])

    def test_derived_kind_sets(self):
        assert CRASH_FAULT_KINDS == {"crash_asu", "crash_host", "crash_coordinator"}
        assert LOSSY_FAULT_KINDS == {
            "drop_msg", "dup_msg", "delay_msg", "corrupt_msg", "disk_fault",
            "partition",
        }

    def test_table_is_read_only(self):
        with pytest.raises(TypeError):
            FAULT_KINDS["meteor"] = FAULT_KINDS["crash_asu"]

    def test_numpy_index_accepted(self):
        assert crash_asu(0.0, np.int64(2)).describe() == "t=0.000 crash asu2"

    @pytest.mark.parametrize("make, match", [
        (lambda: crash_asu(float("nan"), 0), "finite nonnegative time"),
        (lambda: crash_asu(float("inf"), 0), "finite nonnegative time"),
        (lambda: Fault(t=0.0, kind="disk_fault", index=0,
                       duration=float("nan")), "duration=nan"),
        (lambda: delay_msg(0.0, 0, 1, 0.5, delay=float("inf")),
         "extra=inf"),
        (lambda: crash_asu(0.0, 1.5), "must be integers"),
        (lambda: partition(0.0, [1], asymmetry="sideways"),
         "'both', 'out' or 'in'"),
    ])
    def test_hostile_input_rejected(self, make, match):
        with pytest.raises(ValueError, match=match):
            make()

    def test_crash_coordinator_needs_no_recovery_import(self):
        # A fresh interpreter that has not imported repro.recovery still
        # knows the kind, and a job carrying it is killed mid pass 1.
        script = textwrap.dedent("""
            import sys
            from repro.faults import Fault, FaultPlan
            Fault(t=0.1, kind="crash_coordinator", index=0)
            assert "repro.recovery" not in sys.modules
            from repro.core import DSMConfig
            from repro.dsmsort import DsmSortJob
            from repro.emulator.params import SystemParams
            job = DsmSortJob(
                SystemParams(n_hosts=2, n_asus=4, block_records=128),
                DSMConfig.for_n(1 << 12, alpha=8, gamma=8), policy="sr",
                seed=0,
                faults=FaultPlan([Fault(t=0.005, kind="crash_coordinator",
                                        index=0)]),
            )
            res = job.run_pass1()
            print(res.coordinator_crashed, res.completed)
        """)
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["True", "False"]


class TestRandomFaultModel:
    def test_same_seed_same_plan(self):
        p = small_params()
        kw = dict(mttf_asu=1.0, mttf_host=3.0, mtt_degrade=0.7)
        a = RandomFaultModel(seed=11, **kw).plan(p, horizon=2.0)
        b = RandomFaultModel(seed=11, **kw).plan(p, horizon=2.0)
        assert [f.describe() for f in a] == [f.describe() for f in b]
        c = RandomFaultModel(seed=12, **kw).plan(p, horizon=2.0)
        assert [f.describe() for f in a] != [f.describe() for f in c]

    def test_one_crash_per_class_cap(self):
        # Every device's crash stream fires many times over the horizon; the
        # plan keeps only the earliest crash of each class.
        p = small_params()
        plan = RandomFaultModel(seed=0, mttf_asu=0.01, mttf_host=0.01).plan(
            p, horizon=10.0
        )
        assert sorted(f.kind for f in plan) == ["crash_asu", "crash_host"]

    def test_disabled_classes_yield_empty_plan(self):
        assert len(RandomFaultModel(seed=0).plan(small_params(), horizon=10.0)) == 0

    def test_message_and_disk_fault_draws(self):
        p = small_params()
        plan = RandomFaultModel(
            seed=5, mtt_drop=0.3, mtt_dup=0.3, mtt_delay=0.3, mtt_corrupt=0.3,
            mtt_disk_fault=0.3, msg_fault_duration=0.1, msg_delay=0.01,
            disk_fault_duration=0.1,
        ).plan(p, horizon=5.0)
        assert {
            "drop_msg", "dup_msg", "delay_msg", "corrupt_msg", "disk_fault"
        } <= plan.kinds()
        for f in plan:
            if f.kind == "delay_msg":
                assert f.extra == 0.01

    def test_new_draws_do_not_perturb_legacy_plans(self):
        # The message/disk classes draw *after* the legacy classes from the
        # same stream, so enabling them leaves the legacy faults unchanged.
        p = small_params()
        legacy = RandomFaultModel(seed=5, mttf_asu=1.0).plan(p, horizon=5.0)
        both = RandomFaultModel(
            seed=5, mttf_asu=1.0, mtt_drop=0.5, msg_fault_duration=0.1,
        ).plan(p, horizon=5.0)
        assert [f.describe() for f in legacy] == [
            f.describe() for f in both if f.kind == "crash_asu"
        ]
        assert any(f.kind == "drop_msg" for f in both)


# ---------------------------------------------------------------------------
# Injector on a bare platform
# ---------------------------------------------------------------------------
class TestInjector:
    def test_crash_interrupts_node_processes(self):
        plat = ActivePlatform(small_params())
        log = []

        def worker(d):
            while True:
                yield plat.sim.timeout(0.1)
                log.append((plat.sim.now, d))

        for d in range(2):
            plat.spawn(worker(d), node=plat.asus[d])
        inj = Injector(plat, FaultPlan([crash_asu(0.25, 0)]))
        inj.arm()
        plat.sim.run(until=1.0)
        assert not plat.asus[0].alive and plat.asus[1].alive
        assert inj.injected and not inj.skipped
        # asu0's worker stopped at the crash; asu1's kept going.
        assert max(t for t, d in log if d == 0) < 0.25
        assert max(t for t, d in log if d == 1) > 0.9

    def test_crash_dead_letters_traffic(self):
        plat = ActivePlatform(small_params())
        seen = []
        plat.network.dead_letter_hook = seen.append
        Injector(plat, FaultPlan([crash_asu(0.1, 0)])).arm()
        asu_id = plat.asus[0].node_id
        plat.sim.schedule(
            lambda _ev: plat.network.post("host0", asu_id, "late", 64), delay=0.5
        )
        plat.sim.run(until=2.0)
        assert plat.network.n_dropped == 1
        assert [m.payload for m in plat.network.dead_letters] == ["late"]
        assert seen == plat.network.dead_letters

    def test_degrade_scales_and_restores_clock(self):
        plat = ActivePlatform(small_params())
        cpu = plat.asus[1].cpu
        Injector(plat, FaultPlan([degrade_asu(0.2, 1, 0.25, 0.3)])).arm()
        speeds = {}
        plat.sim.schedule(
            lambda _ev: speeds.setdefault("during", cpu.speed_factor), delay=0.3
        )
        plat.sim.run(until=1.0)
        assert speeds["during"] == 0.25
        assert cpu.speed_factor == 1.0

    def test_fault_on_dead_node_is_skipped(self):
        plat = ActivePlatform(small_params())
        plan = FaultPlan([crash_asu(0.1, 0), degrade_asu(0.2, 0, 0.5, 1.0)])
        inj = Injector(plat, plan)
        inj.arm()
        plat.sim.run(until=1.0)
        assert [f.kind for f in inj.injected] == ["crash_asu"]
        assert [f.kind for f in inj.skipped] == ["degrade_asu"]

    def test_arm_twice_raises(self):
        plat = ActivePlatform(small_params())
        inj = Injector(plat, FaultPlan())
        inj.arm()
        with pytest.raises(RuntimeError, match="already armed"):
            inj.arm()

    def test_plan_validated_against_platform(self):
        plat = ActivePlatform(small_params())
        with pytest.raises(ValueError, match="no such ASU"):
            Injector(plat, FaultPlan([crash_asu(0.0, 99)]))

    def test_link_flap_defers_delivery_past_outage(self):
        plat = ActivePlatform(small_params())
        Injector(plat, FaultPlan([link_flap(0.0, 0, 0, duration=0.5)])).arm()
        arrivals = []

        def receiver():
            msg = yield plat.network.mailbox("asu0").get()
            arrivals.append((plat.sim.now, msg.payload))

        plat.spawn(receiver())
        plat.sim.schedule(
            lambda _ev: plat.network.post("host0", "asu0", "hi", 8), delay=0.1
        )
        plat.sim.run(until=2.0)
        # Delivery would normally land ~0.1 + latency; the flap holds it to 0.5.
        assert arrivals and arrivals[0][0] >= 0.5


# ---------------------------------------------------------------------------
# FailureDetector
# ---------------------------------------------------------------------------
class TestFailureDetector:
    def test_detects_crash_within_latency_bound(self):
        plat = ActivePlatform(small_params())
        det = FailureDetector(plat, interval=0.05, timeout=0.2)
        det.start()
        Injector(plat, FaultPlan([crash_asu(0.4, 2)])).arm()
        plat.sim.run(until=2.0)
        assert "asu2" in det.detected
        assert det.detected["asu2"] - 0.4 <= det.latency_bound
        assert len(det.detected) == 1  # no false positives

    def test_no_false_positives_without_faults(self):
        plat = ActivePlatform(small_params())
        det = FailureDetector(plat, interval=0.05, timeout=0.2)
        det.start()
        plat.sim.run(until=3.0)
        assert det.detected == {}

    def test_on_failure_callbacks_fire_once(self):
        plat = ActivePlatform(small_params())
        det = FailureDetector(plat, interval=0.05, timeout=0.1)
        calls = []
        det.on_failure.append(lambda node, t: calls.append((node.node_id, t)))
        det.start()
        Injector(plat, FaultPlan([crash_host(0.3, 1)])).arm()
        plat.sim.run(until=2.0)
        assert len(calls) == 1 and calls[0][0] == "host1"

    def test_parameter_validation(self):
        plat = ActivePlatform(small_params())
        with pytest.raises(ValueError, match="positive"):
            FailureDetector(plat, interval=0.0)
        with pytest.raises(ValueError, match=">= heartbeat"):
            FailureDetector(plat, interval=0.2, timeout=0.1)

    def test_start_twice_raises(self):
        plat = ActivePlatform(small_params())
        det = FailureDetector(plat)
        det.start()
        with pytest.raises(RuntimeError, match="already started"):
            det.start()

    def test_heartbeat_exactly_at_deadline_is_not_failure(self):
        # Binary-exact cadence (0.0625 = 2**-4) so every beat and sweep
        # instant is a representable float and the arithmetic is exact.
        # The crash at t=0.26 leaves the last beat at t=0.25; the sweep at
        # t=0.5 observes silence of *exactly* `timeout` and must not declare
        # (the monitor uses strict >); the next sweep at 0.5625 does.
        plat = ActivePlatform(small_params())
        det = FailureDetector(plat, interval=0.0625, timeout=0.25)
        det.start()
        Injector(plat, FaultPlan([crash_asu(0.26, 1)])).arm()
        plat.sim.run(until=2.0)
        assert det.detected == {"asu1": 0.5625}

    def test_flap_back_within_detection_interval_not_declared(self):
        # A node that goes silent for *less* than the timeout and then comes
        # back must never be declared failed.  The beater stops at the crash
        # (last beat t=0.25); the node "flaps back" at t=0.40625 — silence of
        # 0.15625 < timeout — and keeps beating from then on (emulated by
        # restamping the liveness table, since fail-stops are permanent).
        plat = ActivePlatform(small_params())
        det = FailureDetector(plat, interval=0.0625, timeout=0.25)
        calls = []
        det.on_failure.append(lambda node, t: calls.append((node.node_id, t)))
        det.start()
        Injector(plat, FaultPlan([crash_asu(0.3, 0)])).arm()

        def resume():
            det._last_beat["asu0"] = plat.sim.now
            plat.sim.schedule(lambda _ev: resume(), delay=det.interval)

        plat.sim.schedule(lambda _ev: resume(), delay=0.40625)
        plat.sim.run(until=3.0)
        assert det.detected == {} and calls == []

    def test_flap_back_after_detection_does_not_double_fire(self):
        # Once declared, a node whose heartbeats reappear within a detection
        # interval must not fire recovery a second time: `detected` is the
        # dedup record, and declare_failed is idempotent.
        plat = ActivePlatform(small_params())
        det = FailureDetector(plat, interval=0.0625, timeout=0.25)
        calls = []
        det.on_failure.append(lambda node, t: calls.append((node.node_id, t)))
        det.start()
        Injector(plat, FaultPlan([crash_asu(0.3, 2)])).arm()

        def resume():
            det._last_beat["asu2"] = plat.sim.now
            if plat.sim.now < 1.5:
                plat.sim.schedule(lambda _ev: resume(), delay=det.interval)

        # Beats resume one beat interval after the declaration at t=0.5625,
        # then stop again at t=1.5 — neither event may re-fire recovery.
        plat.sim.schedule(lambda _ev: resume(), delay=0.625)
        plat.sim.run(until=4.0)
        det.declare_failed(plat.asus[2])  # explicit re-declare: idempotent
        assert calls == [("asu2", 0.5625)]
        assert det.detected == {"asu2": 0.5625}


# ---------------------------------------------------------------------------
# Router / LoadManager quarantine
# ---------------------------------------------------------------------------
class TestQuarantine:
    def test_pick_remaps_off_quarantined(self):
        r = make_router("static", 4, n_buckets=4)
        assert r.pick(1, 10) == 1
        r.quarantine(1)
        assert r.pick(1, 10) == 2  # cyclic next-alive

    def test_sr_draws_among_survivors(self):
        r = make_router("sr", 4, rng=np.random.default_rng(0))
        r.quarantine(2)
        picks = {r.pick(0, 1) for _ in range(200)}
        assert 2 not in picks and picks <= {0, 1, 3}

    def test_jsq_ignores_dead_instance(self):
        r = make_router("jsq", 3)
        r.on_sent(1, 5)
        r.on_sent(2, 5)
        r.quarantine(0)  # the emptiest queue is now dead
        assert r.pick(0, 1) in (1, 2)

    def test_weighted_masks_dead_instance(self):
        r = make_router("weighted", 0, weights=[1.0, 1.0, 8.0])
        r.quarantine(2)  # the heaviest instance dies
        assert all(r.pick(0, 1) in (0, 1) for _ in range(20))

    def test_adaptive_switch_propagates_quarantine(self):
        r = make_router("adaptive_switch", 4, n_buckets=4)
        r.quarantine(3)
        assert not r._static.alive[3] and not r._sr.alive[3]

    def test_cannot_quarantine_last_instance(self):
        r = make_router("static", 2, n_buckets=2)
        r.quarantine(0)
        with pytest.raises(RuntimeError, match="last alive"):
            r.quarantine(1)

    def test_load_manager_quarantine(self):
        lm = LoadManager(small_params(), n_instances=3, n_buckets=4, policy="static")
        lm.quarantine(1)
        assert lm.alive_instances() == [0, 2]
        assert lm.instances[1].quarantined
        for b in range(4):
            assert lm.route(b, 8) != 1
        assert lm.instances[1].records_routed == 0


# ---------------------------------------------------------------------------
# Placement repair
# ---------------------------------------------------------------------------
class TestPlacementRepair:
    def test_migrate_off_prefers_least_loaded_survivor(self):
        p = Placement()
        p.assign("scan", "asu", [0, 1])
        p.assign("filter", "asu", [2])
        moves = p.migrate_off("asu", 0, alive=[1, 2, 3])
        # asu3 hosts nothing, asu2 hosts one stage; asu3 wins.
        assert moves == [("scan", 0, 3)]
        assert p.of("scan").instances == [3, 1]

    def test_migrate_off_drops_duplicate_replica(self):
        p = Placement()
        p.assign("scan", "asu", [0, 1, 2])
        moves = p.migrate_off("asu", 0, alive=[1, 2])
        assert moves == [("scan", 0, -1)]
        assert p.of("scan").instances == [1, 2]

    def test_solver_repair_moves_and_revalidates(self):
        from repro.functors import (
            BlockSortFunctor,
            Dataflow,
            DistributeFunctor,
            MergeFunctor,
        )

        g = Dataflow()
        g.add_stage("distribute", DistributeFunctor.uniform(16), est_records=1000)
        g.add_stage("blocksort", BlockSortFunctor(1024), replicas=2, est_records=1000)
        g.add_stage("merge", MergeFunctor(8), est_records=1000)
        g.connect(Dataflow.SOURCE, "distribute", kind="set", est_records=1000)
        g.connect("distribute", "blocksort", kind="set", est_records=1000)
        g.connect("blocksort", "merge", kind="set", est_records=1000)
        g.connect("merge", Dataflow.SINK, kind="stream", est_records=1000)
        params = small_params()
        p = Placement()
        p.assign("distribute", "asu", [0])
        p.assign("blocksort", "host", [0, 1])
        p.assign("merge", "host", [1])
        solver = PlacementSolver(params)
        solver.validate(g, p)
        moves = solver.repair(g, p, "asu", 0)
        assert moves == [("distribute", 0, 1)]
        solver.validate(g, p)  # repaired placement is still legal

    def test_no_survivors_raises(self):
        p = Placement()
        p.assign("scan", "asu", [0])
        with pytest.raises(FunctorError, match="no surviving"):
            p.migrate_off("asu", 0, alive=[0])


# ---------------------------------------------------------------------------
# Fault-tolerant DSM-Sort (the acceptance scenarios)
# ---------------------------------------------------------------------------
N = 1 << 15


def make_ft_job(faults, **over):
    params = over.pop("params", fig_params())
    cfg = DSMConfig.for_n(N, alpha=16, gamma=16)
    defaults = dict(policy="sr", active=True, seed=3, faults=faults)
    defaults.update(over)
    return DsmSortJob(params, cfg, **defaults)


@pytest.fixture(scope="module")
def ft_baseline():
    """Fault-free makespan of the FT code path at D=16 (shared across tests)."""
    job = make_ft_job(FaultPlan())
    return job.run_pass1().makespan


# Heartbeat cadence for the toy workloads: the makespan is ~0.1 virtual
# seconds, so detection must resolve well inside that.
HB = dict(heartbeat_interval=0.002, heartbeat_timeout=0.008)


class TestFaultTolerantSort:
    def test_ft_requires_active_storage(self):
        with pytest.raises(ValueError, match="active storage"):
            make_ft_job(FaultPlan(), active=False)

    def test_fault_free_ft_matches_plain_path(self, ft_baseline):
        plain = make_ft_job(None)
        assert plain.run_pass1().makespan == ft_baseline

    def test_asu_crash_mid_run_recovers(self, ft_baseline):
        """The headline scenario: one ASU dies mid-run-formation at D=16."""
        plan = FaultPlan([crash_asu(0.5 * ft_baseline, 5)])
        job = make_ft_job(plan, **HB)
        res = job.run_pass1()
        rep = res.fault_report
        # Detected within the heartbeat latency bound.
        assert "asu5" in rep.detected
        lat = rep.detected["asu5"] - plan.faults[0].t
        assert lat <= HB["heartbeat_timeout"] + HB["heartbeat_interval"]
        # The survivors took over the dead shard and re-homed its runs.
        assert res.n_takeover_blocks > 0
        assert res.n_reemitted_runs > 0
        assert rep.recovered_at
        # Makespan degradation is bounded.
        assert res.makespan < 2.0 * ft_baseline
        # And the sort is still correct, end to end.
        job.run_pass2()
        job.verify()

    def test_host_crash_mid_run_recovers(self, ft_baseline):
        plan = FaultPlan([crash_host(0.5 * ft_baseline, 0)])
        job = make_ft_job(plan, **HB)
        res = job.run_pass1()
        assert "host0" in res.fault_report.detected
        # Lost fragments were replayed from producer retention buffers.
        assert res.n_replayed_frags > 0
        assert res.makespan < 2.0 * ft_baseline
        job.run_pass2()
        job.verify()

    def test_degraded_asu_slows_but_stays_correct(self, ft_baseline):
        plan = FaultPlan(
            [degrade_asu(0.2 * ft_baseline, 2, factor=0.3, duration=0.5 * ft_baseline)]
        )
        job = make_ft_job(plan)
        res = job.run_pass1()
        assert res.makespan > ft_baseline  # degradation costs something
        job.run_pass2()
        job.verify()

    def test_link_flap_delays_but_loses_nothing(self, ft_baseline):
        plan = FaultPlan(
            [link_flap(0.3 * ft_baseline, host=0, asu=1, duration=0.2 * ft_baseline)]
        )
        job = make_ft_job(plan)
        res = job.run_pass1()
        assert res.makespan >= ft_baseline
        job.run_pass2()
        job.verify()

    def test_faulted_run_is_deterministic(self, ft_baseline):
        def one():
            plan = FaultPlan([crash_asu(0.4 * ft_baseline, 5)])
            job = make_ft_job(plan, **HB)
            res = job.run_pass1()
            return res.makespan, job.platform.sim.n_events_processed, res.n_reemitted_runs

        assert one() == one()

    def test_fault_report_renders(self, ft_baseline):
        plan = FaultPlan([crash_asu(0.5 * ft_baseline, 1)])
        job = make_ft_job(plan, **HB)
        rep = job.run_pass1().fault_report
        assert isinstance(rep, FaultReport)
        text = rep.render()
        assert "1 injected" in text and "asu1" in text
        assert rep.mean_detection_latency() is not None
        assert rep.mean_mttr() is not None
