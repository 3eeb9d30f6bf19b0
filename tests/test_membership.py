"""Tests for partition tolerance: seeded cuts, network-borne detection,
epoch-fenced membership, and split-brain-safe takeover.

Covers the repro.membership view service, the partition/heal fault kinds and
their network-layer enforcement, the network-mode FailureDetector (SWIM-style
indirect probing, crashed-vs-unreachable, re-admission), one end-to-end
partitioned sort whose output must be byte-identical to the fault-free run,
and the membership seam the FT engine calls (repro.dsmsort.membership /
repro.membership.fencing).
"""

import hashlib
import inspect
import json
import re

import numpy as np
import pytest

from repro.bench.report import canonical_json
from repro.bench.soak import Reference, _partition_grid, _partition_point
from repro.core import DSMConfig
from repro.dsmsort import DsmSortJob
from repro.dsmsort.membership import FAIL_STOP, FailStop
from repro.emulator.params import SystemParams
from repro.emulator.platform import ActivePlatform
from repro.faults import (
    FailureDetector,
    Fault,
    FaultPlan,
    Injector,
    RandomFaultModel,
    crash_asu,
    heal,
    indices_of,
    mask_of,
    partition,
)
from repro.faults.detector import ALIVE, CONFIRMED, SUSPECTED, UNREACHABLE
from repro.faults.errors import StaleEpochError
from repro.membership import ViewService
from repro.membership.fencing import EpochFencing
from repro.metrics import MetricsRegistry
from repro.replica import ReplicationConfig
from repro.resilience.channel import RetryPolicy
from repro.resilience.chaos import _chaos_case
from repro.util.records import concat_records, sort_records

from .test_transport import SRC, _public_callables

BASELINE = SRC.parents[1] / "benchmarks" / "baseline"


def small_params(**over):
    base = dict(n_hosts=2, n_asus=4)
    base.update(over)
    return SystemParams(**base)


# ---------------------------------------------------------------------------
# partition / heal fault kinds
# ---------------------------------------------------------------------------
class TestPartitionFaultKind:
    def test_mask_roundtrip(self):
        assert indices_of(mask_of([3, 0, 5])) == (0, 3, 5)
        assert indices_of(mask_of([])) == ()
        with pytest.raises(ValueError, match="negative device index"):
            mask_of([-1])

    def test_constructor_encoding(self):
        f = partition(1.0, [1, 2], hosts=[0], duration=0.5, asymmetry="out")
        assert f.kind == "partition"
        assert indices_of(f.index) == (1, 2)
        assert indices_of(f.peer) == (0,)
        assert (f.duration, f.factor) == (0.5, 1.0)
        assert "out" in f.describe() and "asu1" in f.describe()

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError, match="nonempty minority group"):
            partition(0.0, [], duration=0.5)

    def test_unknown_asymmetry_rejected(self):
        with pytest.raises(ValueError, match="'both', 'out' or 'in'"):
            partition(0.0, [1], asymmetry="sideways")
        with pytest.raises(ValueError, match="asymmetry mode"):
            Fault(t=0.0, kind="partition", index=2, peer=0, duration=0.5,
                  factor=7.0)

    def test_whole_platform_cut_rejected(self):
        p = small_params()
        with pytest.raises(ValueError, match="whole platform"):
            FaultPlan(
                [partition(0.0, range(p.n_asus), hosts=range(p.n_hosts))]
            ).validate(p)

    def test_target_validation(self):
        p = small_params()
        FaultPlan([partition(0.0, [3], hosts=[1])]).validate(p)
        with pytest.raises(ValueError, match="ASU mask exceeds"):
            FaultPlan([partition(0.0, [4])]).validate(p)
        with pytest.raises(ValueError, match="host mask exceeds"):
            FaultPlan([partition(0.0, [0], hosts=[2])]).validate(p)

    def test_heal_takes_no_target(self):
        assert heal(1.5).kind == "heal"
        with pytest.raises(ValueError, match="no target"):
            Fault(t=0.0, kind="heal", index=1)


class TestDrawOrderPin:
    """Committed seeded plans stay bit-identical: every class's draws are
    pinned in one snapshot."""

    PIN_KW = dict(
        seed=7, mttf_asu=3.0, mttf_host=6.0, mtt_degrade=4.0,
        mtt_drop=6.0, mtt_dup=7.0, mtt_delay=8.0, mtt_corrupt=9.0,
        mtt_disk_fault=5.0,
    )

    def test_golden_snapshot(self):
        # Hard pin of a committed seeded plan.  If this fails, some class's
        # draws moved — a new class must draw after every existing one.
        plan = RandomFaultModel(**self.PIN_KW).plan(small_params(), horizon=2.0)
        descs = [f.describe() for f in plan]
        assert len(descs) == 13
        assert descs[0] == "t=0.058 dup-msgs host1<->asu3 for 0.020s"
        assert descs[-1] == "t=1.502 corrupt-msgs host1<->asu1 for 0.020s"
        digest = hashlib.sha256("\n".join(descs).encode()).hexdigest()
        assert digest == (
            "da81c5ff99132f37ccec00af7c4487565015daf9c18c494d46bca707ee649a5a"
        )


# ---------------------------------------------------------------------------
# network-layer cut enforcement
# ---------------------------------------------------------------------------
class TestNetPartitionEnforcement:
    def _run_probe(self, mode, src, dst, send_at=0.2, until=2.0):
        """One message src->dst at ``send_at`` under a [0.1, 1.0) cut of
        {asu1} with the given mode; returns (arrivals, network)."""
        plat = ActivePlatform(small_params())
        net = plat.network
        net.set_partition({"asu1"}, 0.1, 1.0, mode=mode)
        arrivals = []

        def receiver():
            msg = yield net.mailbox(dst).get()
            arrivals.append((plat.sim.now, msg.payload))

        plat.spawn(receiver())
        plat.sim.schedule(
            lambda _ev: net.post(src, dst, "probe", 8), delay=send_at
        )
        plat.sim.run(until=until)
        return arrivals, net

    def test_symmetric_cut_drops_both_directions(self):
        for src, dst in (("host0", "asu1"), ("asu1", "host0")):
            arrivals, net = self._run_probe("both", src, dst)
            assert arrivals == []
            assert net.n_partition_dropped == 1
            # Silent loss: the destination is alive, the route is gone.
            assert net.dead_letters == []

    def test_out_cut_severs_minority_outbound_only(self):
        arrivals, _ = self._run_probe("out", "asu1", "host0")
        assert arrivals == []
        arrivals, _ = self._run_probe("out", "host0", "asu1")
        assert len(arrivals) == 1  # inbound still delivered

    def test_in_cut_severs_majority_inbound_only(self):
        arrivals, _ = self._run_probe("in", "host0", "asu1")
        assert arrivals == []
        arrivals, _ = self._run_probe("in", "asu1", "host0")
        assert len(arrivals) == 1  # outbound still delivered

    def test_same_side_traffic_untouched(self):
        arrivals, net = self._run_probe("both", "host0", "asu2")
        assert len(arrivals) == 1 and net.n_partition_dropped == 0

    def test_after_window_traffic_resumes(self):
        arrivals, _ = self._run_probe("both", "host0", "asu1", send_at=1.5)
        assert len(arrivals) == 1

    def test_heal_truncates_active_window(self):
        plat = ActivePlatform(small_params())
        net = plat.network
        net.set_partition({"asu1"}, 0.1, 10.0)
        arrivals = []

        def receiver():
            while True:
                msg = yield net.mailbox("asu1").get()
                arrivals.append(plat.sim.now)

        plat.spawn(receiver())
        plat.sim.schedule(lambda _ev: net.heal_partitions(plat.sim.now), delay=0.5)
        plat.sim.schedule(
            lambda _ev: net.post("host0", "asu1", "hello", 8), delay=0.6
        )
        plat.sim.run(until=2.0)
        assert len(arrivals) == 1
        # A heal repairs today's cut; it does not cancel tomorrow's.
        assert net.heal_partitions(5.0) == 0

    def test_injector_fires_partition_and_heal(self):
        plat = ActivePlatform(small_params())
        plan = FaultPlan([partition(0.1, [1], duration=5.0), heal(0.5)])
        inj = Injector(plat, plan)
        inj.arm()
        delivered = []

        def receiver():
            msg = yield plat.network.mailbox("asu1").get()
            delivered.append(plat.sim.now)

        plat.spawn(receiver())
        # At t=0.3 the cut is live; at t=0.7 the heal has ended it early.
        plat.sim.schedule(
            lambda _ev: plat.network.post("host0", "asu1", "a", 8), delay=0.3
        )
        plat.sim.schedule(
            lambda _ev: plat.network.post("host0", "asu1", "b", 8), delay=0.7
        )
        plat.sim.run(until=2.0)
        assert [f.kind for f in inj.injected] == ["partition", "heal"]
        assert len(delivered) == 1 and delivered[0] >= 0.7

    def test_set_partition_validation(self):
        net = ActivePlatform(small_params()).network
        with pytest.raises(ValueError, match="empty partition window"):
            net.set_partition({"asu0"}, 1.0, 1.0)
        with pytest.raises(ValueError, match="unknown partition mode"):
            net.set_partition({"asu0"}, 0.0, 1.0, mode="diagonal")
        with pytest.raises(ValueError, match="nonempty"):
            net.set_partition(set(), 0.0, 1.0)


# ---------------------------------------------------------------------------
# ViewService: epochs as fencing tokens
# ---------------------------------------------------------------------------
class TestViewService:
    def test_genesis(self):
        v = ViewService(["a", "b", "c"])
        assert v.epoch == 1 and v.members == {"a", "b", "c"}
        assert v.token("a") == v.fence("a") == 1
        assert v.validate("a") == 1

    def test_expel_freezes_token_and_rejects(self):
        v = ViewService(["a", "b", "c"])
        assert v.expel("b", now=1.0) == 2
        # Survivors learned the new epoch; the zombie froze at 1.
        assert v.token("a") == 2 and v.token("b") == 1
        with pytest.raises(StaleEpochError):
            v.validate("b")
        assert v.n_rejections == 1
        # Explicitly-stamped stale writes are rejected too.
        with pytest.raises(StaleEpochError):
            v.validate("a", token=0)

    def test_inflight_member_ops_survive_unrelated_changes(self):
        # a's in-flight op was stamped at epoch 1; expelling b bumps the
        # global epoch but must not invalidate a's token — a's fence is its
        # own admission epoch, which never moved.
        v = ViewService(["a", "b", "c"])
        tok = v.token("a")
        v.expel("b", now=1.0)
        assert v.validate("a", token=tok) == tok

    def test_readmission_fences_pre_expulsion_writes(self):
        v = ViewService(["a", "b", "c"])
        v.expel("b", now=1.0)
        stale = v.token("b")
        e = v.admit("b", now=2.0)
        assert e == 3 and v.fence("b") == 3 and v.token("b") == 3
        assert v.validate("b") == 3
        # The write the zombie queued before expulsion predates the new
        # admission epoch by construction: permanently invalid.
        with pytest.raises(StaleEpochError) as ei:
            v.validate("b", token=stale)
        assert ei.value.token == stale and ei.value.fence == 3

    def test_expel_admit_idempotent(self):
        v = ViewService(["a", "b"])
        v.expel("b", now=1.0)
        assert v.expel("b", now=1.1) == 2  # no double bump
        v.admit("b", now=2.0)
        assert v.admit("b", now=2.1) == 3
        assert len(v.history) == 3  # genesis + expel + admit

    def test_unknown_node_never_validates(self):
        v = ViewService(["a"])
        with pytest.raises(StaleEpochError):
            v.validate("ghost")

    def test_metrics_gauges_track_view(self):
        m = MetricsRegistry()
        v = ViewService(["a", "b"], metrics=m)
        v.expel("a", now=1.0)
        assert m.gauge("repro_view_epoch").value == 2.0
        assert m.gauge("repro_view_members").value == 1.0
        with pytest.raises(StaleEpochError):
            v.validate("a")
        assert m.counter("repro_epoch_rejections_total").value == 1


# ---------------------------------------------------------------------------
# network-mode failure detection
# ---------------------------------------------------------------------------
#: binary-exact cadence so beat and sweep instants are representable floats
ND = dict(mode="network", interval=0.0625, timeout=0.25)


class TestNetworkDetector:
    def test_fault_free_run_stays_quiet(self):
        plat = ActivePlatform(small_params())
        det = FailureDetector(plat, **ND)
        det.start()
        plat.sim.run(until=3.0)
        det.stop()
        assert det.detected == {}
        assert all(s == ALIVE for s in det.state.values())

    def test_crash_is_confirmed_within_latency_bound(self):
        plat = ActivePlatform(small_params())
        det = FailureDetector(plat, **ND)
        det.start()
        Injector(plat, FaultPlan([crash_asu(0.4, 2)])).arm()
        plat.sim.run(until=3.0)
        det.stop()
        assert det.state["asu2"] == CONFIRMED
        assert det.detected["asu2"] - 0.4 <= det.latency_bound

    def test_symmetric_cut_expels_then_readmits_on_heal(self):
        plat = ActivePlatform(small_params())
        det = FailureDetector(plat, **ND)
        events = []
        det.on_failure.append(lambda n, t: events.append(("fail", n.node_id, t)))
        det.on_readmit.append(lambda n, t: events.append(("readmit", n.node_id, t)))
        det.start()
        Injector(plat, FaultPlan([partition(0.5, [1], duration=1.5)])).arm()
        plat.sim.run(until=5.0)
        det.stop()
        # Confirmed during the cut (the node is alive but silent on every
        # relay path), then cleared when its heartbeats resumed at the heal.
        kinds = [e[0] for e in events]
        assert kinds == ["fail", "readmit"]
        assert events[0][1] == "asu1" and plat.asus[1].alive
        assert det.state["asu1"] == ALIVE and "asu1" not in det.detected

    def test_in_cut_never_suspects(self):
        # majority->minority severed: the minority's outbound heartbeats
        # still flow, so a network detector must stay completely quiet.
        plat = ActivePlatform(small_params())
        det = FailureDetector(plat, **ND)
        det.start()
        Injector(
            plat, FaultPlan([partition(0.5, [1], duration=1.5, asymmetry="in")])
        ).arm()
        plat.sim.run(until=5.0)
        det.stop()
        assert det.detected == {} and det.state["asu1"] == ALIVE

    def test_anchor_target_drop_is_unreachable_not_confirmed(self):
        # Sever only the anchor<->target pair: heartbeats die, but an
        # indirect probe through any relay completes — proof of life, no
        # takeover.  This is exactly the asymmetry SWIM probing exists for.
        plat = ActivePlatform(small_params())
        det = FailureDetector(plat, **ND)
        det.start()
        net = plat.network
        net.set_msg_fault("host0", "asu1", "drop_msg", 0.5, 3.0)
        seen = []
        plat.sim.schedule(
            lambda _ev: seen.append(det.state["asu1"]), delay=2.5
        )
        plat.sim.run(until=5.0)
        det.stop()
        assert seen == [UNREACHABLE]
        assert "asu1" not in det.detected  # never confirmed, no callbacks
        assert det.state["asu1"] == ALIVE  # direct path healed at t=3

    def test_majority_guard_quarantines_minority_anchor(self):
        # Cut the anchor itself off: every other node goes silent at once.
        # Confirming them all would expel the world — the guard must hold.
        plat = ActivePlatform(small_params())
        det = FailureDetector(plat, **ND)
        det.start()
        Injector(plat, FaultPlan([partition(0.5, [], hosts=[0], duration=3.0)])).arm()
        plat.sim.run(until=4.0)
        det.stop()
        assert det.n_quarantine_holds > 0
        assert sum(1 for s in det.state.values() if s == CONFIRMED) * 2 <= len(
            det.nodes
        )

    def test_suspected_gauge_tracks_states(self):
        m = MetricsRegistry()
        plat = ActivePlatform(small_params(), metrics=m)
        det = FailureDetector(plat, **ND)
        det.start()
        Injector(plat, FaultPlan([partition(0.5, [1], duration=1.0)])).arm()
        peaks = []
        plat.sim.schedule(
            lambda _ev: peaks.append(m.gauge("repro_failures_suspected").value),
            delay=0.9,  # mid-cut: suspected or unreachable
        )
        plat.sim.run(until=4.0)
        det.stop()
        assert peaks == [1.0]
        assert m.gauge("repro_failures_suspected").value == 0.0

    def test_clear_readmits_and_unnans_gauges(self):
        m = MetricsRegistry()
        plat = ActivePlatform(small_params(), metrics=m)
        g = m.gauge("probe_gauge", owner="asu1", node="asu1")
        g.set(7.0)
        det = FailureDetector(plat, interval=0.0625, timeout=0.25)
        det.start()
        det.declare_failed(plat.asus[1])
        # Dead owners sample NaN (absent), not a frozen last-known value.
        assert g.dead and np.isnan(g.sample(plat.sim.now))
        det.clear(plat.asus[1])
        det.stop()
        assert "asu1" not in det.detected and det.state["asu1"] == ALIVE
        assert not g.dead and g.sample(plat.sim.now) == 7.0
        assert m.counter("repro_failures_cleared_total").value == 1

    def test_stop_interrupts_beaters_and_probes(self):
        # Satellite regression: a stopped detector must leave no perpetual
        # processes behind — the sim drains to queue exhaustion afterwards.
        plat = ActivePlatform(small_params())
        det = FailureDetector(plat, **ND)
        det.start()
        Injector(plat, FaultPlan([partition(0.5, [1], duration=10.0)])).arm()
        plat.sim.run(until=2.0)  # mid-cut: probes are in flight / stalled
        det.stop()
        before = plat.sim.now
        plat.sim.run()  # queue exhaustion, not until=: nothing may linger
        assert plat.sim.now - before < 1.0
        assert all(p.triggered for p in det._beaters)
        assert all(p.triggered for p in det._procs)
        assert det._monitor.triggered
        det.stop()  # idempotent

    def test_timer_mode_registers_no_suspected_gauge(self):
        # Timer-mode runs must keep byte-identical metric exports.
        m = MetricsRegistry()
        plat = ActivePlatform(small_params(), metrics=m)
        det = FailureDetector(plat, interval=0.05, timeout=0.2)
        assert det._g_suspected is None


# ---------------------------------------------------------------------------
# end-to-end: partitioned sort, byte-identical output
# ---------------------------------------------------------------------------
N = 1 << 12


def make_partition_job(faults, t0, **over):
    params = small_params()
    cfg = DSMConfig.for_n(N, alpha=8, gamma=16)
    defaults = dict(
        policy="sr", seed=0, faults=faults,
        transport="reliable",
        retry_policy=RetryPolicy(timeout=t0 / 50, window=64),
        replication=ReplicationConfig(r=2),
        heartbeat_interval=t0 / 40, heartbeat_timeout=t0 / 10,
        detection_mode="network",
    )
    defaults.update(over)
    return DsmSortJob(params, cfg, **defaults)


@pytest.fixture(scope="module")
def partition_t0():
    """Fault-free makespan of the replicated network-detection path."""
    job = make_partition_job(FaultPlan(), t0=1.0)
    res = job.run_pass1()
    return res.makespan


class TestEndToEndPartition:
    def test_long_cut_expels_heals_and_stays_byte_identical(self, partition_t0):
        t0 = partition_t0
        plan = FaultPlan([partition(0.25 * t0, [1], duration=0.5 * t0)])
        job = make_partition_job(plan, t0)
        res = job.run_pass1(deadline=20.0 * t0)
        assert res.completed
        # The cut outlives the detection horizon: expulsion, then heal-time
        # re-admission under a fresh epoch (genesis=1, expel=2, admit=3).
        assert res.n_readmitted >= 1 and res.view_epoch >= 3
        job.run_pass2()
        job.verify()
        ref = sort_records(concat_records(job.asu_data, job.params.schema))
        assert np.array_equal(job.collected_output(), ref)

    def test_zombie_out_cut_is_fenced(self, partition_t0):
        # Asymmetric "out": the minority hears the world but cannot ack —
        # the classic zombie.  Its writes must be rejected with stale epochs
        # and the output must still be byte-identical.
        t0 = partition_t0
        plan = FaultPlan(
            [partition(0.25 * t0, [1], duration=0.5 * t0, asymmetry="out")]
        )
        job = make_partition_job(plan, t0)
        res = job.run_pass1(deadline=20.0 * t0)
        assert res.completed
        assert res.n_epoch_rejections > 0  # fencing actually exercised
        job.run_pass2()
        job.verify()
        ref = sort_records(concat_records(job.asu_data, job.params.schema))
        assert np.array_equal(job.collected_output(), ref)

    def test_partitioned_run_is_deterministic(self, partition_t0):
        t0 = partition_t0

        def one():
            plan = FaultPlan([partition(0.25 * t0, [1], duration=0.5 * t0)])
            job = make_partition_job(plan, t0)
            res = job.run_pass1(deadline=20.0 * t0)
            return (
                res.makespan,
                job.platform.sim.n_events_processed,
                res.view_epoch,
                res.n_epoch_rejections,
            )

        assert one() == one()


# ---------------------------------------------------------------------------
# the membership seam: one decision per FT pass, no branch after it
# ---------------------------------------------------------------------------
SEAM = {
    "confirmed", "readmitted", "producer_fenced", "must_reroute", "validate",
    "is_member", "counters",
}
MEMBERSHIP_FORKS = re.compile(
    r"view is (not )?None|self\.view\b|job\.view\b|_fenced_asus|_fence_asu_ft"
    r"|_on_readmit_ft|_producer_fenced"
)


class TestMembershipSeam:
    def test_nothing_in_the_engine_asks_which_membership_it_holds(self):
        files = ["dsmsort/runtime.py", "dsmsort/durability.py",
                 *sorted(f"replica/{p.name}" for p in (SRC / "replica").glob("*.py"))]
        hits = [
            f"{rel}:{i}: {line.strip()}"
            for rel in files
            for i, line in enumerate((SRC / rel).read_text().splitlines(), 1)
            if MEMBERSHIP_FORKS.search(line)
        ]
        assert not hits, "\n".join(hits)

    def test_the_engine_reads_the_detection_mode_at_one_build_site(self):
        init = inspect.getsource(DsmSortJob.__init__)
        methods = inspect.getsource(DsmSortJob).replace(init, "")
        assert methods.count("detection_mode ==") == 1
        assert 'self.detection_mode == "network"' in inspect.getsource(
            DsmSortJob._run_pass1_ft
        )

    def test_fail_stop_answers_every_seam_call_as_fencing_does(self):
        fail_stop, fencing = _public_callables(FailStop), _public_callables(EpochFencing)
        assert set(fail_stop) == SEAM
        assert fail_stop == {name: fencing[name] for name in SEAM}

    def test_fail_stop_is_stateless_and_fences_nothing(self):
        assert FailStop.__slots__ == () and not hasattr(FAIL_STOP, "__dict__")
        assert FAIL_STOP.validate("asu0", op="run write") is None
        assert FAIL_STOP.is_member("asu0")
        assert not FAIL_STOP.producer_fenced(1, 0) and not FAIL_STOP.must_reroute(0)
        assert FAIL_STOP.counters() == {
            "n_epoch_rejections": 0, "n_readmitted": 0, "view_epoch": 0,
        }


class TestMustReroutePins:
    """The one policy the two sides answer differently, pinned on the golden
    row each answer decides: a fragment batch whose destination host was
    confirmed while its producer waited on the window or CPU."""

    def test_fail_stop_lets_the_dead_letter_replay_it(self):
        # Rerouting here as well moves this row (replays, retransmits,
        # breaker trips, duplicates dropped and the makespan all change).
        golden = json.loads((BASELINE / "SWEEP_chaos.json").read_text())
        row = next(c for c in golden["cases"] if c["app"] == "dsmsort" and c["seed"] == 10)
        case = _chaos_case((
            "dsmsort", 10, golden["n_records"], golden["baselines"]["dsmsort"],
            golden["amp_bound"],
        ))
        assert canonical_json(case) == canonical_json(row)

    def test_fencing_reroutes_what_a_cut_would_swallow(self):
        # Posting into the cut instead moves this row's makespan.
        golden = json.loads((BASELINE / "SWEEP_partition.json").read_text())
        ref = Reference(
            golden["n_records"], golden["seed"], golden["t0"], golden["reference_sha256"]
        )
        point = _partition_grid(ref, 1)[35]
        assert point == ((), (1,), 0.5, "in", True)
        case = _partition_point((ref, point))
        assert canonical_json(case) == canonical_json(golden["cases"][35])
