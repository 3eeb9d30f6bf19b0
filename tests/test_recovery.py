"""Tests for repro.recovery: manifest, checkpoint/restart, speculation, supervisor.

The tentpole proof lives here: a DSM-Sort killed at *any* seeded instant and
resumed from its write-ahead manifest produces output byte-identical to an
uninterrupted run — without re-reading completed shards — and the straggler
speculator's hedged replicas improve makespan on a degraded platform without
ever introducing a duplicate record.
"""

import json

import numpy as np
import pytest

from repro.core import Placement, PipelineJob
from repro.core.config import DSMConfig
from repro.dsmsort.runtime import DsmSortJob
from repro.emulator.params import SystemParams
from repro.faults.injector import FaultPlan, degrade_asu
from repro.functors import Dataflow, MapFunctor
from repro.recovery import (
    ESCALATION_LADDER,
    CheckpointError,
    JobSupervisor,
    RecoverableSort,
    RestartBudget,
    RunManifest,
    SpeculationPolicy,
    crash_coordinator,
    digest_records,
)
from repro.util.records import make_records


def small_params(**over):
    """4 ASUs / 2 hosts with 128-record blocks: fine-grained durability so a
    mid-run kill always leaves a meaningful manifest frontier."""
    base = dict(
        n_hosts=2,
        n_asus=4,
        cycles_per_compare=100.0,
        cycles_per_record=300.0,
        cycles_per_net_byte=1.5,
        cycles_per_io_byte=0.5,
        block_records=128,
    )
    base.update(over)
    return SystemParams(**base)


def small_config(n=1 << 12):
    return DSMConfig.for_n(n, alpha=8, gamma=8)


def run_uninterrupted(params, cfg, *, seed=0, manifest=None):
    """One fault-free two-pass sort; returns (makespan, output, job)."""
    faults = FaultPlan() if manifest is not None else None
    job = DsmSortJob(params, cfg, policy="sr", seed=seed, faults=faults,
                     manifest=manifest)
    r1 = job.run_pass1()
    r2 = job.run_pass2()
    job.verify()
    return r1.makespan + r2.makespan, job.collected_output(), job


def batch(keys):
    from repro.util.records import DEFAULT_SCHEMA

    return make_records(np.asarray(keys, dtype=np.uint32), DEFAULT_SCHEMA)


# ---------------------------------------------------------------- manifest
class TestRunManifest:
    def test_block_and_shard_logs_dedupe(self):
        m = RunManifest()
        m.log_block(0, 0, [(1, 3)])
        m.log_block(0, 0, [(1, 3)])
        m.log_shard_done(0, n_blocks=1)
        m.log_shard_done(0, n_blocks=1)
        assert [e["op"] for e in m.entries] == ["block", "shard"]

    def test_run_durable_requires_registration(self):
        m = RunManifest()
        with pytest.raises(CheckpointError, match="never registered"):
            m.log_run_durable(0, dest=1, payload=batch([1, 2]))

    def test_latest_run_entry_wins_on_rereplication(self):
        m = RunManifest()
        rid = m.new_rid()
        payload = batch([3, 1, 2])
        m.register_run(rid, host=0, bucket=2, frag_keys=[(0, 0, 2)])
        m.log_run_durable(rid, dest=1, payload=payload)
        m.log_run_durable(rid, dest=3, payload=payload)  # re-replicated
        state = m.restore_state()
        assert len(state.live_runs) == 1
        _rid, host, bucket, dest, got = state.live_runs[0]
        assert (host, bucket, dest) == (0, 2, 3)
        assert np.array_equal(got, payload)
        assert state.covered == {(0, 0, 2)}

    def test_purges_revoke_live_runs(self):
        m = RunManifest()
        for rid, (h, d) in enumerate([(0, 1), (1, 2)]):
            m.new_rid()
            m.register_run(rid, host=h, bucket=0, frag_keys=[(rid, 0, 0)])
            m.log_run_durable(rid, dest=d, payload=batch([rid]))
        m.log_purge_asu(1)
        state = m.restore_state()
        assert [r[0] for r in state.live_runs] == [1]
        m.log_purge_host(1)
        assert m.restore_state().live_runs == []

    def test_digest_mismatch_refuses_restore(self):
        m = RunManifest()
        rid = m.new_rid()
        m.register_run(rid, host=0, bucket=0, frag_keys=[(0, 0, 0)])
        m.log_run_durable(rid, dest=0, payload=batch([1, 2, 3]))
        m._payloads[rid] = batch([9, 9, 9])  # bit-rot on the platter
        with pytest.raises(CheckpointError, match="digest mismatch"):
            m.restore_state()

    def test_duplicate_coverage_detected(self):
        m = RunManifest()
        for rid in range(2):
            m.new_rid()
            m.register_run(rid, host=rid, bucket=0, frag_keys=[(0, 0, 0)])
            m.log_run_durable(rid, dest=rid, payload=batch([rid]))
        with pytest.raises(CheckpointError, match="more than one live run"):
            m.check_no_duplicate_coverage()

    def test_json_round_trip_is_canonical(self):
        m = RunManifest()
        rid = m.new_rid()
        m.register_run(rid, host=1, bucket=3, frag_keys=[(2, 1, 3), (2, 2, 3)])
        m.log_run_durable(rid, dest=2, payload=batch([5, 6, 7]))
        m.log_block(2, 1, [(3, 2)])
        m.log_pass1_done(0.125)
        m.log_bucket_merged(3, batch([5, 6, 7]))
        text = m.to_json()
        m2 = RunManifest.from_json(text)
        assert m2.to_json() == text
        assert m2.pass1_complete()
        assert m2.bytes_logged == m.bytes_logged
        s1, s2 = m.restore_state(), m2.restore_state()
        assert len(s2.live_runs) == len(s1.live_runs) == 1
        assert np.array_equal(s2.live_runs[0][4], s1.live_runs[0][4])
        assert set(s2.merged) == {3}
        # new_rid continues past everything journaled, so resumed attempts
        # can never collide with restored run ids
        assert m2.new_rid() == m._next_rid

    def test_from_json_rejects_unknown_format(self):
        with pytest.raises(CheckpointError, match="unrecognized manifest format"):
            RunManifest.from_json(json.dumps({"format": "bogus/9"}))

    @pytest.mark.parametrize("hostile", [
        lambda doc: json.dumps(doc)[:-7],
        lambda doc: json.dumps({"format": doc["format"]}),
        lambda doc: json.dumps([doc]),
        lambda doc: json.dumps({**doc, "entries": [{"rid": 0}]}),
        lambda doc: json.dumps({**doc, "next_rid": "x"}),
        lambda doc: json.dumps({**doc, "payloads": {"0": {**doc["payloads"]["0"], "data": "AAAA"}}}),
        lambda doc: json.dumps({**doc, "payloads": {"0": {**doc["payloads"]["0"], "data": "!!!"}}}),
        lambda doc: json.dumps({**doc, "entries": [{"op": "run"}]}),
        lambda doc: json.dumps({**doc, "entries": [{"op": "bucket"}]}),
        lambda doc: json.dumps({**doc, "entries": [{"op": "pass1"}]}),
        lambda doc: json.dumps({**doc, "entries": [*doc["entries"], {"op": "purge_asu"}]}),
        lambda doc: json.dumps({**doc, "entries": [{"op": "nosuch"}]}),
        lambda doc: json.dumps({**doc, "entries": [{"op": "pass1", "makespan": "x"}]}),
        lambda doc: json.dumps({**doc, "entries": [
            {"op": "shard", "shard": "zero", "n_blocks": 2.5}]}),
        lambda doc: json.dumps({**doc, "entries": [{"op": "pass1", "makespan": 1}]}),
        lambda doc: json.dumps({**doc, "entries": [{"op": "pass1", "makespan": float("nan")}]}),
        lambda doc: json.dumps({**doc, "entries": [{"op": "purge_host", "h": True}]}),
        lambda doc: json.dumps({**doc, "entries": [
            {**doc["entries"][0], "digest": 7, "frags": {}}]}),
    ], ids=[
        "truncated", "format-alone", "a-list", "entry-without-op", "next_rid-not-int",
        "payload-not-whole-records", "payload-not-base64", "hollow-run",
        "hollow-bucket", "hollow-pass1", "hollow-purge_asu", "unknown-op",
        "makespan-a-string", "shard-fields-not-int", "makespan-an-int",
        "makespan-nan", "index-a-bool", "run-digest-and-frags-mistyped",
    ])
    def test_from_json_answers_hostile_input_with_checkpoint_error_only(self, hostile):
        m = RunManifest()
        m.log_run_durable(m.new_run(0, 0, [(0, 0, 0)]), dest=0, payload=batch([1, 2]))
        text = m.to_json()
        assert RunManifest.from_json(text).to_json() == text
        with pytest.raises(CheckpointError, match="malformed manifest"):
            RunManifest.from_json(hostile(json.loads(text)))

    def test_from_json_keeps_the_epoch_a_fenced_run_entry_carries(self):
        from repro.membership import ViewService

        m = RunManifest()
        m.attach_view(ViewService(["asu0"]))
        m.log_run_durable(m.new_run(0, 0, [(0, 0, 0)]), dest=0, payload=batch([1, 2]))
        assert m.entries[-1]["epoch"] == 1
        text = m.to_json()
        assert RunManifest.from_json(text).to_json() == text

    def test_report_summarises_frontier(self):
        m = RunManifest()
        rid = m.new_rid()
        m.register_run(rid, host=0, bucket=0, frag_keys=[(0, 0, 0)])
        m.log_run_durable(rid, dest=0, payload=batch([1, 2]))
        m.log_block(0, 0, [(0, 2)])
        rep = m.report()
        assert rep["n_live_runs"] == 1
        assert rep["n_durable_records"] == 2
        assert rep["n_blocks_complete"] == 1
        assert not rep["pass1_done"]


# ---------------------------------------------------- checkpoint / restart
class TestCheckpointRestart:
    def test_kill_at_any_instant_resumes_byte_identical(self):
        """The tentpole proof: for every kill instant the resumed output is
        byte-identical to the uninterrupted run, with zero duplicate
        fragment coverage in the manifest."""
        params, cfg = small_params(), small_config()
        t0, out_ref, _ = run_uninterrupted(params, cfg)
        for frac in (0.1, 0.25, 0.4, 0.55, 0.7, 0.85, 0.97):
            sort = RecoverableSort(params, cfg, seed=0, policy="sr")
            rep = sort.run_supervised(crashes=[frac * t0])
            assert rep.completed, f"kill at {frac:.2f}*T0 did not recover"
            assert rep.n_attempts == 2 and rep.n_crashes == 1
            sort.verify()
            assert np.array_equal(out_ref, sort.output()), (
                f"kill at {frac:.2f}*T0 diverged from the reference output"
            )
            sort.manifest.check_no_duplicate_coverage()

    def test_resume_skips_completed_shards(self):
        """A late pass-1 kill leaves most shards durable; the resumed attempt
        must re-read strictly less than a cold run (no full re-read)."""
        params, cfg = small_params(), small_config()
        cold = RecoverableSort(params, cfg, seed=0, policy="sr")
        r_cold = cold.attempt()
        assert r_cold.completed
        mk1_cold = r_cold.pass1.makespan
        sort = RecoverableSort(params, cfg, seed=0, policy="sr")
        first = sort.attempt(crash_at=0.9 * mk1_cold)
        assert first.crashed and first.phase == "pass1"
        state = sort.manifest.restore_state()
        assert state.n_durable > 0 and state.blocks_complete
        resumed = sort.attempt()
        assert resumed.completed
        # pass 1 of the resumed attempt is cheaper than a cold pass 1
        # because completed blocks are never re-read or re-shipped
        assert resumed.pass1.makespan < mk1_cold
        assert np.array_equal(cold.output(), sort.output())

    def test_crash_in_pass2_restores_pass1_from_manifest(self):
        params, cfg = small_params(), small_config()
        sort = RecoverableSort(params, cfg, seed=0, policy="sr")
        probe = sort.attempt()  # learn the pass boundaries
        assert probe.completed
        mk1, total = probe.pass1.makespan, probe.makespan
        crash_at = (mk1 + total) / 2  # squarely inside pass 2
        sort2 = RecoverableSort(params, cfg, seed=0, policy="sr")
        first = sort2.attempt(crash_at=crash_at)
        assert first.crashed and first.phase == "pass2"
        assert sort2.manifest.pass1_complete()
        resumed = sort2.attempt()
        assert resumed.completed and resumed.restored_pass1
        # some buckets merged before the kill are adopted, not re-merged
        assert resumed.pass2.n_restored_buckets >= 0
        assert np.array_equal(sort.output(), sort2.output())

    def test_crash_past_completion_is_a_noop(self):
        params, cfg = small_params(), small_config()
        sort = RecoverableSort(params, cfg, seed=0, policy="sr")
        rep = sort.run_supervised(crashes=[1e9])
        assert rep.completed and rep.n_attempts == 1 and rep.n_crashes == 0

    def test_manifest_output_identical_and_overhead_bounded(self):
        """Checkpointing must not perturb the result and must cost <2% of
        the simulated makespan (the journal is write-behind)."""
        params, cfg = small_params(), small_config()
        t_off, out_off, _ = run_uninterrupted(params, cfg)
        t_on, out_on, job = run_uninterrupted(
            params, cfg, manifest=RunManifest()
        )
        assert np.array_equal(out_off, out_on)
        assert job.manifest.pass1_complete()
        overhead = (t_on - t_off) / t_off
        assert overhead < 0.02, f"checkpoint overhead {overhead:.2%} >= 2%"

    def test_coordinator_fault_kind_validates(self):
        with pytest.raises(ValueError, match="index"):
            from repro.faults.injector import Fault

            Fault(t=0.1, kind="crash_coordinator", index=1)
        f = crash_coordinator(0.25)
        FaultPlan([f])  # registered kind: valid in a plan


# ------------------------------------------------------------- speculation
class TestSpeculation:
    def test_policy_validation(self):
        with pytest.raises(ValueError, match="interval"):
            SpeculationPolicy(interval=0.0)

    def test_hedged_straggler_improves_makespan_exactly_once(self):
        """A heavily degraded ASU gets its shard hedged; makespan improves
        and the output stays an exact sorted permutation (no duplicates)."""
        params, cfg = small_params(), small_config(1 << 12)
        plan = FaultPlan([degrade_asu(0.001, 2, duration=0.5, factor=0.15)])

        base = DsmSortJob(params, cfg, policy="sr", seed=0, faults=plan)
        b1 = base.run_pass1()
        b2 = base.run_pass2()
        base.verify()
        mk_base = b1.makespan + b2.makespan

        policy = SpeculationPolicy(interval=0.002, warmup=0.004, seed=0)
        spec = DsmSortJob(
            params, cfg, policy="sr", seed=0, faults=plan, speculation=policy
        )
        s1 = spec.run_pass1()
        s2 = spec.run_pass2()
        spec.verify()  # sorted + exact multiset: hedges added no duplicates
        mk_spec = s1.makespan + s2.makespan

        assert s1.n_hedged_shards >= 1
        assert mk_spec < mk_base
        assert np.array_equal(base.collected_output(), spec.collected_output())
        actions = {s.action for s in spec._speculator.signals}
        assert "hedge" in actions

    def test_fault_free_speculation_is_inert(self):
        """On a healthy platform no replica lags: zero hedges, and the
        output matches the unspeculated baseline exactly."""
        params, cfg = small_params(), small_config(1 << 12)
        _t, out_ref, _ = run_uninterrupted(params, cfg)
        policy = SpeculationPolicy(interval=0.004, warmup=0.01, seed=0)
        job = DsmSortJob(
            params, cfg, policy="sr", seed=0, faults=FaultPlan(),
            speculation=policy,
        )
        r1 = job.run_pass1()
        job.run_pass2()
        job.verify()
        assert r1.n_hedged_shards == 0
        assert np.array_equal(out_ref, job.collected_output())

    def test_speculation_without_a_plan_is_the_empty_plan(self):
        params, cfg = small_params(), small_config()
        policy = SpeculationPolicy(interval=0.004, warmup=0.01, seed=0)
        derived = DsmSortJob(params, cfg, policy="sr", seed=0, speculation=policy)
        explicit = DsmSortJob(
            params, cfg, policy="sr", seed=0, faults=FaultPlan(),
            speculation=policy,
        )
        assert derived.faults is not None and not derived.faults.kinds()
        a, b = vars(derived.run_pass1()), vars(explicit.run_pass1())
        a.pop("fault_report"), b.pop("fault_report")
        assert a == b


# -------------------------------------------- executor straggler steering
class TestExecutorStragglerWatch:
    def _run(self, speculation):
        params = small_params(
            n_hosts=4, asu_ratio=8.0, block_records=1024,
            host_clock_multipliers=(1.0, 1.0, 1.0, 0.15),
        )
        per = (1 << 13) // params.n_asus
        data = [
            make_records(
                (np.arange(per, dtype=np.uint32) * params.n_asus + d),
                params.schema,
            )
            for d in range(params.n_asus)
        ]
        g = Dataflow()
        g.add_stage("bump", MapFunctor(lambda b: b), replicas=4)
        g.connect(Dataflow.SOURCE, "bump", kind="set")
        g.connect("bump", Dataflow.SINK, kind="set")
        p = Placement()
        p.assign("bump", "host", [0, 1, 2, 3])
        job = PipelineJob(params, g, p, data, seed=1, speculation=speculation)
        return job.run()

    def test_steers_around_slow_instance(self):
        base = self._run(None)
        spec = self._run(SpeculationPolicy(interval=0.001, warmup=0.003, seed=0))
        assert spec.makespan < base.makespan
        steered = [s for s in spec.straggler_signals if s.action == "steer"]
        assert 3 in {s.index for s in steered}  # the 0.15x host is flagged
        # steering moves work off the slow replica
        assert (
            spec.records_per_instance["bump"][3]
            < base.records_per_instance["bump"][3]
        )
        # routing changed, records did not
        assert sorted(spec.output["key"].tolist()) == sorted(
            base.output["key"].tolist()
        )

    def test_without_speculation_no_signals(self):
        base = self._run(None)
        assert base.straggler_signals == []


# -------------------------------------------------------------- supervisor
class TestJobSupervisor:
    def test_budget_validation_and_backoff(self):
        with pytest.raises(ValueError):
            RestartBudget(max_restarts=-1)
        with pytest.raises(ValueError):
            RestartBudget(backoff0=-0.1)
        with pytest.raises(ValueError):
            RestartBudget(backoff_factor=0.5)
        b = RestartBudget(backoff0=0.1, backoff_factor=2.0, backoff_cap=0.5)
        assert [b.backoff(k) for k in (1, 2, 3, 4, 5)] == [
            0.1, 0.2, 0.4, 0.5, 0.5
        ]

    def test_escalation_ladder_then_abort(self):
        """Every attempt killed almost immediately: the supervisor walks
        retry -> replace -> restore and finally aborts with a report."""
        params, cfg = small_params(), small_config()
        sort = RecoverableSort(params, cfg, seed=0, policy="sr")
        budget = RestartBudget(max_restarts=3, backoff0=0.01)
        rep = sort.run_supervised(crashes=[1e-4] * 10, budget=budget)
        assert rep.aborted and not rep.completed
        assert rep.n_attempts == 4 and rep.n_crashes == 4
        assert [rung for _i, rung, _p in rep.actions] == [
            "retry", "replace", "restore"
        ]
        assert "restart budget exhausted" in rep.reason
        assert rep.manifest_report is not None
        assert rep.total_backoff == pytest.approx(0.01 + 0.02 + 0.04)
        assert ESCALATION_LADDER == ("retry", "replace", "restore", "abort")

    def test_restore_rung_round_trips_the_manifest(self):
        """The third consecutive failure cold-restores from serialized JSON;
        the job must still complete byte-identically afterwards."""
        params, cfg = small_params(), small_config()
        t0, out_ref, _ = run_uninterrupted(params, cfg)
        sort = RecoverableSort(params, cfg, seed=0, policy="sr")
        rep = sort.run_supervised(
            crashes=[0.5 * t0, 0.2 * t0, 0.2 * t0],
            budget=RestartBudget(max_restarts=5, backoff0=0.01),
        )
        assert rep.completed and rep.n_attempts == 4
        rungs = [rung for _i, rung, _p in rep.actions]
        assert rungs == ["retry", "replace", "restore"]
        assert np.array_equal(out_ref, sort.output())

    def test_supervised_single_crash_recovers_with_one_retry(self):
        params, cfg = small_params(), small_config()
        t0, out_ref, _ = run_uninterrupted(params, cfg)
        sort = RecoverableSort(params, cfg, seed=0, policy="sr")
        rep = sort.run_supervised(crashes=[0.6 * t0])
        assert rep.completed and not rep.aborted
        assert [rung for _i, rung, _p in rep.actions] == ["retry"]
        assert rep.total_virtual_time > sort.total_virtual_time  # backoff paid
        assert np.array_equal(out_ref, sort.output())
