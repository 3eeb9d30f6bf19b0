"""Tests for the emulated distributed DSM-Sort (pass 1 + pass 2)."""

import numpy as np
import pytest

from repro.core import ConfigSolver, DSMConfig, predict_pass1
from repro.dsmsort import DsmSortJob, adaptive_config, run_adaptive
from repro.dsmsort.journal import NO_JOURNAL
from repro.dsmsort.membership import FAIL_STOP
from repro.emulator.params import SystemParams
from repro.faults import FaultPlan
from repro.resilience import RetryPolicy


def fig_params(**over):
    """The calibrated cost family used by the figure benches (see bench.fig9)."""
    base = dict(
        n_hosts=1,
        n_asus=8,
        cycles_per_compare=100.0,
        cycles_per_record=300.0,
        cycles_per_net_byte=1.5,
        cycles_per_io_byte=0.5,
        block_records=1024,
    )
    base.update(over)
    return SystemParams(**base)


N = 1 << 15  # 32k records keeps unit tests fast


def make_job(n=N, **over):
    defaults = dict(policy="static", workload="uniform", active=True, seed=1)
    params = over.pop("params", fig_params())
    cfg = over.pop("config", DSMConfig.for_n(n, alpha=16, gamma=16))
    defaults.update(over)
    return DsmSortJob(params, cfg, **defaults)


class TestPass1:
    def test_produces_expected_run_count(self):
        job = make_job()
        res = job.run_pass1()
        assert res.makespan > 0
        # ~N/beta full runs plus partial flush runs (at most alpha*H extra).
        expected_full = N // job.config.beta
        assert expected_full <= res.n_runs <= expected_full + job.config.alpha
        assert res.net_bytes > 0

    def test_runs_really_sorted(self):
        job = make_job()
        job.run_pass1()
        total = 0
        for d in range(job.params.n_asus):
            for _bucket, run in job.runs_on_asu[d]:
                keys = run["key"]
                assert np.all(keys[:-1] <= keys[1:])
                total += run.shape[0]
        assert total == (N // job.params.n_asus) * job.params.n_asus

    def test_run_buckets_respect_splitters(self):
        job = make_job()
        job.run_pass1()
        splitters = job.dist.splitters
        for d in range(job.params.n_asus):
            for bucket, run in job.runs_on_asu[d]:
                keys = run["key"].astype(np.uint64)
                if bucket > 0:
                    assert keys.min() > splitters[bucket - 1]
                if bucket < len(splitters):
                    assert keys.max() <= splitters[bucket]

    def test_deterministic(self):
        r1 = make_job().run_pass1()
        r2 = make_job().run_pass1()
        assert r1.makespan == r2.makespan
        assert r1.host_util == r2.host_util

    def test_emulation_close_to_prediction(self):
        # The emulator charges exactly the predictor's per-record costs, so
        # makespan should approach n / bottleneck_rate (plus fill/drain).
        job = make_job(params=fig_params(n_asus=4))
        res = job.run_pass1()
        pred = predict_pass1(job.params, job.config.alpha, job.config.beta)
        assert res.makespan == pytest.approx(pred.time_for(N), rel=0.30)

    def test_host_saturates_with_many_asus(self):
        # Enough blocks per ASU that steady state dominates fill/drain.
        n = 1 << 18
        job = make_job(n=n, params=fig_params(n_asus=32),
                       config=DSMConfig.for_n(n, alpha=16, gamma=16))
        res = job.run_pass1()
        assert res.host_util[0] > 0.85

    def test_asus_bottleneck_with_few_asus(self):
        n = 1 << 17
        job = make_job(n=n, params=fig_params(n_asus=2),
                       config=DSMConfig.for_n(n, alpha=256, gamma=16))
        res = job.run_pass1()
        assert res.host_util[0] < 0.7
        assert max(res.asu_cpu_util) > 0.85

    def test_active_beats_passive_with_many_asus(self):
        params = fig_params(n_asus=32)
        cfg = DSMConfig.for_n(N, alpha=64, gamma=16)
        t_active = DsmSortJob(params, cfg, active=True, seed=1).run_pass1().makespan
        t_passive = DsmSortJob(params, cfg, active=False, seed=1).run_pass1().makespan
        assert t_active < t_passive

    def test_passive_beats_active_with_few_asus_high_alpha(self):
        params = fig_params(n_asus=2)
        cfg = DSMConfig.for_n(N, alpha=256, gamma=16)
        t_active = DsmSortJob(params, cfg, active=True, seed=1).run_pass1().makespan
        t_passive = DsmSortJob(params, cfg, active=False, seed=1).run_pass1().makespan
        assert t_active > t_passive  # the Figure-9 slowdown region

    def test_util_series_shape(self):
        res = make_job(params=fig_params(n_hosts=2, n_asus=4)).run_pass1(util_dt=0.05)
        assert len(res.host_util_series) == 2
        for series in res.host_util_series:
            assert all(0.0 <= u <= 1.0 + 1e-9 for _t, u in series)


class TestEndToEnd:
    def test_full_sort_verifies(self):
        job = make_job(params=fig_params(n_hosts=2, n_asus=4))
        job.run_pass1()
        res2 = job.run_pass2()
        assert res2.makespan > 0
        job.verify()

    def test_full_sort_verifies_with_sr_routing(self):
        job = make_job(policy="sr", params=fig_params(n_hosts=2, n_asus=4))
        job.run_pass1()
        job.run_pass2()
        job.verify()

    def test_full_sort_verifies_passive(self):
        job = make_job(active=False, params=fig_params(n_hosts=2, n_asus=4))
        job.run_pass1()
        job.run_pass2()
        job.verify()

    def test_gamma_split(self):
        cfg = DSMConfig(
            n_records=N, alpha=8, beta=N // (8 * 16), gamma=16, gamma1=4
        )
        job = make_job(config=cfg)
        job.run_pass1()
        res2 = job.run_pass2()
        job.verify()
        assert res2.n_partial_runs > 0

    def test_pass2_before_pass1_rejected(self):
        with pytest.raises(RuntimeError, match="run_pass1 first"):
            make_job().run_pass2()

    def test_collected_before_pass2_rejected(self):
        job = make_job()
        job.run_pass1()
        with pytest.raises(RuntimeError, match="run_pass2 first"):
            job.collected_output()


class TestVerifyCatches:
    """``verify()`` reads keys only; it must still catch what it caught."""

    @staticmethod
    def finished_job():
        job = make_job(n=1 << 12, policy="sr", params=fig_params(n_hosts=2, n_asus=4),
                       config=DSMConfig.for_n(1 << 12, alpha=4, gamma=16))
        job.run_pass1()
        job.run_pass2()
        return job

    @staticmethod
    def a_run(job):
        """A final run with at least two distinct keys at its ends."""
        run = job.final_buckets[1][0]
        assert run.shape[0] > 2 and run["key"][0] < run["key"][-1]
        return run

    def test_untouched_job_passes(self):
        job = self.finished_job()
        assert sorted(job.final_buckets) == [0, 1, 2, 3]
        job.verify()
        job.verify()  # and reading twice changes nothing

    def test_empty_job_passes(self):
        # No record reaches a final bucket: there are no key columns to join.
        cfg = DSMConfig(n_records=0, alpha=4, beta=4, gamma=4)
        job = make_job(params=fig_params(n_asus=2), config=cfg)
        job.run_pass1()
        job.run_pass2()
        assert not job.final_buckets
        job.verify()

    def test_swapped_records_are_unsorted(self):
        job = self.finished_job()
        run = self.a_run(job)
        run[[0, -1]] = run[[-1, 0]]
        with pytest.raises(AssertionError, match="not sorted"):
            job.verify()

    def test_dropped_record_is_a_count_mismatch(self):
        job = self.finished_job()
        job.final_buckets[1][0] = self.a_run(job)[1:]
        with pytest.raises(AssertionError, match=r"has 4095 records, input had 4096"):
            job.verify()

    def test_overwritten_key_is_not_a_permutation(self):
        job = self.finished_job()
        keys = self.a_run(job)["key"]
        i = int(np.nonzero(keys[:-1] < keys[1:])[0][0])
        keys[i] = keys[i + 1]  # still sorted, same count, one key lost
        with pytest.raises(AssertionError, match="not a permutation"):
            job.verify()

    def test_exchanged_buckets_are_unsorted(self):
        job = self.finished_job()
        fb = job.final_buckets
        fb[1], fb[2] = fb[2], fb[1]
        with pytest.raises(AssertionError, match="not sorted"):
            job.verify()

    def test_verify_before_pass2_rejected(self):
        job = make_job(n=1 << 12)
        with pytest.raises(RuntimeError, match="run_pass2 first"):
            job.verify()
        job.run_pass1()
        with pytest.raises(RuntimeError, match="run_pass2 first"):
            job.verify()


class TestSkewAndRouting:
    def test_static_routing_unbalances_under_skew(self):
        params = fig_params(n_hosts=2, n_asus=8)
        cfg = DSMConfig.for_n(N, alpha=16, gamma=16)
        job = DsmSortJob(
            params, cfg, policy="static",
            workload="half_uniform_half_exponential", seed=3,
        )
        res = job.run_pass1()
        assert res.imbalance > 1.3  # most records land on host 0's buckets

    def test_sr_routing_balances_under_skew(self):
        params = fig_params(n_hosts=2, n_asus=8)
        cfg = DSMConfig.for_n(N, alpha=16, gamma=16)
        job = DsmSortJob(
            params, cfg, policy="sr",
            workload="half_uniform_half_exponential", seed=3,
        )
        res = job.run_pass1()
        assert res.imbalance < 1.1

    def test_sr_finishes_earlier_than_static_under_skew(self):
        # The headline Figure-10 result.
        params = fig_params(n_hosts=2, n_asus=8)
        cfg = DSMConfig.for_n(N, alpha=16, gamma=16)
        kw = dict(workload="half_uniform_half_exponential", seed=3)
        t_static = DsmSortJob(params, cfg, policy="static", **kw).run_pass1().makespan
        t_sr = DsmSortJob(params, cfg, policy="sr", **kw).run_pass1().makespan
        assert t_sr < t_static

    def test_jsq_also_balances(self):
        params = fig_params(n_hosts=2, n_asus=8)
        cfg = DSMConfig.for_n(N, alpha=16, gamma=16)
        job = DsmSortJob(
            params, cfg, policy="jsq",
            workload="half_uniform_half_exponential", seed=3,
        )
        res = job.run_pass1()
        assert res.imbalance < 1.2


class TestAdaptive:
    def test_adaptive_config_scales_alpha_with_asus(self):
        few = adaptive_config(fig_params(n_asus=2), N)
        many = adaptive_config(fig_params(n_asus=64), N)
        assert many.alpha > few.alpha

    def test_run_adaptive_executes_and_verifies(self):
        cfg, res, job = run_adaptive(
            fig_params(n_asus=4), N, gamma=16, verify=True, seed=2
        )
        assert res.makespan > 0
        assert cfg.alpha in ConfigSolver(fig_params(n_asus=4)).feasible_alphas()

    def test_adaptive_at_least_as_fast_as_fixed(self):
        params = fig_params(n_asus=16)
        _cfg, res_adapt, _ = run_adaptive(params, N, gamma=16, seed=2)
        t_fixed = DsmSortJob(
            params, DSMConfig.for_n(N, alpha=4, gamma=16), seed=2
        ).run_pass1().makespan
        assert res_adapt.makespan <= t_fixed * 1.05


class TestPayloadIntegrity:
    def test_payloads_travel_with_their_keys(self):
        """Records are not just key multisets: each 124-byte payload must
        still be attached to its original key after the emulated sort."""
        import numpy as np

        params = fig_params(n_asus=4, n_hosts=2)
        n = 1 << 13
        rng = np.random.default_rng(77)
        keys = rng.integers(0, 2**32 - 1, n, dtype=np.uint64).astype("<u4")
        records = np.zeros(n, dtype=params.schema.dtype)
        records["key"] = keys
        # Stamp each payload with a unique little-endian serial number.
        serials = np.arange(n, dtype="<u8")
        payload = np.zeros((n, params.schema.payload_size), dtype=np.uint8)
        payload[:, :8] = serials.view(np.uint8).reshape(n, 8)
        records["payload"] = payload.view("V124").ravel()

        per = n // 4
        asu_data = [records[i * per : (i + 1) * per] for i in range(4)]
        cfg = DSMConfig.for_n(n, alpha=8, gamma=8)
        job = DsmSortJob(params, cfg, policy="sr", seed=2, asu_data=asu_data)
        job.run_pass1()
        job.run_pass2()
        job.verify()

        out = job.collected_output()
        out_serials = (
            np.frombuffer(out["payload"].tobytes(), dtype=np.uint8)
            .reshape(n, params.schema.payload_size)[:, :8]
            .copy()
            .view("<u8")
            .ravel()
        )
        # Every record's key must equal the key the serial started with.
        assert np.array_equal(out["key"].astype("<u4"), keys[out_serials])
        # And every serial appears exactly once.
        assert np.array_equal(np.sort(out_serials), serials)


# --------------------------------------------------------------------------
# Differential oracle: the bare pass-1 engine is the reference the
# fault-tolerant engine is tested against (DESIGN.md, "Two termination
# protocols").  With an empty FaultPlan the FT engine must form the same
# runs on the same ASUs; the only sanctioned differences are the host->ASU
# EOF messages (bare hosts send them, FT hosts do not — FT completion is a
# durable-record count) and the few EOF charges of skew they cause.
def _differential_cells():
    import random

    rnd = random.Random(16)
    cells = []
    for _ in range(30):
        cells.append((
            1 << rnd.choice([11, 12, 13]),
            rnd.choice([4, 8, 16, 64]),
            rnd.choice([2, 4, 8, 16]),
            rnd.choice([1, 2, 3]),
            rnd.choice(["static", "sr", "jsq", "weighted", "round_robin", "rc"]),
            rnd.choice([
                "uniform", "half_uniform_half_exponential", "exponential",
                "zipf", "gaussian",
            ]),
            rnd.randrange(100),
        ))
    return cells


class TestBareVsEmptyPlanFT:
    @pytest.mark.parametrize(
        "n,alpha,D,H,policy,workload,seed", _differential_cells()
    )
    def test_same_runs_modulo_eof_protocol(self, n, alpha, D, H, policy, workload, seed):
        from repro.faults import FaultPlan

        params = fig_params(n_asus=D, n_hosts=H)
        cfg = DSMConfig.for_n(n, alpha=alpha, gamma=16)
        kw = dict(policy=policy, workload=workload, seed=seed)
        bare = DsmSortJob(params, cfg, **kw)
        rb = bare.run_pass1()
        ft = DsmSortJob(params, cfg, faults=FaultPlan(), **kw)
        rf = ft.run_pass1()

        def keyed(job):
            return [[(b, run.tobytes()) for b, run in runs] for runs in job.runs_on_asu]

        kb, kf = keyed(bare), keyed(ft)
        if H > D:
            # Hosts h and h + D start their stripe on the same ASU, so their
            # flush-phase runs reach one consumer within the EOF skew and may
            # swap arrival order: same runs on the same ASUs, as multisets.
            assert [sorted(x) for x in kb] == [sorted(x) for x in kf]
            assert abs(rb.makespan - rf.makespan) < 1e-3 * rb.makespan
        else:
            assert kb == kf
            # EOF-count vs durable-count termination: at most one ASU-side
            # EOF charge per (ASU, host) pair, in either direction.
            eof_charge = 16 * params.cycles_per_net_byte / params.asu_clock_hz
            assert abs(rb.makespan - rf.makespan) <= D * H * eof_charge * (1 + 1e-9)
        assert rb.n_runs == rf.n_runs
        assert rb.imbalance == rf.imbalance
        assert rb.net_bytes - rf.net_bytes == 16 * D * H
        assert rf.completed and rf.n_durable == (n // D) * D
        assert rb.n_durable == -1 and rb.fault_report is None
        assert (
            rf.n_replayed_frags, rf.n_reemitted_runs, rf.n_takeover_blocks,
            rf.n_promoted_runs, rf.n_repaired_copies, rf.n_epoch_rejections,
        ) == (0, 0, 0, 0, 0, 0)


# --------------------------------------------------------------------------
# The mode matrix: MODE_RULES is the constructor's validator and this test's
# input.  Every combination of the five optional layers either sorts and
# verifies, or is rejected by exactly one named rule.
def _mode_matrix():
    import itertools

    return list(itertools.product(
        ("direct", "reliable"), ("timer", "network"), (False, True),
        (False, True), (False, True),
    ))


class TestModeMatrix:
    N = 1 << 12

    def _kwargs(self, transport, detection, replicated, speculative, journaled):
        from repro.recovery.manifest import RunManifest
        from repro.recovery.speculate import SpeculationPolicy
        from repro.replica import ReplicationConfig

        kw = dict(transport=transport, detection_mode=detection)
        if replicated:
            kw["replication"] = ReplicationConfig(r=2)
        if speculative:
            kw["speculation"] = SpeculationPolicy(interval=0.004, warmup=0.01, seed=0)
        if journaled:
            kw["manifest"] = RunManifest()
        return kw

    @pytest.mark.parametrize(
        "transport,detection,replicated,speculative,journaled", _mode_matrix()
    )
    def test_every_combination_sorts_or_names_its_rule(
        self, transport, detection, replicated, speculative, journaled
    ):
        from types import SimpleNamespace

        from repro.dsmsort.runtime import MODE_RULES
        from repro.faults import FaultPlan

        params = fig_params(n_asus=4, n_hosts=2)
        cfg = DSMConfig.for_n(self.N, alpha=8, gamma=16)
        kw = self._kwargs(transport, detection, replicated, speculative, journaled)
        layered = transport == "reliable" or detection == "network" or len(kw) > 2
        m = SimpleNamespace(
            params=params, active=True, background_asu_duty=0.0,
            faults=FaultPlan() if layered else None,
            transport=transport, detection_mode=detection,
            replication=kw.get("replication"), speculation=kw.get("speculation"),
            retry_policy=None,
        )
        hits = [(name, msg) for name, rejects, msg in MODE_RULES if rejects(m)]
        if hits:
            assert [name for name, _ in hits] == ["network-excludes-speculation"]
            with pytest.raises(ValueError) as err:
                DsmSortJob(params, cfg, policy="sr", seed=3, **kw)
            assert str(err.value) == hits[0][1].format(m=m, hit=True)
            return
        job = DsmSortJob(
            params, cfg, policy="sr", seed=3,
            heartbeat_interval=0.002, heartbeat_timeout=0.008, **kw
        )
        assert (job.faults is not None) == layered
        # The journal decision is made once, here: the caller's manifest or
        # the shared null object — never something built per job.
        assert (job._journal is job.manifest) == journaled
        assert journaled or job._journal is NO_JOURNAL
        r1 = job.run_pass1()
        assert r1.completed
        # So is the membership decision, once per pass: epoch fencing exactly
        # when detection travels the network, else the shared fail-stop side.
        assert (job._members is FAIL_STOP) == (detection == "timer")
        # Whatever the other layers, only the reliable transport has a channel
        # to report on (and fault-free, neither trips a breaker).
        assert (r1.channel_stats is None) == (transport == "direct")
        assert r1.n_breaker_trips == 0
        job.run_pass2()
        job.verify()

    @pytest.mark.parametrize("bad,rule", [
        (dict(background_asu_duty=1.0), "duty-range"),
        (dict(active=False, transport="reliable"), "ft-needs-active"),
        (dict(transport="carrier-pigeon"), "transport-name"),
        (dict(detection_mode="psychic"), "detection-name"),
        (dict(faults=FaultPlan(), retry_policy=RetryPolicy()),
         "retry-policy-needs-reliable"),
    ])
    def test_value_rules_reject_by_name(self, bad, rule):
        from repro.dsmsort.runtime import MODE_RULES

        message = next(msg for name, _rejects, msg in MODE_RULES if name == rule)
        with pytest.raises(ValueError) as err:
            make_job(n=self.N, **bad)
        assert str(err.value).startswith(message.split("{")[0])

    def test_rule_names_are_unique(self):
        from repro.dsmsort.runtime import MODE_RULES

        names = [name for name, _rejects, _msg in MODE_RULES]
        assert len(names) == len(set(names)) == 9
