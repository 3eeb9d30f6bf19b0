"""Tests for repro.resilience.chaos: the chaos soak harness and its CLI.

Small record counts keep the soak fast; the harness itself is deterministic,
so every assertion here is exact (no flaky tolerance bands).
"""

import json

import pytest

from repro.__main__ import main
from repro.core import DSMConfig
from repro.dsmsort import DsmSortJob
from repro.faults import FaultPlan, crash_asu, drop_msg
from repro.resilience import RetryPolicy
from repro.resilience.chaos import _filterscan_job, _policy_for, chaos_params, run_chaos

N_SMALL = 1 << 12


class TestTransportValidation:
    def _job(self, **kw):
        params = chaos_params()
        cfg = DSMConfig.for_n(N_SMALL, alpha=8, gamma=16)
        return DsmSortJob(params, cfg, policy="sr", seed=0, **kw)

    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError, match="transport must be"):
            self._job(transport="carrier-pigeon")

    def test_reliable_without_a_plan_is_the_empty_plan(self):
        derived = self._job(transport="reliable")
        explicit = self._job(transport="reliable", faults=FaultPlan())
        assert derived.faults is not None and not derived.faults.kinds()
        a, b = vars(derived.run_pass1()), vars(explicit.run_pass1())
        a.pop("fault_report"), b.pop("fault_report")
        assert a == b

    def test_lossy_plan_requires_reliable_transport(self):
        plan = FaultPlan([drop_msg(0.1, 0, 1, 0.05)])
        with pytest.raises(ValueError, match="transport='reliable'"):
            self._job(faults=plan)

    def test_crash_only_plan_still_allowed_on_direct(self):
        # Fail-stop recovery predates the reliable transport and must keep
        # working without it.
        self._job(faults=FaultPlan([crash_asu(0.5, 1)]))

    def test_retry_policy_requires_reliable_transport(self):
        # The direct transport never retries; a policy it would silently
        # ignore is a caller's mistake.
        with pytest.raises(ValueError, match="takes no policy"):
            self._job(faults=FaultPlan(), retry_policy=RetryPolicy())
        assert self._job(transport="reliable").retry_policy is None  # the default

    def test_deadline_requires_fault_mode(self):
        with pytest.raises(ValueError, match="deadline"):
            self._job().run_pass1(deadline=1.0)


class TestReliableFilterScan:
    """The chaos app's filter-scan: ``FilterScanJob`` on the reliable mesh."""

    def test_fault_free_exact_multiset(self):
        job = _filterscan_job(N_SMALL, RetryPolicy())
        res, out = job.run()
        assert res.completed
        job.verify(out)
        assert res.n_degraded_blocks == 0

    def test_exact_multiset_under_drop_window(self):
        t0 = _filterscan_job(N_SMALL, RetryPolicy()).run()[0].makespan
        # Fragment traffic is front-loaded, so the window must open at t=0
        # to catch first transmissions (retries then land after it closes).
        plan = FaultPlan(
            [drop_msg(0.0, h, d, 0.5 * t0) for h in range(2) for d in range(4)]
        )
        job = _filterscan_job(N_SMALL, RetryPolicy(), faults=plan)
        res, out = job.run(deadline=12.0 * t0)
        assert res.completed
        job.verify(out)
        assert res.channel_stats["n_retransmits"] > 0

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_a_block_retransmitted_after_its_eof_still_counts(self, k):
        # A drop window as long as k fault-free scans: the EOF that follows
        # a dropped block is delivered first, and the sink must keep waiting
        # for the block's retransmission instead of stopping at the D-th EOF.
        t0 = _filterscan_job(N_SMALL, RetryPolicy()).run()[0].makespan
        plan = FaultPlan([drop_msg(0.0, 0, d, k * t0) for d in range(4)])
        job = _filterscan_job(N_SMALL, _policy_for(t0), faults=plan)
        res, out = job.run(deadline=12.0 * t0)
        assert res.completed
        job.verify(out)

    def test_breaker_open_links_ship_raw_blocks_for_the_host_to_filter(self):
        n = 1 << 13
        t0 = _filterscan_job(n, RetryPolicy()).run()[0].makespan
        # A two-message window and a short timeout trip the breakers within
        # the drop window, so some active blocks go out unfiltered.
        policy = RetryPolicy(timeout=t0 / 50, max_backoff=t0 / 10, window=2)
        plan = FaultPlan([drop_msg(0.0, 0, d, 0.5 * t0) for d in range(4)])
        job = _filterscan_job(n, policy, faults=plan)
        res, out = job.run(deadline=20.0 * t0)
        assert res.completed
        job.verify(out)
        assert (res.n_degraded_blocks, res.n_breaker_trips) == (7, 9)
        assert res.n_selected == out.shape[0] == 4046


class TestRunChaos:
    def test_small_soak_all_invariants_hold(self):
        report = run_chaos(seeds=2, n_records=N_SMALL, progress=None)
        assert len(report.cases) == 4  # 2 seeds x 2 apps
        assert report.violations() == []
        assert report.ok
        for case in report.cases:
            assert case["ok"] and all(case["invariants"].values())
        # At least one case actually exercised the lossy machinery —
        # otherwise the soak proves nothing.
        assert any(c["n_retransmits"] > 0 for c in report.cases)

    def test_negative_control_loses_records(self):
        report = run_chaos(
            seeds=[0], apps=("dsmsort",), n_records=N_SMALL, progress=None
        )
        nc = report.negative_control
        assert nc is not None and nc["ok"]
        assert not nc["completed"] and nc["lost_records"] > 0
        assert nc["n_durable"] + nc["lost_records"] == nc["n_total"]

    def test_report_is_byte_identical_across_runs(self):
        kw = dict(seeds=[0, 5], apps=("filterscan",), n_records=N_SMALL,
                  negative_control=False)
        a = run_chaos(**kw)
        b = run_chaos(**kw)
        assert a.to_json() == b.to_json()

    def test_report_round_trips_through_json(self):
        report = run_chaos(
            seeds=[0], apps=("filterscan",), n_records=N_SMALL,
            negative_control=False,
        )
        doc = json.loads(report.to_json())
        assert doc["schema_version"] == report.schema_version
        assert doc["apps"] == ["filterscan"]
        assert doc["seeds"] == [0]
        assert len(doc["cases"]) == 1
        assert doc["cases"][0]["invariants"]["exact_multiset"] is True

    def test_violation_flips_report_not_ok(self):
        # An absurd amplification bound (just above 1.0) cannot hold under a
        # drop-heavy schedule: the report must say so, loudly.
        report = run_chaos(
            seeds=[0], apps=("dsmsort",), n_records=N_SMALL,
            amp_bound=1.0001, negative_control=False,
        )
        assert not report.ok
        assert any("amplification_bounded" in v for v in report.violations())
        assert "FAIL" in report.render()

    def test_unknown_app_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos app"):
            run_chaos(seeds=1, apps=("sortbench",), n_records=N_SMALL)


#: fault seeds whose schedule killed a message nobody owned (docs/RESILIENCE.md,
#: "Two ways a message died unheard"): a dropped transfer whose *sender* then
#: crashed (28 and most others), or a batch posted to an already-detected host
#: inside a drop window (108).  Each stalled short of the record count.
LOST_RECORD_SEEDS = (28, 108, 136, 152, 164, 184, 209, 237, 285, 335, 337, 388)


@pytest.fixture(scope="module")
def lost_record_cases():
    report = run_chaos(
        seeds=LOST_RECORD_SEEDS, apps=("dsmsort",), negative_control=False,
        workers=1,
    )
    return {case["seed"]: case for case in report.cases}


class TestNoMessageDiesUnheard:
    @pytest.mark.parametrize("seed", LOST_RECORD_SEEDS)
    def test_schedule_that_lost_records_now_sorts_them_all(
        self, seed, lost_record_cases
    ):
        case = lost_record_cases[seed]
        assert "crash_asu" in case["fault_kinds"] or "crash_host" in case["fault_kinds"]
        held = case["invariants"]
        assert held["completed"] and held["exact_count"] and held["sorted_permutation"]


class TestChaosCli:
    def test_cli_writes_report_and_exits_zero(self, capsys, tmp_path):
        out = tmp_path / "chaos.json"
        rc = main([
            "chaos", "--n", "12", "--seeds", "1", "--out", str(out),
        ])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "PASS" in stdout and "negative control" in stdout
        doc = json.loads(out.read_text())
        assert {c["app"] for c in doc["cases"]} == {"dsmsort", "filterscan"}
        assert doc["negative_control"]["ok"] is True

    def test_cli_exits_nonzero_on_violation(self, capsys, tmp_path):
        out = tmp_path / "chaos.json"
        rc = main([
            "chaos", "--n", "12", "--seeds", "1", "--apps", "dsmsort",
            "--amp-bound", "1.0001", "--no-negative-control",
            "--out", str(out),
        ])
        assert rc == 1
        assert "VIOLATION" in capsys.readouterr().out


class TestRecoveryChaosApps:
    def test_recovery_and_straggler_apps_hold_invariants(self):
        report = run_chaos(
            seeds=[0], apps=("recovery", "straggler"), n_records=N_SMALL,
            negative_control=False, progress=None,
        )
        assert report.ok, report.violations()
        by_app = {c["app"]: c for c in report.cases}
        rec = by_app["recovery"]
        assert rec["invariants"]["byte_identical"]
        assert rec["n_crashes"] >= 1 and rec["invariants"]["no_duplicate_coverage"]
        st = by_app["straggler"]
        assert st["invariants"]["sorted_permutation"]
        assert st["speedup"] >= 1.0
        # the report machinery digests the new apps
        assert "recovery" in report.render()
        json.loads(report.to_json())

    def test_default_apps_tuple_unchanged(self):
        # Existing committed chaos reports must stay byte-identical: the new
        # apps are opt-in, never part of the default sweep.
        import inspect

        sig = inspect.signature(run_chaos)
        assert sig.parameters["apps"].default == ("dsmsort", "filterscan")
