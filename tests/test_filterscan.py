"""Tests for ASU-side filtering (the §2 bandwidth-reduction workload)."""

import inspect

import numpy as np

from repro.apps.filterscan import FilterScanJob
from repro.bench.fig9 import fig9_params


def make_job(selectivity_pct=10, n=1 << 15, d=8, seed=5):
    threshold = int((2**32 - 1) * selectivity_pct / 100)
    return FilterScanJob(
        fig9_params(n_asus=d),
        n_records=n,
        predicate=lambda b, t=threshold: b["key"] < t,
        seed=seed,
    )


class TestFilterScan:
    def test_active_output_matches_direct_evaluation(self):
        job = make_job()
        _stats, out = job.run(active=True)
        job.verify(out)

    def test_passive_output_matches_direct_evaluation(self):
        job = make_job()
        _stats, out = job.run(active=False)
        job.verify(out)

    def test_active_reduces_interconnect_traffic(self):
        job = make_job(selectivity_pct=10)
        s_active, _ = job.run(active=True)
        s_passive, _ = job.run(active=False)
        # ~10% selectivity: active ships ~10% of the bytes.
        assert s_active.net_bytes < 0.15 * s_passive.net_bytes

    def test_traffic_scales_with_selectivity(self):
        lo = make_job(selectivity_pct=5)
        hi = make_job(selectivity_pct=50)
        s_lo, _ = lo.run(active=True)
        s_hi, _ = hi.run(active=True)
        assert s_lo.net_bytes < s_hi.net_bytes

    def test_active_offloads_host(self):
        job = make_job()
        s_active, _ = job.run(active=True)
        s_passive, _ = job.run(active=False)
        assert s_active.host_util < s_passive.host_util

    def test_active_faster_when_host_bound(self):
        # Many ASUs + selective filter: passive saturates the host with
        # per-record predicate work; active leaves almost nothing to do.
        job = make_job(selectivity_pct=5, d=32, n=1 << 16)
        s_active, _ = job.run(active=True)
        s_passive, _ = job.run(active=False)
        assert s_active.makespan < s_passive.makespan

    def test_deterministic(self):
        a, _ = make_job().run(active=True)
        b, _ = make_job().run(active=True)
        assert a.makespan == b.makespan
        assert a.net_bytes == b.net_bytes

    def test_empty_selection(self):
        job = FilterScanJob(
            fig9_params(n_asus=4),
            n_records=1 << 12,
            predicate=lambda b: np.zeros(b.shape[0], dtype=bool),
        )
        stats, out = job.run(active=True)
        assert out.shape[0] == 0
        assert stats.n_selected == 0
        job.verify(out)

    def test_one_app_takes_seven_options(self):
        # The direct and the reliable scan are one class: 6 + 5 options -> 7.
        assert list(inspect.signature(FilterScanJob).parameters) == [
            "params", "n_records", "predicate", "workload", "seed",
            "retry_policy", "faults",
        ]
