"""Tests for repro.metrics: instruments, scraping, exporters, the
registry-fed load manager, and the bench regression gate.

The acceptance bar (docs/METRICS.md): metering a run must not change it —
same-seed makespans are bit-identical with the collector on or off, at any
scrape interval — and the exports themselves must be deterministic, including
under fault injection.
"""

import json
import math

import numpy as np
import pytest

from repro.bench.fig9 import fig9_params
from repro.bench.fig10 import fig10_params
from repro.bench.regress import (
    compare_dirs,
    compare_payloads,
    compare_values,
)
from repro.bench.regress import main as regress_main
from repro.bench.report import SCHEMA_VERSION as BENCH_SCHEMA_VERSION
from repro.core.config import ConfigSolver, DSMConfig
from repro.core.load_manager import LoadManager
from repro.dsmsort import DsmSortJob
from repro.emulator.params import SystemParams
from repro.faults import FaultPlan, crash_asu
from repro.metrics import (
    MetricsRegistry,
    metrics_dict,
    metrics_json,
    prometheus_text,
)
from repro.metrics.registry import derive_owner


def _params(**over):
    base = dict(
        n_hosts=2,
        n_asus=8,
        cycles_per_compare=100.0,
        cycles_per_record=300.0,
        cycles_per_net_byte=1.5,
        cycles_per_io_byte=0.5,
        block_records=1024,
    )
    base.update(over)
    return SystemParams(**base)


HB = dict(heartbeat_interval=0.002, heartbeat_timeout=0.008)


def run_metered(faults=None, interval=0.002, n=1 << 13, seed=9, **over):
    """A metered two-pass DSM-Sort; returns (registry, pass1 result, job)."""
    registry = MetricsRegistry()
    kw = dict(
        policy="sr", seed=seed, metrics=registry, scrape_interval=interval
    )
    if faults is not None:
        kw.update(faults=faults, active=True, **HB)
    kw.update(over)
    job = DsmSortJob(_params(), DSMConfig.for_n(n, alpha=8, gamma=16), **kw)
    r1 = job.run_pass1()
    job.run_pass2()
    job.verify()
    return registry, r1, job


# ---------------------------------------------------------------------------
# Histogram quantiles
# ---------------------------------------------------------------------------
class TestHistogramQuantiles:
    #: one bucket spans a 2**(1/8) ≈ 1.0905 ratio, and the estimate is the
    #: geometric midpoint of the bucket holding the nearest-rank observation,
    #: so it sits within half a bucket (≈4.4%) of that order statistic.
    BUCKET_RATIO = 2 ** (1 / 8)

    def test_quantiles_within_one_bucket_of_exact(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_test_seconds")
        vals = np.random.default_rng(0).lognormal(mean=-7.0, sigma=1.5, size=5000)
        for v in vals:
            h.observe(float(v))
        ordered = np.sort(vals)
        for q in (0.05, 0.25, 0.50, 0.90, 0.95, 0.99):
            exact = float(ordered[max(0, math.ceil(q * len(vals)) - 1)])
            est = h.quantile(q)
            assert exact / self.BUCKET_RATIO <= est <= exact * self.BUCKET_RATIO, (
                q, exact, est,
            )

    def test_quantile_clamps_to_observed_range(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_test_seconds")
        for v in (1.0, 1.01, 1.02):
            h.observe(v)
        assert h.quantile(0.0) >= 1.0
        assert h.quantile(1.0) <= 1.02

    def test_weighted_observations(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_test_seconds")
        h.observe(1.0, n=99)
        h.observe(100.0, n=1)
        assert h.count == 100
        assert h.quantile(0.5) == pytest.approx(1.0, rel=0.1)
        assert h.quantile(1.0) == 100.0
        assert h.mean == pytest.approx((99 + 100) / 100)

    def test_underflow_and_empty(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_test_seconds")
        assert math.isnan(h.quantile(0.5))
        h.observe(0.0)
        h.observe(-2.0)
        h.observe(5.0)
        assert h.underflow == 2
        assert h.quantile(0.1) == -2.0  # min(min, 0.0)
        assert 5.0 / self.BUCKET_RATIO <= h.quantile(1.0) <= 5.0
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_deterministic(self):
        def build():
            reg = MetricsRegistry()
            h = reg.histogram("repro_test_seconds")
            for v in np.random.default_rng(4).exponential(0.01, size=1000):
                h.observe(float(v))
            return h.final()

        assert build() == build()


# ---------------------------------------------------------------------------
# Registry basics
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_derive_owner(self):
        assert derive_owner("asu0.cpu") == "asu0"
        assert derive_owner("mbox:host1") == "host1"
        assert derive_owner("host0") == "host0"

    def test_dead_node_gauge_nan_counter_survives(self):
        reg = MetricsRegistry()
        g = reg.gauge("repro_cpu_utilization", fn=lambda t: 0.5,
                      owner="asu0", node="asu0.cpu")
        c = reg.counter("repro_cpu_cycles_total", owner="asu0", node="asu0.cpu")
        c.inc(100.0)
        assert g.sample(1.0) == 0.5
        reg.mark_dead("asu0")
        assert math.isnan(g.sample(2.0))
        assert c.sample(2.0) == 100.0  # work done before the crash is real

    def test_get_or_create_idempotent_and_typed(self):
        reg = MetricsRegistry()
        a = reg.counter("repro_x_total", node="a")
        assert reg.counter("repro_x_total", node="a") is a
        with pytest.raises(TypeError, match="already registered"):
            reg.gauge("repro_x_total", node="a")

    def test_memo_answers_like_the_canonical_key(self):
        # ``_get`` memoises labels in call order; the series is still named
        # by the sorted, str-rendered key, whatever the spelling.
        reg = MetricsRegistry()
        a = reg.counter("repro_x_total", node="a", stage="s")
        assert reg.counter("repro_x_total", stage="s", node="a") is a
        one = reg.counter("repro_y_total", k=1)
        assert reg.counter("repro_y_total", k="1") is one
        # 1 == 1.0 == True hash alike but render as three series.
        assert reg.counter("repro_y_total", k=True) is not one
        assert reg.counter("repro_y_total", k=1.0) is not one
        assert reg.counter("repro_y_total", k=1) is one
        assert len(reg) == 4
        with pytest.raises(TypeError, match="already registered"):
            reg.histogram("repro_x_total", stage="s", node="a")


# ---------------------------------------------------------------------------
# Metered DSM-Sort: determinism and zero perturbation
# ---------------------------------------------------------------------------
class TestMeteredSort:
    def test_same_seed_metrics_json_byte_identical(self):
        def one() -> str:
            registry, _r1, _job = run_metered()
            return metrics_json(registry, registry.collector)

        a = one()
        assert a == one()
        assert len(a) > 1000

    def test_fault_injected_metrics_json_byte_identical(self):
        def one() -> str:
            plan = FaultPlan([crash_asu(0.02, 3)])
            registry, _r1, _job = run_metered(faults=plan)
            dump = metrics_json(registry, registry.collector)
            assert "asu3" in registry.dead_nodes
            assert registry.get("repro_failures_detected_total").value >= 1
            assert registry.get(
                "repro_faults_injected_total", kind="crash_asu"
            ).value == 1
            return dump

        assert one() == one()

    def test_scrape_interval_does_not_perturb_makespan(self):
        def makespans(metrics=None, interval=None):
            job = DsmSortJob(
                _params(), DSMConfig.for_n(1 << 13, alpha=8, gamma=16),
                policy="sr", seed=9, metrics=metrics, scrape_interval=interval,
            )
            r1 = job.run_pass1()
            r2 = job.run_pass2()
            return (r1.makespan, r2.makespan)

        bare = makespans()
        for dt in (0.01, 0.003, 0.0007):
            assert makespans(MetricsRegistry(), dt) == bare

    def test_dead_node_gauges_read_nan_not_frozen(self):
        plan = FaultPlan([crash_asu(0.02, 3)])
        registry, r1, _job = run_metered(faults=plan)
        detected_at = r1.fault_report.detected["asu3"]
        doc = metrics_dict(registry, registry.collector)
        key = 'repro_cpu_utilization{node="asu3.cpu"}'
        # Final value is absent (null), not the last pre-crash level.
        assert doc["final"][key]["value"] is None
        pts = doc["series"][key]
        before = [v for t, v in pts if t < plan.faults[0].t]
        after = [v for t, v in pts if t > detected_at]
        assert before and all(v is not None for v in before)
        assert after and all(v is None for v in after)
        # A live node keeps reporting through the same window.
        live = doc["series"]['repro_cpu_utilization{node="asu0.cpu"}']
        assert all(v is not None for _t, v in live)

    def test_prometheus_text_renders(self):
        registry, r1, _job = run_metered()
        text = prometheus_text(registry, t=r1.makespan)
        assert "# TYPE repro_cpu_utilization gauge" in text
        assert "# TYPE repro_cpu_cycles_total counter" in text
        assert "# TYPE repro_stage_record_latency_seconds histogram" in text
        assert 'le="+Inf"' in text

    def test_stage_latency_histograms_cover_all_stages(self):
        registry, _r1, _job = run_metered()
        stages = {
            inst.labels["stage"]
            for inst in registry.instruments()
            if inst.name == "repro_stage_record_latency_seconds"
        }
        assert {"distribute", "sort", "write", "premerge", "merge"} <= stages
        for inst in registry.instruments():
            if inst.name == "repro_stage_record_latency_seconds":
                assert inst.count > 0
                assert inst.quantile(0.5) > 0.0


# ---------------------------------------------------------------------------
# LoadManager routes from registry-backed feedback
# ---------------------------------------------------------------------------
class TestLoadManagerFeedback:
    def test_router_arrays_are_registry_storage(self):
        reg = MetricsRegistry()
        lm = LoadManager(_params(), 4, 1, policy="jsq",
                         rng=np.random.default_rng(0), registry=reg)
        gv = reg.gauge_vector("repro_lm_queue_depth_records", 4)
        assert lm.router.outstanding is gv.values
        lm.route(0, 10)
        routed = reg.gauge_vector("repro_lm_routed_records_total", 4)
        assert routed.values.sum() == 10.0
        assert gv.values.sum() == 10.0  # outstanding until completed
        lm.complete(int(np.argmax(gv.values)), 10, busy_cycles=123.0)
        assert gv.values.sum() == 0.0
        busy = reg.gauge_vector("repro_lm_busy_cycles_total", 4)
        assert busy.values.sum() == 123.0

    def test_quarantine_marks_feedback_dead(self):
        reg = MetricsRegistry()
        lm = LoadManager(_params(), 4, 1, policy="sr",
                         rng=np.random.default_rng(0), registry=reg)
        lm.quarantine(2)
        gv = reg.gauge_vector("repro_lm_queue_depth_records", 4)
        assert bool(gv.element_dead[2])
        assert math.isnan(gv.sample_element(2, 0.0))
        assert 2 not in lm.alive_instances()

    def test_makespans_pinned_after_feedback_refactor(self):
        """Same-seed makespans must not move when routing reads registry
        gauges: these constants predate the feedback refactor."""
        n = 1 << 13
        p9 = fig9_params(n_asus=4)
        cfg9 = ConfigSolver(p9, gamma=16).config_for_alpha(n, 16)
        for pol in ("static", "sr"):
            job = DsmSortJob(p9, cfg9, policy=pol, seed=42)
            assert job.run_pass1().makespan == 0.03618833047916658, pol

        p10 = fig10_params(n_asus=4, n_hosts=2)
        cfg10 = ConfigSolver(p10, gamma=16).config_for_alpha(n, 16)
        expected = {
            "static": (0.036068726104166574, 0.012633232083333381, 1.490966796875),
            "sr": (0.03598515256249992, 0.012545419145833379, 1.061767578125),
            "jsq": (0.036131057062499916, 0.01238282266666671, 1.0078125),
        }
        for pol, (m1, m2, imb) in expected.items():
            job = DsmSortJob(p10, cfg10, policy=pol,
                             workload="half_uniform_half_exponential", seed=42)
            r1 = job.run_pass1()
            r2 = job.run_pass2()
            assert (r1.makespan, r2.makespan, r1.imbalance) == (m1, m2, imb), pol


# ---------------------------------------------------------------------------
# Bench regression gate
# ---------------------------------------------------------------------------
class TestRegressGate:
    def payload(self, **over):
        base = {
            "schema_version": BENCH_SCHEMA_VERSION,
            "makespan": 0.5,
            "series": {"a": [1.0, 2.0, 3.0]},
            "label": "quick",
        }
        base.update(over)
        return base

    def test_identical_payloads_pass(self):
        assert compare_payloads(self.payload(), self.payload()) == []

    def test_within_tolerance_passes(self):
        cand = self.payload(makespan=0.5 * 1.01)
        assert compare_payloads(self.payload(), cand, rtol=0.02) == []

    def test_out_of_tolerance_fails(self):
        cand = self.payload(makespan=0.5 * 1.10)
        diffs = compare_payloads(self.payload(), cand, rtol=0.02)
        assert len(diffs) == 1 and diffs[0].path == "$.makespan"

    def test_schema_version_mismatch_fails(self):
        cand = self.payload(schema_version=BENCH_SCHEMA_VERSION + 1)
        diffs = compare_payloads(self.payload(), cand)
        assert diffs and "schema_version" in diffs[0].path

    def test_structural_mismatches(self):
        assert list(compare_values({"a": 1}, {}))[0].note == "missing from candidate"
        assert list(compare_values([1, 2], [1]))[0].note == "length mismatch"
        assert list(compare_values("x", 1.0))[0].note == "type mismatch"
        assert list(compare_values("x", "y"))  # exact string compare

    def test_int_float_compare_numerically(self):
        assert list(compare_values(1, 1.0)) == []

    def test_nan_is_always_a_diff(self):
        nan = float("nan")
        for base, cand in ((1.0, nan), (nan, 1.0), (nan, nan), (0, nan)):
            diffs = list(compare_values({"a": base}, {"a": cand}, rtol=0.5))
            assert [(d.path, d.note) for d in diffs] == [("$.a", "non-finite")]

    def test_infinities_equal_only_to_themselves(self):
        inf = float("inf")
        assert list(compare_values(inf, inf)) == []
        assert list(compare_values(-inf, -inf)) == []
        for base, cand in ((inf, -inf), (inf, 5.0), (5.0, inf), (-inf, 0)):
            assert [d.note for d in compare_values(base, cand, rtol=1.0)] == [
                "non-finite"
            ]

    def test_nan_literal_in_a_file_is_a_malformed_file(self, tmp_path, capsys):
        base = tmp_path / "baseline"
        cand = tmp_path / "cand"
        base.mkdir()
        cand.mkdir()
        self._write(base, "x", self.payload(makespan=1.25))
        # json.dumps writes the non-standard NaN literal by default.
        self._write(cand, "x", self.payload(makespan=float("nan")))
        with pytest.raises(ValueError, match="BENCH_x.json"):
            compare_dirs(str(base), str(cand))
        argv = ["--baseline", str(base), "--candidate", str(cand), "--rtol", "0"]
        assert regress_main(argv) == 2
        err = capsys.readouterr().err
        assert "BENCH_x.json" in err and "NaN" in err

    def _write(self, d, name, payload):
        (d / f"BENCH_{name}.json").write_text(json.dumps(payload))

    def test_compare_dirs_and_main(self, tmp_path, capsys):
        base = tmp_path / "baseline"
        cand = tmp_path / "cand"
        base.mkdir()
        cand.mkdir()
        self._write(base, "a", self.payload())
        self._write(cand, "a", self.payload())
        self._write(cand, "b", self.payload())  # new bench: allowed
        rep = compare_dirs(str(base), str(cand))
        assert rep.ok and rep.new == ["BENCH_b.json"]
        assert regress_main(["--baseline", str(base), "--candidate", str(cand)]) == 0
        assert "PASS" in capsys.readouterr().out

        self._write(cand, "a", self.payload(makespan=1.0))
        assert regress_main(["--baseline", str(base), "--candidate", str(cand)]) == 1
        assert "FAIL" in capsys.readouterr().out

        (cand / "BENCH_a.json").unlink()
        rep = compare_dirs(str(base), str(cand))
        assert not rep.ok and rep.missing == ["BENCH_a.json"]

    def test_missing_baseline_dir_is_distinct_error(self, tmp_path):
        assert regress_main(
            ["--baseline", str(tmp_path / "nope"), "--candidate", str(tmp_path)]
        ) == 2

    def test_committed_baselines_carry_schema_version(self):
        import glob
        import os

        here = os.path.join(os.path.dirname(__file__), "..", "benchmarks", "baseline")
        paths = glob.glob(os.path.join(here, "BENCH_*.json"))
        assert paths, "benchmarks/baseline/ snapshots missing"
        for p in paths:
            with open(p) as fh:
                doc = json.load(fh)
            assert doc["schema_version"] == BENCH_SCHEMA_VERSION
            assert doc["params"]["c"] == 8.0


class TestHistogramSnapshot:
    def _filled(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_test_seconds")
        for v in np.random.default_rng(7).exponential(0.01, size=2000):
            h.observe(float(v))
        return reg, h

    def test_final_carries_count_sum_and_p999(self):
        _reg, h = self._filled()
        doc = h.final()
        assert doc["count"] == 2000
        assert doc["sum"] == pytest.approx(h.sum)
        assert doc["min"] == h.min and doc["max"] == h.max
        assert doc["p99"] <= doc["p999"] <= doc["max"]

    def test_snapshot_is_final_alias(self):
        _reg, h = self._filled()
        assert h.snapshot() == h.final()

    def test_empty_histogram_snapshot(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_test_seconds")
        doc = h.final()
        assert doc["count"] == 0 and doc["sum"] == 0.0
        assert doc["min"] is None and doc["max"] is None
        assert math.isnan(doc["p999"])

    def test_quantile_exact_endpoints(self):
        _reg, h = self._filled()
        assert h.quantile(0.0) == h.min
        assert h.quantile(1.0) == h.max
        h.observe(123.456)
        assert h.quantile(1.0) == 123.456

    def test_prometheus_p999_gauge(self):
        reg, h = self._filled()
        text = prometheus_text(reg, t=1.0)
        assert "# TYPE repro_test_seconds_p999 gauge" in text
        line = next(
            ln for ln in text.splitlines()
            if ln.startswith("repro_test_seconds_p999")
        )
        assert float(line.split()[-1]) == pytest.approx(h.quantile(0.999))
        # count and sum still rendered alongside the new tail gauge
        assert "repro_test_seconds_count 2000" in text
