"""Tests for the bench harness: report rendering and small-scale figure runs."""

import pytest

from repro.bench import (
    ascii_plot,
    fig9_params,
    render_series_table,
    render_table,
    run_figure9,
    run_figure10,
)
from repro.bench import fig9
from repro.bench.fig9 import BASELINE_ALPHA, FIG9_ALPHAS, FIG9_ASU_COUNTS, FIG9_GAMMA
from repro.core.config import ConfigSolver
from repro.dsmsort.runtime import DsmSortJob
from repro.emulator.net import Network
from repro.sim import Simulator


class TestRenderers:
    def test_render_table_alignment(self):
        out = render_table(["x", "value"], [[1, 0.5], [20, 1.25]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "value" in lines[1]
        assert "0.500" in out and "1.250" in out

    def test_render_series_table(self):
        out = render_series_table("d", [2, 4], {"a": [1.0, 2.0], "b": [3.0, 4.0]})
        assert "d" in out and "a" in out and "b" in out
        assert "4.000" in out

    def test_ascii_plot_contains_marks_and_legend(self):
        out = ascii_plot([1.0, 2.0], {"s1": [0.5, 1.5], "s2": [1.0, 1.0]})
        assert "o=s1" in out and "x=s2" in out
        assert "o" in out

    def test_ascii_plot_empty(self):
        assert "no data" in ascii_plot([], {}, title="empty")

    def test_ascii_plot_constant_series(self):
        out = ascii_plot([1.0, 2.0], {"flat": [1.0, 1.0]})
        assert "flat" in out


class TestFigureHarness:
    def test_figure9_tiny_run_has_all_series(self):
        r = run_figure9(
            n_records=1 << 13,
            asu_counts=(2, 8),
            alphas=(1, 16),
            include_adaptive=True,
        )
        assert set(r.speedup) == {"1", "16", "adaptive"}
        assert len(r.speedup["1"]) == 2
        assert len(r.baseline_makespan) == 2
        assert all(t > 0 for t in r.baseline_makespan)
        assert "Figure 9" in r.render()

    def test_figure9_adaptive_tracks_envelope_even_tiny(self):
        r = run_figure9(
            n_records=1 << 13, asu_counts=(8,), alphas=(1, 16), include_adaptive=True
        )
        env = max(r.speedup["1"][0], r.speedup["16"][0])
        assert r.speedup["adaptive"][0] >= env - 0.25

    def test_figure9_render_without_adaptive_has_no_dangling_line(self):
        kw = dict(n_records=1 << 11, asu_counts=(2,), alphas=(1,))
        assert "adaptive" not in run_figure9(include_adaptive=False, **kw).render()
        assert "adaptive configuration chose: D=2: alpha=" in run_figure9(**kw).render()

    def test_figure10_tiny_run_structure(self):
        r = run_figure10(n_records=1 << 14)
        assert r.makespan_managed < r.makespan_static
        assert set(r.series) == {
            "static.host0", "static.host1", "managed.host0", "managed.host1"
        }
        for vals in r.series.values():
            assert len(vals) == len(r.times)
        assert "Figure 10" in r.render()

    def test_fig9_params_family(self):
        p = fig9_params(n_asus=4, c=4.0)
        assert p.n_asus == 4
        assert p.asu_clock_hz == pytest.approx(p.host_clock_hz / 4.0)


class TestNetworkPost:
    def test_post_orders_with_send(self):
        sim = Simulator()
        net = Network(sim, bandwidth=1000.0, latency=0.0)
        net.register("a")
        net.register("b")
        got = []

        def sender():
            net.post("a", "b", "first", 100)
            net.post("a", "b", "second", 100)
            yield sim.timeout(0)

        def receiver():
            for _ in range(2):
                msg = yield from net.recv("b")
                got.append((msg.payload, sim.now))

        sim.process(sender())
        sim.process(receiver())
        sim.run()
        assert [g[0] for g in got] == ["first", "second"]
        # Link serialisation still applies to posted messages.
        assert got[0][1] == pytest.approx(0.1)
        assert got[1][1] == pytest.approx(0.2)

    def test_post_does_not_block_caller(self):
        sim = Simulator()
        net = Network(sim, bandwidth=10.0, latency=0.0)  # very slow link
        net.register("a")
        net.register("b")

        def sender():
            net.post("a", "b", None, 1000)  # 100s of wire time
            return sim.now
            yield  # makes this a generator; never reached

        p = sim.process(sender())

        def receiver():
            yield from net.recv("b")

        sim.process(receiver())
        sim.run()
        assert p.value == 0.0

    def test_post_unregistered_rejected(self):
        sim = Simulator()
        net = Network(sim, bandwidth=10.0, latency=0.0)
        net.register("a")
        with pytest.raises(KeyError):
            net.post("a", "ghost", None, 1)


def _fig9_cells(n, asu_counts=FIG9_ASU_COUNTS, alphas=FIG9_ALPHAS):
    """The grid's cells as the solver declares them: per ASU count the
    baseline, one per α, and the adaptive pick — 7 ``(D, cfg, active)``."""
    cells = []
    for D in asu_counts:
        solver = ConfigSolver(fig9_params(D), gamma=FIG9_GAMMA)
        cells.append((D, solver.config_for_alpha(n, BASELINE_ALPHA), False))
        cells += [(D, solver.config_for_alpha(n, a), True) for a in alphas]
        cells.append((D, solver.choose(n), True))
    return cells


class TestFigure9DistinctCells:
    """``run_figure9`` emulates each distinct cell of a call exactly once."""

    N = 1 << 11
    COUNTS = (2, 16)  # the adaptive pick is an α of the grid at D=2, not at D=16

    @pytest.fixture
    def built(self, monkeypatch):
        """Every ``DsmSortJob`` that ``repro.bench.fig9`` constructs."""
        jobs = []

        def counting(params, cfg, **kw):
            jobs.append((params.n_asus, cfg, kw["active"]))
            return DsmSortJob(params, cfg, **kw)

        monkeypatch.setattr(fig9, "DsmSortJob", counting)
        return jobs

    def test_one_job_per_distinct_cell_and_none_kept_across_calls(self, built, monkeypatch):
        # In process: the patched ``DsmSortJob`` cannot count jobs a forked
        # worker builds.
        monkeypatch.setenv("REPRO_BENCH_WORKERS", "1")
        cells = _fig9_cells(self.N, self.COUNTS)
        assert len(set(cells)) == 6 + 7 < len(cells) == 14
        first = run_figure9(n_records=self.N, asu_counts=self.COUNTS)
        assert sorted(built, key=repr) == sorted(set(cells), key=repr)
        second = run_figure9(n_records=self.N, asu_counts=self.COUNTS)
        assert len(built) == 2 * len(set(cells))  # the memo died with the call
        assert second.speedup == first.speedup

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_equals_the_unmemoised_seven_cell_loop_float_for_float(self, workers, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_WORKERS", workers)
        got = run_figure9(n_records=self.N, asu_counts=self.COUNTS, seed=7)
        makespans = [
            DsmSortJob(fig9_params(D), cfg, policy="static", workload="uniform",
                       active=active, seed=7).run_pass1().makespan
            for D, cfg, active in _fig9_cells(self.N, self.COUNTS)
        ]
        names = [*map(str, FIG9_ALPHAS), "adaptive"]
        for i in range(len(self.COUNTS)):
            t_base, *ts = makespans[7 * i : 7 * i + 7]
            assert got.baseline_makespan[i] == t_base
            assert [got.speedup[k][i] for k in names] == [t_base / t for t in ts]

    def test_dispatches_each_distinct_cell_once_longest_first(self, monkeypatch):
        handed = []

        def recording(fn, tasks):
            handed.extend(tasks)
            return [fn(task) for task in tasks]

        monkeypatch.setattr(fig9, "parallel_map", recording)
        run_figure9(n_records=self.N, asu_counts=self.COUNTS, seed=7)
        cells = [(D, cfg, active) for D, _c, cfg, active, _seed in handed]
        assert len(cells) == len(set(cells))
        assert set(cells) == set(_fig9_cells(self.N, self.COUNTS))
        runs = [self.N // cfg.beta for _D, cfg, _active in cells]
        assert runs == sorted(runs, reverse=True) and runs[0] > runs[-1]

    def test_default_grid_is_36_of_42_cells_at_the_ledger_size(self):
        # Solver only, no emulation: at n = 2^16 every adaptive pick is an α
        # of the grid (EXPERIMENTS.md, Figure 9) ...
        cells = _fig9_cells(1 << 16)
        assert (len(cells), len(set(cells))) == (42, 36)
        assert [c[1].alpha for c in cells[6::7]] == [1, 1, 16, 256, 256, 256]
        # ... and at n = 2^17, D = 8 solves to α = 32: a genuine seventh cell.
        cells = _fig9_cells(1 << 17)
        assert len(set(cells)) == 37 and cells[2 * 7 + 6][1].alpha == 32


class TestCsvExport:
    def test_fig9_csv_shape(self):
        r = run_figure9(
            n_records=1 << 13, asu_counts=(2, 8), alphas=(1,), include_adaptive=False
        )
        csv = r.to_csv()
        lines = csv.strip().splitlines()
        assert lines[0] == "asus,1"
        assert len(lines) == 3
        assert lines[1].startswith("2,")

    def test_fig10_csv_shape(self):
        r = run_figure10(n_records=1 << 14)
        lines = r.to_csv().strip().splitlines()
        assert lines[0].startswith("t,")
        assert len(lines) == len(r.times) + 1
        # every row has the header's column count
        ncols = lines[0].count(",")
        assert all(l.count(",") == ncols for l in lines)
