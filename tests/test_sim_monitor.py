"""Tests for the simulation monitoring hooks (BusyTracker, ProgressCounter)."""

import pytest

from repro.sim import Simulator
from repro.sim.monitor import BusyTracker, ProgressCounter


def at(sim, t):
    """Advance the simulator clock to virtual time ``t``."""
    sim.schedule(lambda _ev: None, delay=t - sim.now)
    sim.run()


class TestBusyTracker:
    def test_records_busy_intervals(self):
        sim = Simulator()
        bt = BusyTracker(sim, name="disk")
        bt.begin()
        at(sim, 2.0)
        bt.end()
        at(sim, 4.0)
        assert bt.total_busy == 2.0
        assert bt.utilization() == pytest.approx(0.5)

    def test_double_begin_raises(self):
        bt = BusyTracker(Simulator(), name="cpu")
        bt.begin()
        with pytest.raises(RuntimeError, match="already busy"):
            bt.begin()

    def test_end_without_begin_raises(self):
        bt = BusyTracker(Simulator(), name="cpu")
        with pytest.raises(RuntimeError, match="not busy"):
            bt.end()

    def test_add_span_backdates_from_now(self):
        sim = Simulator()
        bt = BusyTracker(sim)
        at(sim, 3.0)
        bt.add_span(1.0)  # busy over [2, 3)
        assert bt.total_busy == 1.0
        at(sim, 4.0)
        assert bt.utilization() == pytest.approx(0.25)

    def test_add_span_longer_than_elapsed_clamps_to_zero(self):
        # Regression: start = now - duration went negative and the next
        # ordinary interval then appeared "out of order".
        sim = Simulator()
        bt = BusyTracker(sim)
        at(sim, 1.0)
        bt.add_span(5.0)  # clamped to [0, 1)
        assert bt.total_busy == pytest.approx(1.0)
        assert bt.intervals.starts[0] == 0.0
        bt.begin()
        at(sim, 2.0)
        bt.end()  # must not raise "intervals must be added in start order"
        assert bt.total_busy == pytest.approx(2.0)

    def test_add_span_overlapping_spans_ending_together(self):
        # Regression: two modelled spans of different lengths ending at the
        # same instant raised a spurious start-order ValueError when the
        # shorter span was recorded first.
        sim = Simulator()
        bt = BusyTracker(sim)
        at(sim, 4.0)
        bt.add_span(1.0)  # [3, 4)
        bt.add_span(3.0)  # [1, 4) — starts before the previous span
        assert bt.total_busy == pytest.approx(4.0)
        # busy_in sees both contributions in the overlap window.
        assert bt.intervals.busy_in(3.0, 4.0) == pytest.approx(2.0)
        assert bt.intervals.busy_in(0.0, 3.0) == pytest.approx(2.0)

    def test_add_interval_records_ahead_of_clock(self):
        sim = Simulator()
        bt = BusyTracker(sim)
        bt.add_interval(0.0, 2.0)
        bt.add_interval(1.0, 3.0)  # overlapping timeline reservation
        assert bt.total_busy == pytest.approx(4.0)

    def test_open_interval_counts_toward_total(self):
        sim = Simulator()
        bt = BusyTracker(sim)
        bt.begin()
        at(sim, 2.0)
        assert bt.total_busy == 2.0  # still open, accounted up to now

    def test_end_if_busy_closes_open_interval(self):
        sim = Simulator()
        bt = BusyTracker(sim)
        bt.begin()
        at(sim, 1.5)
        bt.end_if_busy()
        assert bt.total_busy == 1.5
        bt.end_if_busy()  # idempotent when idle
        assert bt.total_busy == 1.5
        with pytest.raises(RuntimeError):
            bt.end()  # the interval really was closed

    def test_utilization_at_t_zero(self):
        bt = BusyTracker(Simulator())
        assert bt.utilization() == 0.0

    def test_utilization_series(self):
        sim = Simulator()
        bt = BusyTracker(sim)
        bt.begin()
        at(sim, 1.0)
        bt.end()
        at(sim, 2.0)
        series = list(bt.utilization_series(dt=1.0))
        assert len(series) == 2
        assert series[0][1] == pytest.approx(1.0)
        assert series[1][1] == pytest.approx(0.0)


class TestProgressCounter:
    def test_counts_and_rates(self):
        sim = Simulator()
        pc = ProgressCounter(sim, name="sorted")
        assert pc.rate() == 0.0  # no time elapsed yet
        at(sim, 1.0)
        pc.add(100)
        at(sim, 2.0)
        pc.add(50)
        assert pc.total == 150
        assert pc.rate() == pytest.approx(75.0)

    def test_series_tracks_cumulative_total(self):
        sim = Simulator()
        pc = ProgressCounter(sim)
        pc.add(10)
        at(sim, 1.0)
        pc.add(5)
        assert pc.series.times == [0.0, 1.0]
        assert pc.series.values == [10, 15]
