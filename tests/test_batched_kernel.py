"""Regression tests for the batched event kernel and its accounting fixes.

Covers the semantics the bucketed same-timestamp drain must preserve exactly
(FIFO ``_seq`` order, composite conditions over processed events,
``schedule`` callbacks vs same-time ``Timeout`` ordering, ``stop()``
mid-batch), the ``run(until=)`` clock fix, the open-interval
``utilization_series`` fix, the amortized ``IntervalAccumulator.insert``,
the vectorized ``charge_batch`` paths, and the parallel sweep harness.
"""

import random

import pytest

from repro.sim import SimError, Simulator
from repro.sim.monitor import BusyTracker
from repro.util.stats import IntervalAccumulator


@pytest.fixture
def sim():
    return Simulator()


class TestRunUntilClock:
    """Satellite 1: both exits of run(until=) leave the clock at ``until``."""

    def test_queue_drains_before_until(self, sim):
        sim.timeout(2.0)
        sim.run(until=10.0)
        # The queue drained at t=2; nothing can happen before t=10, so the
        # clock must still advance to the horizon.
        assert sim.now == 10.0

    def test_early_break_before_next_event(self, sim):
        fired = []
        sim.schedule(lambda _ev: fired.append(sim.now), delay=5.0)
        sim.run(until=3.0)
        assert sim.now == 3.0
        assert fired == []
        # The pending event is untouched and fires on a later run.
        sim.run()
        assert fired == [5.0]

    def test_until_exactly_at_next_event(self, sim):
        sim.timeout(3.0)
        sim.run(until=3.0)
        assert sim.now == 3.0

    def test_run_without_until_stays_at_last_event(self, sim):
        sim.timeout(2.0)
        sim.run()
        assert sim.now == 2.0

    def test_empty_queue_advances_to_until(self, sim):
        sim.run(until=7.0)
        assert sim.now == 7.0


class TestSameInstantSemantics:
    """Satellite 4: ordering guarantees within one drained batch."""

    def test_seq_fifo_within_batch(self, sim):
        order = []
        for i in range(5):
            sim.schedule(lambda _ev, i=i: order.append(i), delay=1.0)
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_zero_delay_post_joins_batch_tail(self, sim):
        order = []

        def first():
            order.append("first")
            # Posted while the t=1 batch drains: runs after 'second', at the
            # batch tail — exactly where the (t, seq) heap would put it.
            sim.schedule(lambda _ev: order.append("tail"))

        sim.schedule(lambda _ev: first(), delay=1.0)
        sim.schedule(lambda _ev: order.append("second"), delay=1.0)
        sim.run()
        assert order == ["first", "second", "tail"]

    def test_schedule_callback_orders_with_same_time_timeouts(self, sim):
        order = []
        t1 = sim.timeout(1.0)
        t1.callbacks.append(lambda _e: order.append("t1"))
        sim.schedule(lambda _ev: order.append("cb"), delay=1.0)
        t2 = sim.timeout(1.0)
        t2.callbacks.append(lambda _e: order.append("t2"))
        sim.run()
        # Strict post order at t=1: timeout t1, callback, timeout t2.
        assert order == ["t1", "cb", "t2"]

    def test_any_of_over_processed_constituents(self, sim):
        ev = sim.event()
        ev.succeed("v")
        sim.run()
        assert ev.processed

        def waiter():
            got = yield sim.any_of([ev])
            return got

        p = sim.process(waiter())
        sim.run()
        assert p.value == {ev: "v"}

    def test_all_of_over_processed_including_failed(self, sim):
        ok_ev = sim.event()
        ok_ev.succeed(1)
        bad_ev = sim.event()
        boom = RuntimeError("boom")
        bad_ev.fail(boom)
        # Consume the failure through a waiter so run() does not re-raise.
        def eat():
            try:
                yield bad_ev
            except RuntimeError:
                pass

        sim.process(eat())
        sim.run()
        assert ok_ev.processed and bad_ev.processed

        def waiter():
            try:
                yield sim.all_of([ok_ev, bad_ev])
            except RuntimeError as exc:
                return ("failed", exc)

        p = sim.process(waiter())
        sim.run()
        assert p.value == ("failed", boom)

    def test_stop_mid_batch_preserves_rest_of_batch(self, sim):
        order = []
        sim.schedule(lambda _ev: order.append("a"), delay=1.0)

        def stopper():
            order.append("stop")
            sim.stop("halted")

        sim.schedule(lambda _ev: stopper(), delay=1.0)
        sim.schedule(lambda _ev: order.append("b"), delay=1.0)
        got = sim.run()
        assert got == "halted"
        assert order == ["a", "stop"]
        # The partially drained batch survives; resuming processes 'b' at
        # the same instant, before anything later.
        sim.schedule(lambda _ev: order.append("later"), delay=5.0)
        sim.run()
        assert order == ["a", "stop", "b", "later"]
        assert sim.now == 6.0

    def test_step_resumes_partial_batch(self, sim):
        order = []
        for i in range(3):
            sim.schedule(lambda _ev, i=i: order.append(i), delay=1.0)
        sim.step()
        assert order == [0]
        sim.step()
        sim.step()
        assert order == [0, 1, 2]
        with pytest.raises(IndexError):
            sim.step()


class TestUtilizationSeriesOpenInterval:
    """Satellite 2: the segment in flight at t_end is not under-reported."""

    def test_open_interval_counted(self, sim):
        bt = BusyTracker(sim, name="dev")
        sim.schedule(lambda _ev: bt.begin(), delay=1.0)
        sim.run()
        sim.timeout(3.0)
        sim.run()  # now = 4.0, segment open since t=1
        series = bt.utilization_series(t_end=4.0, dt=1.0)
        assert [u for _t, u in series] == pytest.approx([0.0, 1.0, 1.0, 1.0])
        # Consistent with the already-correct cumulative gauge.
        assert bt.utilization_at(4.0) == pytest.approx(3.0 / 4.0)

    def test_matches_closed_interval_series(self, sim):
        open_bt = BusyTracker(sim, name="open")
        closed_bt = BusyTracker(sim, name="closed")
        sim.schedule(lambda _ev: open_bt.begin(), delay=0.5)
        sim.schedule(lambda _ev: closed_bt.begin(), delay=0.5)
        sim.run()
        sim.timeout(2.5)
        sim.run()  # now = 3.0
        closed_bt.end()
        assert open_bt.utilization_series(t_end=3.0, dt=1.0) == (
            closed_bt.utilization_series(t_end=3.0, dt=1.0)
        )

    def test_closed_tracker_series_unchanged(self, sim):
        bt = BusyTracker(sim, name="dev")
        bt.begin()
        sim.timeout(1.0)
        sim.run()
        bt.end()
        series = bt.utilization_series(t_end=2.0, dt=1.0)
        assert [u for _t, u in series] == pytest.approx([1.0, 0.0])


def _eager_reference(ops):
    """Reference IntervalAccumulator with the eager O(n) splice semantics."""
    from bisect import bisect_right

    starts, ends = [], []
    total = 0.0
    for start, end in ops:
        i = bisect_right(starts, start)
        starts.insert(i, start)
        ends.insert(i, end)
        total += end - start
    return starts, ends, total


class TestAmortizedInsert:
    """Satellite 3: pending-buffer insert matches the eager splice exactly."""

    def test_matches_eager_reference_on_random_ops(self):
        rng = random.Random(7)
        acc = IntervalAccumulator()
        ops = []
        for _ in range(300):
            start = rng.uniform(0.0, 100.0)
            end = start + rng.uniform(0.0, 5.0)
            ops.append((start, end))
            acc.insert(start, end)
            if rng.random() < 0.1:
                # Interleaved queries force mid-stream flushes.
                w0 = rng.uniform(0.0, 100.0)
                acc.busy_in(w0, w0 + rng.uniform(0.0, 10.0))
        ref_starts, ref_ends, ref_total = _eager_reference(ops)
        assert acc.starts == ref_starts
        assert acc.ends == ref_ends
        assert acc.total_busy == pytest.approx(ref_total)
        assert acc.busy_in(0.0, 200.0) == pytest.approx(ref_total)

    def test_tie_order_is_stable(self):
        acc = IntervalAccumulator()
        acc.add(5.0, 6.0)
        acc.insert(2.0, 2.5)
        acc.insert(2.0, 3.0)
        acc.insert(2.0, 2.25)
        assert acc.starts == [2.0, 2.0, 2.0, 5.0]
        assert acc.ends == [2.5, 3.0, 2.25, 6.0]

    def test_total_busy_needs_no_flush(self):
        acc = IntervalAccumulator()
        acc.add(5.0, 6.0)
        acc.insert(1.0, 2.0)
        assert acc.total_busy == pytest.approx(2.0)
        assert acc._pending  # still buffered
        assert acc.busy_in(0.0, 10.0) == pytest.approx(2.0)
        assert not acc._pending

    def test_add_out_of_order_still_rejected(self):
        acc = IntervalAccumulator()
        acc.add(5.0, 6.0)
        acc.insert(1.0, 2.0)
        with pytest.raises(ValueError):
            acc.add(3.0, 4.0)
        with pytest.raises(ValueError):
            acc.insert(3.0, 2.0)


class TestChargeBatch:
    """Tentpole (b): vectorized charge paths are bit-identical to scalar."""

    def test_cpu_charge_batch(self, sim):
        from repro.emulator.cpu import Cpu
        from repro.emulator.params import SystemParams

        cpu = Cpu(sim, clock_hz=7.3e8, params=SystemParams())
        cpu.set_speed(0.9)
        cycles = [0.0, 1.0, 12345.678, 9e12]
        batch = cpu.charge_batch(cycles)
        assert [float(x) for x in batch] == [cpu.seconds_for(c) for c in cycles]

    def test_disk_transfer_time_batch(self, sim):
        from repro.emulator.disk import Disk

        disk = Disk(sim, rate=3.1e7)
        sizes = [0, 1, 4096, 10**9]
        batch = disk.transfer_time_batch(sizes)
        assert [float(x) for x in batch] == [disk.transfer_time(n) for n in sizes]

    def test_link_transfer_time_batch(self, sim):
        from repro.emulator.net import Link

        link = Link(sim, bandwidth=1.25e8, latency=1e-4)
        sizes = [0, 17, 65536]
        batch = link.transfer_time_batch(sizes)
        assert [float(x) for x in batch] == [link.transfer_time(n) for n in sizes]

    def test_functor_cost_cycles_batch(self):
        from repro.emulator.params import SystemParams
        from repro.functors.blocksort import BlockSortFunctor

        params = SystemParams()
        f = BlockSortFunctor(beta=1024)
        ns = [0, 1, 7, 1024]
        batch = f.cost_cycles_batch(ns, params)
        assert [float(x) for x in batch] == [f.cost_cycles(n, params) for n in ns]


def _square(x):
    return x * x


class TestParallelSweeps:
    """Tentpole (c): deterministic merge order at any worker count."""

    def test_results_in_input_order(self):
        from repro.bench.parallel import parallel_map

        items = list(range(20))
        assert parallel_map(_square, items, workers=1) == [x * x for x in items]
        assert parallel_map(_square, items, workers=4) == [x * x for x in items]

    def test_resolve_workers_env(self, monkeypatch):
        from repro.bench.parallel import resolve_workers

        monkeypatch.setenv("REPRO_BENCH_WORKERS", "3")
        assert resolve_workers() == 3
        assert resolve_workers(2) == 2
        monkeypatch.delenv("REPRO_BENCH_WORKERS")
        assert resolve_workers() >= 1

    def test_resolve_workers_counts_usable_cpus(self, monkeypatch):
        # Pinned to one CPU of a many-CPU host (``taskset -c 0``): one worker.
        from repro.bench import parallel

        monkeypatch.delenv("REPRO_BENCH_WORKERS", raising=False)
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert parallel.resolve_workers() == 1
        monkeypatch.setenv("REPRO_BENCH_WORKERS", "2")
        assert parallel.resolve_workers() == 2  # the env var still wins
        assert parallel.resolve_workers(3) == 3  # and the argument over both

    def test_worker_exception_propagates(self):
        from repro.bench.parallel import parallel_map

        with pytest.raises(ZeroDivisionError):
            parallel_map(_reciprocal, [1, 0], workers=2)


def _reciprocal(x):
    return 1 / x
