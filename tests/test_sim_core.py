"""Tests for the discrete-event kernel: events, timeouts, ordering, processes."""

import pytest

from repro.sim import (
    Interrupt,
    SimError,
    Simulator,
)


@pytest.fixture
def sim():
    return Simulator()


class TestEvent:
    def test_succeed_delivers_value(self, sim):
        ev = sim.event()
        got = []
        ev.callbacks.append(lambda e: got.append(e.value))
        ev.succeed(42)
        sim.run()
        assert got == [42]

    def test_double_trigger_rejected(self, sim):
        ev = sim.event()
        ev.succeed(1)
        with pytest.raises(SimError):
            ev.succeed(2)

    def test_fail_requires_exception(self, sim):
        ev = sim.event()
        with pytest.raises(TypeError):
            ev.fail("not an exception")

    def test_value_before_trigger_raises(self, sim):
        ev = sim.event()
        with pytest.raises(SimError):
            _ = ev.value
        with pytest.raises(SimError):
            _ = ev.ok


class TestTimeout:
    def test_advances_clock(self, sim):
        sim.timeout(5.0)
        sim.run()
        assert sim.now == 5.0

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimError):
            sim.timeout(-1.0)

    @pytest.mark.parametrize("delay", [float("nan"), -1.0, -0.5e-300])
    def test_bad_delay_rejected_where_it_is_posted(self, sim, delay):
        # NaN slipped past ``delay < 0`` and left a NaN key in the time heap;
        # a negative callback delay surfaced later, far from its cause, as
        # "time went backwards (corrupt event queue)".
        sim.timeout(1.0)
        with pytest.raises(SimError, match="delay"):
            sim.timeout(delay)
        with pytest.raises(SimError, match="delay"):
            sim.schedule(lambda _ev: None, delay=delay)
        sim.run()  # the queue was left intact
        assert sim.now == 1.0 and sim.n_events_processed == 1

    def test_zero_delay_still_accepted(self, sim):
        ran = []
        sim.schedule(lambda _ev: ran.append("cb"), delay=0.0)
        sim.timeout(0).callbacks.append(lambda e: ran.append("timeout"))
        sim.run()
        assert ran == ["cb", "timeout"] and sim.now == 0.0

    def test_timeout_is_a_fully_formed_event(self, sim):
        # Timeout fills its slots itself instead of through Event.__init__.
        ev = sim.timeout(2.0, value="v", name="t")
        assert (ev.sim, ev.name, ev.value, ev.ok) == (sim, "t", "v", True)
        assert ev.triggered and not ev.processed and ev.callbacks == []
        sim.run()
        assert ev.processed

    def test_run_until_stops_early(self, sim):
        sim.timeout(10.0)
        sim.run(until=3.0)
        assert sim.now == 3.0

    def test_fifo_tie_break(self, sim):
        order = []
        ev1 = sim.timeout(1.0, value="a")
        ev2 = sim.timeout(1.0, value="b")
        ev1.callbacks.append(lambda e: order.append(e.value))
        ev2.callbacks.append(lambda e: order.append(e.value))
        sim.run()
        assert order == ["a", "b"]


class TestProcess:
    def test_simple_sequence(self, sim):
        trace = []

        def proc():
            trace.append(("start", sim.now))
            yield sim.timeout(1.5)
            trace.append(("mid", sim.now))
            yield sim.timeout(2.5)
            trace.append(("end", sim.now))
            return "done"

        p = sim.process(proc())
        sim.run()
        assert trace == [("start", 0.0), ("mid", 1.5), ("end", 4.0)]
        assert p.value == "done"

    def test_process_waits_on_process(self, sim):
        def child():
            yield sim.timeout(3.0)
            return 99

        def parent():
            result = yield sim.process(child())
            return result + 1

        p = sim.process(parent())
        sim.run()
        assert p.value == 100
        assert sim.now == 3.0

    def test_yield_non_event_raises(self, sim):
        def proc():
            yield 42

        sim.process(proc())
        with pytest.raises(SimError, match="must yield Event"):
            sim.run()

    def test_exception_propagates_to_waiter(self, sim):
        def child():
            yield sim.timeout(1.0)
            raise ValueError("boom")

        def parent():
            try:
                yield sim.process(child())
            except ValueError as e:
                return f"caught {e}"

        p = sim.process(parent())
        sim.run()
        assert p.value == "caught boom"

    def test_unhandled_exception_raises_from_run(self, sim):
        def proc():
            yield sim.timeout(1.0)
            raise RuntimeError("unseen")

        sim.process(proc())
        with pytest.raises(RuntimeError, match="unseen"):
            sim.run()

    def test_wait_on_already_processed_event(self, sim):
        ev = sim.event()
        ev.succeed("v")

        def proc():
            got = yield ev
            return got

        p = sim.process(proc())
        sim.run()
        assert p.value == "v"

    def test_interrupt_wakes_sleeper(self, sim):
        def sleeper():
            try:
                yield sim.timeout(100.0)
                return "slept"
            except Interrupt as i:
                return ("interrupted", i.cause, sim.now)

        def waker(target):
            yield sim.timeout(2.0)
            target.interrupt("wake up")

        p = sim.process(sleeper())
        sim.process(waker(p))
        sim.run()
        assert p.value == ("interrupted", "wake up", 2.0)

    def test_interrupt_dead_process_rejected(self, sim):
        def quick():
            yield sim.timeout(0.0)

        p = sim.process(quick())
        sim.run()
        with pytest.raises(SimError):
            p.interrupt()

    def test_nongenerator_rejected(self, sim):
        with pytest.raises(SimError):
            sim.process(lambda: None)


class TestComposite:
    def test_all_of(self, sim):
        def proc():
            t1 = sim.timeout(1.0, value="a")
            t2 = sim.timeout(2.0, value="b")
            results = yield sim.all_of([t1, t2])
            return (sim.now, sorted(results.values()))

        p = sim.process(proc())
        sim.run()
        assert p.value == (2.0, ["a", "b"])

    def test_any_of(self, sim):
        def proc():
            t1 = sim.timeout(1.0, value="fast")
            t2 = sim.timeout(5.0, value="slow")
            results = yield sim.any_of([t1, t2])
            return (sim.now, list(results.values()))

        p = sim.process(proc())
        sim.run()
        assert p.value == (1.0, ["fast"])

    def test_empty_all_of_fires_immediately(self, sim):
        def proc():
            yield sim.all_of([])
            return sim.now

        p = sim.process(proc())
        sim.run()
        assert p.value == 0.0


class TestDeterminism:
    def test_identical_runs(self):
        def build():
            sim = Simulator()
            log = []

            def worker(i):
                for k in range(3):
                    yield sim.timeout(0.5 * (i + 1))
                    log.append((sim.now, i, k))

            for i in range(4):
                sim.process(worker(i))
            sim.run()
            return log

        assert build() == build()

    def test_event_count_tracked(self, sim):
        sim.timeout(1.0)
        sim.timeout(2.0)
        sim.run()
        assert sim.n_events_processed == 2
