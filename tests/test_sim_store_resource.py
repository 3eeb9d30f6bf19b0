"""Tests for stores (channels) and resources."""

import pytest

from repro.sim import PriorityStore, Resource, SimError, Simulator, Store


@pytest.fixture
def sim():
    return Simulator()


class TestStore:
    def test_put_then_get(self, sim):
        store = Store(sim)

        def proc():
            yield store.put("x")
            item = yield store.get()
            return item

        p = sim.process(proc())
        sim.run()
        assert p.value == "x"

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)
        order = []

        def consumer():
            item = yield store.get()
            order.append(("got", item, sim.now))

        def producer():
            yield sim.timeout(3.0)
            yield store.put("late")
            order.append(("put", sim.now))

        sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert ("got", "late", 3.0) in order

    def test_capacity_backpressure(self, sim):
        store = Store(sim, capacity=1)
        times = []

        def producer():
            for i in range(3):
                yield store.put(i)
                times.append(sim.now)

        def consumer():
            for _ in range(3):
                yield sim.timeout(2.0)
                yield store.get()

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        # First put immediate; subsequent puts wait for consumer to drain.
        assert times[0] == 0.0
        assert times[1] == pytest.approx(2.0)
        assert times[2] == pytest.approx(4.0)

    def test_fifo_order(self, sim):
        store = Store(sim)
        got = []

        def producer():
            for i in range(5):
                yield store.put(i)

        def consumer():
            for _ in range(5):
                item = yield store.get()
                got.append(item)

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert got == [0, 1, 2, 3, 4]

    def test_multiple_getters_served_in_order(self, sim):
        store = Store(sim)
        got = []

        def getter(name):
            item = yield store.get()
            got.append((name, item))

        def producer():
            yield sim.timeout(1.0)
            yield store.put("a")
            yield store.put("b")

        sim.process(getter("g1"))
        sim.process(getter("g2"))
        sim.process(producer())
        sim.run()
        assert got == [("g1", "a"), ("g2", "b")]

    def test_try_get(self, sim):
        store = Store(sim)

        def proc():
            yield store.put("x")
            assert store.try_get() == "x"
            assert store.try_get() is None

        sim.process(proc())
        sim.run()

    def test_try_get_with_blocked_getters_rejected(self, sim):
        store = Store(sim)

        def getter():
            yield store.get()

        def checker():
            yield sim.timeout(1.0)
            with pytest.raises(SimError):
                store.try_get()
            yield store.put("release")

        sim.process(getter())
        sim.process(checker())
        sim.run()

    def test_len_and_counters(self, sim):
        store = Store(sim)

        def proc():
            yield store.put(1)
            yield store.put(2)
            assert len(store) == 2
            yield store.get()
            assert store.n_put == 2
            assert store.n_got == 1

        sim.process(proc())
        sim.run()

    def test_zero_capacity_rejected(self, sim):
        with pytest.raises(SimError):
            Store(sim, capacity=0)


class TestPriorityStore:
    def test_smallest_first(self, sim):
        store = PriorityStore(sim)
        got = []

        def proc():
            yield store.put(3)
            yield store.put(1)
            yield store.put(2)
            for _ in range(3):
                item = yield store.get()
                got.append(item)

        sim.process(proc())
        sim.run()
        assert got == [1, 2, 3]

    def test_tie_insertion_order(self, sim):
        store = PriorityStore(sim)
        got = []

        def proc():
            yield store.put((1, "first"))
            yield store.put((1, "second"))
            for _ in range(2):
                item = yield store.get()
                got.append(item[1])

        sim.process(proc())
        sim.run()
        assert got == ["first", "second"]


class TestResource:
    def test_exclusive_serialization(self, sim):
        res = Resource(sim, capacity=1)
        spans = []

        def worker(name, hold):
            req = res.request()
            yield req
            start = sim.now
            yield sim.timeout(hold)
            res.release(req)
            spans.append((name, start, sim.now))

        sim.process(worker("a", 2.0))
        sim.process(worker("b", 1.0))
        sim.run()
        assert spans == [("a", 0.0, 2.0), ("b", 2.0, 3.0)]

    def test_capacity_two_overlaps(self, sim):
        res = Resource(sim, capacity=2)
        ends = []

        def worker(hold):
            with res.request() as req:
                yield req
                yield sim.timeout(hold)
            ends.append(sim.now)

        sim.process(worker(1.0))
        sim.process(worker(1.0))
        sim.run()
        assert ends == [1.0, 1.0]

    def test_release_ungranted_cancels(self, sim):
        res = Resource(sim, capacity=1)

        def holder():
            req = res.request()
            yield req
            yield sim.timeout(5.0)
            res.release(req)

        def canceller():
            req = res.request()  # queued behind holder
            yield sim.timeout(1.0)
            res.release(req)  # cancel while queued
            return "cancelled"

        sim.process(holder())
        p = sim.process(canceller())
        sim.run()
        assert p.value == "cancelled"

    def test_release_foreign_request_rejected(self, sim):
        res = Resource(sim, capacity=1)

        def proc():
            req = res.request()
            yield req
            res.release(req)
            with pytest.raises(SimError):
                res.release(req)

        sim.process(proc())
        sim.run()

    def test_bad_capacity(self, sim):
        with pytest.raises(SimError):
            Resource(sim, capacity=0)

    def test_count(self, sim):
        res = Resource(sim, capacity=3)

        def proc():
            reqs = [res.request() for _ in range(2)]
            for r in reqs:
                yield r
            assert res.count == 2
            for r in reqs:
                res.release(r)
            assert res.count == 0

        sim.process(proc())
        sim.run()


class TestTailGrant:
    """``request_now`` at the batch tail: a grant nobody can wait for.

    A lone process runs as the last event of its instant, so its grants take
    the tail path; on a capacity-1 resource they are all one shared object.
    """

    def test_capacity_one_tail_grants_share_one_object(self, sim):
        res = Resource(sim, capacity=1)
        seen = []

        def proc():
            for _ in range(3):
                req = res.request_now()
                assert req.processed and req.ok and req.value is None
                assert res.count == 1
                seen.append(req)
                yield sim.timeout(1.0)
                res.release(req)
                assert res.count == 0

        sim.process(proc())
        sim.run()
        assert seen[0] is seen[1] is seen[2]
        # boot, three holds, process exit: a tail grant never visits the queue
        assert sim.n_events_processed == 5

    def test_double_release_of_shared_grant_rejected(self, sim):
        res = Resource(sim, capacity=1)

        def proc():
            req = res.request_now()
            assert req.processed
            res.release(req)
            with pytest.raises(SimError):
                res.release(req)
            yield sim.timeout(0.0)

        sim.process(proc())
        sim.run()

    def test_release_of_never_granted_request_rejected(self, sim):
        res, other = Resource(sim, capacity=1), Resource(sim, capacity=1)

        def proc():
            foreign = other.request_now()
            with pytest.raises(SimError):
                res.release(foreign)  # free resource: nothing to release
            held = res.request_now()
            with pytest.raises(SimError):
                res.release(other.request())  # held, but not by that request
            assert res.count == 1
            res.release(held)
            yield sim.timeout(0.0)

        sim.process(proc())
        sim.run()

    def test_waiters_behind_shared_grant_are_fifo(self, sim):
        res = Resource(sim, capacity=1)
        order = []

        def holder():
            yield sim.timeout(0.5)  # alone at this instant: the tail grant
            req = res.request_now()
            assert req.processed
            yield sim.timeout(1.5)
            res.release(req)
            order.append(("holder", sim.now))

        def waiter(name, hold):
            yield sim.timeout(1.0)
            req = res.request_now()  # busy: queued, a real per-request event
            assert not req.triggered
            yield req
            order.append((name, sim.now))
            yield sim.timeout(hold)
            res.release(req)

        sim.process(holder())
        sim.process(waiter("b", 1.0))
        sim.process(waiter("c", 1.0))
        sim.run()
        assert order == [("holder", 2.0), ("b", 2.0), ("c", 3.0)]
        assert res.count == 0 and not res.queue

    def test_not_at_tail_takes_the_queued_grant(self, sim):
        res = Resource(sim, capacity=1)
        got = []

        def proc():
            req = res.request_now()
            got.append(req)
            if req.callbacks is not None:
                yield req
            res.release(req)

        sim.process(proc())
        sim.process(proc())  # booted at the same instant: the first is not last
        sim.run()
        assert got[0] is not got[1]

    def test_shared_grant_is_a_context_manager(self, sim):
        res = Resource(sim, capacity=1)

        def proc():
            with res.request_now() as req:
                assert req.processed and res.count == 1
                yield sim.timeout(1.0)
            assert res.count == 0

        sim.process(proc())
        sim.run()

    def test_capacity_two_keeps_one_object_per_request(self, sim):
        res = Resource(sim, capacity=2)

        def proc():
            a, b = res.request_now(), res.request_now()
            assert a.processed and b.processed and a is not b
            assert res.count == 2
            c = res.request_now()  # full: queued
            assert not c.triggered
            res.release(a)
            assert c.triggered and res.count == 2
            with pytest.raises(SimError):
                res.release(a)  # a is gone; b and c are untouched
            res.release(b)
            res.release(c)
            assert res.count == 0
            yield sim.timeout(0.0)

        sim.process(proc())
        sim.run()
