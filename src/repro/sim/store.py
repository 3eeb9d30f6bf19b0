"""FIFO stores (bounded channels) for inter-process communication.

Functor stages on different nodes exchange record blocks through stores; a
bounded capacity models finite buffer memory, giving natural backpressure:
a fast producer blocks when the consumer falls behind, exactly the pipeline
coupling that makes the bottleneck stage set the throughput in Figure 9.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional

from .core import Event, Simulator
from .errors import SimError

__all__ = ["Store", "PriorityStore"]


class StorePut(Event):
    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any):
        super().__init__(store.sim)
        self.item = item


class StoreGet(Event):
    __slots__ = ()


class Store:
    """A FIFO channel with optional capacity (None = unbounded).

    ``put(item)`` and ``get()`` return events; processes yield them.  Items
    are delivered in insertion order; waiting getters are served in request
    order (FIFO fairness), which keeps the simulation deterministic.
    """

    def __init__(self, sim: Simulator, capacity: Optional[float] = None, name: str = ""):
        if capacity is not None and capacity <= 0:
            raise SimError(f"store capacity must be positive, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.items: deque[Any] = deque()
        self._putters: deque[StorePut] = deque()
        self._getters: deque[StoreGet] = deque()
        #: number of items ever put (for instrumentation)
        self.n_put = 0
        self.n_got = 0
        # Named stores on a metered simulator publish their depth as a
        # callback gauge (live value polled only at scrape time; put/get
        # just poke the high-water mark).
        self._m_depth = None
        m = sim.metrics
        if m is not None and name:
            from ..metrics.registry import derive_owner

            self._m_depth = m.gauge(
                "repro_queue_depth",
                fn=lambda t: float(len(self)),
                owner=derive_owner(name),
                queue=name,
            )

    def __len__(self) -> int:
        return len(self.items)

    @property
    def is_full(self) -> bool:
        return self.capacity is not None and len(self.items) >= self.capacity

    def _trace_depth(self) -> None:
        """Sample the queue depth into the tracer (named stores only; callers
        test ``sim.tracer`` first, so an untraced run never enters here)."""
        tracer = self.sim.tracer
        if tracer is not None and self.name:
            tracer.counter(self.sim.now, self.name, "depth", float(len(self)))

    def put(self, item: Any) -> Event:
        """Event that fires when ``item`` has been accepted into the store.

        When the put is accepted immediately *and* the caller runs as the
        last event of the current instant (``sim.at_tail()``), the
        acceptance event is returned already processed instead of taking a
        queue round-trip.  Order-preserving by construction: unfused, the
        put event would be the very next event processed (it is posted at
        the tail), so eliding it — and letting any waiting getters' grant
        events post before the caller continues — reproduces the exact
        event order of the queued path.
        """
        if not self._putters and not self.is_full and self.sim.at_tail():
            ev = StorePut(self, item)
            ev._ok = True
            ev._value = None
            ev.callbacks = None
            self.items.append(item)
            self.n_put += 1
            if self._getters:
                self._settle()
        else:
            ev = StorePut(self, item)
            self._putters.append(ev)
            self._settle()
        if self.sim.tracer is not None:
            self._trace_depth()
        if self._m_depth is not None:
            self._m_depth.poke(float(len(self)))
        return ev

    def get(self) -> Event:
        """Event that fires with the next item.

        Symmetric tail fast path to :meth:`put`: with an item available and
        no getters queued ahead, the grant event would be processed
        immediately next, so it is returned pre-processed and any blocked
        putter is admitted into the freed slot first (its grant posts before
        the caller continues, exactly as in the queued path).
        """
        if self.items and not self._getters and self.sim.at_tail():
            ev = StoreGet(self.sim)
            ev._ok = True
            ev._value = self.items.popleft()
            ev.callbacks = None
            self.n_got += 1
            if self._putters:
                self._settle()
        else:
            ev = StoreGet(self.sim)
            self._getters.append(ev)
            self._settle()
        if self.sim.tracer is not None:
            self._trace_depth()
        return ev

    def try_get(self) -> Any:
        """Non-blocking get: pop an item if available, else None.

        Only sound when no getters are queued (checked).
        """
        if self._getters:
            raise SimError("try_get with blocked getters would reorder delivery")
        if self.items:
            self.n_got += 1
            return self.items.popleft()
        return None

    def _settle(self) -> None:
        """Move items from putters to the buffer to getters, FIFO."""
        progress = True
        while progress:
            progress = False
            # Accept puts while there is capacity.
            while self._putters and not self.is_full:
                put_ev = self._putters.popleft()
                self.items.append(put_ev.item)
                self.n_put += 1
                put_ev.succeed()
                progress = True
            # Serve getters while items exist.
            while self._getters and self.items:
                get_ev = self._getters.popleft()
                self.n_got += 1
                get_ev.succeed(self.items.popleft())
                progress = True


class PriorityStore(Store):
    """A store that delivers the smallest item first.

    Items must be comparable; ties are broken by insertion order.
    """

    def __init__(self, sim: Simulator, capacity: Optional[float] = None, name: str = ""):
        super().__init__(sim, capacity, name)
        self._insert_seq = 0
        self._heap: list[tuple[Any, int, Any]] = []

    # The tail fast paths in Store.put/get operate on ``items`` directly,
    # which would bypass the heap; priority stores always take the queued
    # path (they are far off the hot loops).
    def put(self, item: Any) -> Event:
        ev = StorePut(self, item)
        self._putters.append(ev)
        self._settle()
        if self.sim.tracer is not None:
            self._trace_depth()
        if self._m_depth is not None:
            self._m_depth.poke(float(len(self)))
        return ev

    def get(self) -> Event:
        ev = StoreGet(self.sim)
        self._getters.append(ev)
        self._settle()
        if self.sim.tracer is not None:
            self._trace_depth()
        return ev

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def is_full(self) -> bool:
        return self.capacity is not None and len(self._heap) >= self.capacity

    def _settle(self) -> None:
        import heapq

        progress = True
        while progress:
            progress = False
            while self._putters and not self.is_full:
                put_ev = self._putters.popleft()
                self._insert_seq += 1
                heapq.heappush(self._heap, (put_ev.item, self._insert_seq, put_ev.item))
                self.n_put += 1
                put_ev.succeed()
                progress = True
            while self._getters and self._heap:
                get_ev = self._getters.popleft()
                _key, _seq, item = heapq.heappop(self._heap)
                self.n_got += 1
                get_ev.succeed(item)
                progress = True
