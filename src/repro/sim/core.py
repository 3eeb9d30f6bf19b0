"""Deterministic discrete-event simulation core.

This is the event queue at the heart of the paper's emulator (§5): it keeps a
global virtual clock, orders all events in temporal (causal) order, and drives
process coroutines.  Determinism is guaranteed by breaking time ties with FIFO
order among same-time events, so two runs with the same seed produce identical
schedules.

The design follows the familiar generator-coroutine style (as in SimPy):
processes are Python generators that ``yield`` events; the kernel resumes a
process when the event it waits on fires.

Batched event kernel
--------------------

Internally the queue is *bucketed by timestamp*: a heap orders only the
distinct event times, and each time maps to a FIFO list of the events posted
for it.  ``run`` drains one whole same-timestamp bucket ("batch") at a time in
a tight loop, so the per-event cost is one list append on post plus one index
step on drain — the heap is touched once per distinct instant instead of once
per event.  Emulated workloads post most events at already-scheduled instants
(zero-delay grants, store settles, message deliveries), which is what makes
this the simulator's main wall-clock lever.

The batching is *exactly* order-preserving: buckets are appended in post
order, which is ``_seq`` order, so the drain order equals the old per-event
``(time, seq)`` heap order event for event — schedules (and therefore every
simulated-time result) are byte-identical to the unbatched kernel.  Events
posted *during* a drain at the current instant join the open batch at its
tail, exactly where the old kernel's heap would have placed them.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Iterable, Optional

from .errors import SimError, StopSimulation

__all__ = ["Event", "Timeout", "AnyOf", "AllOf", "Simulator"]

# Sentinel for "event has no value yet".
_PENDING = object()

_INF = float("inf")


class Event:
    """A one-shot occurrence in virtual time.

    An event is *triggered* once :meth:`succeed` or :meth:`fail` is called
    (scheduling its callbacks), and *processed* after the kernel has run the
    callbacks.  Processes wait on events by yielding them.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "name")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        #: Callables invoked with this event when it is processed.  ``None``
        #: once processed (guards against double-trigger).
        self.callbacks: Optional[list[Callable[[Event], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        self.name = name

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimError(f"event {self!r} not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimError(f"event {self!r} has no value yet")
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise SimError(f"event {self!r} already triggered")
        self._ok = True
        self._value = value
        self.sim._post(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception to be thrown into waiters."""
        if not isinstance(exception, BaseException):
            raise TypeError("fail() needs an exception instance")
        if self._value is not _PENDING:
            raise SimError(f"event {self!r} already triggered")
        self._ok = False
        self._value = exception
        self.sim._post(self)
        return self

    def __repr__(self) -> str:
        state = (
            "processed" if self.processed else
            "triggered" if self.triggered else "pending"
        )
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} {state}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None, name: str = ""):
        if not delay >= 0:  # negated so that NaN is rejected too
            raise SimError(f"timeout delay must be >= 0, got {delay}")
        # One Timeout per CPU segment: the slots are filled here rather than
        # through Event.__init__ and then overwritten.
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self.name = name
        sim._post(self, delay=delay)


class _CompositeEvent(Event):
    """Base for AnyOf / AllOf condition events."""

    __slots__ = ("events", "_n_fired")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        self._n_fired = 0
        if not self.events:
            self.succeed({})
            return
        for ev in self.events:
            if ev.callbacks is None:
                # Already-processed events count immediately via a callback
                # posted through the queue to preserve ordering.  (A merely
                # *triggered* event — e.g. a fresh Timeout — is still queued
                # and will invoke our callback when its time comes.)
                self.sim.schedule(lambda _ev, e=ev: self._on_fire(e))
            else:
                ev.callbacks.append(self._on_fire)

    def _done_value(self) -> dict:
        # Only *processed* events have actually occurred in virtual time;
        # a pending Timeout carries its value from construction but has not
        # fired yet.
        return {
            ev: ev.value
            for ev in self.events
            if ev.callbacks is None and ev.ok
        }

    def _on_fire(self, ev: Event) -> None:
        raise NotImplementedError


class AnyOf(_CompositeEvent):
    """Fires when any constituent event fires (value: dict of fired events)."""

    __slots__ = ()

    def _on_fire(self, ev: Event) -> None:
        if self.triggered:
            return
        if not ev.ok:
            self.fail(ev.value)
        else:
            self.succeed(self._done_value())


class AllOf(_CompositeEvent):
    """Fires when all constituent events have fired."""

    __slots__ = ()

    def _on_fire(self, ev: Event) -> None:
        if self.triggered:
            return
        if not ev.ok:
            self.fail(ev.value)
            return
        self._n_fired += 1
        if self._n_fired == len(self.events):
            self.succeed(self._done_value())


class Simulator:
    """The event loop: a clock plus a time-bucketed queue of triggered events."""

    def __init__(self) -> None:
        self.now: float = 0.0
        #: distinct event times, a heap — one entry per *bucket*, not per event
        self._times: list[float] = []
        #: time -> events posted for that time, in FIFO (``_seq``) order
        self._buckets: dict[float, list[Event]] = {}
        #: the batch currently being drained (events at ``_batch_t == now``);
        #: ``_batch_i`` is the next index.  A partially drained batch survives
        #: :meth:`stop` so a later ``run`` resumes exactly where it halted.
        self._batch: Optional[list[Event]] = None
        self._batch_t = 0.0
        self._batch_i = 0
        self._seq = 0  # monotone post counter (FIFO tie-break bookkeeping)
        self._running = False
        self.n_events_processed = 0
        #: optional :class:`repro.trace.Tracer`.  ``None`` (the default)
        #: disables all instrumentation: hook points guard on this attribute
        #: and record nothing, so tracing costs nothing when off and never
        #: perturbs the schedule when on (recording is pure observation).
        self.tracer = None
        #: optional :class:`repro.metrics.MetricsRegistry`, same contract as
        #: ``tracer``: ``None`` means every metrics hook is a single attribute
        #: check.  Its collector (if any) is invoked once per batch as a pure
        #: observer — it never enqueues events.
        self.metrics = None

    # -- event construction helpers ---------------------------------------
    def event(self, name: str = "") -> Event:
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None, name: str = "") -> Timeout:
        return Timeout(self, delay, value, name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def process(self, generator, name: str = ""):
        """Spawn a process coroutine (imported lazily to avoid a cycle)."""
        from .process import Process

        return Process(self, generator, name=name)

    def schedule(
        self, callback: Callable[[Event], None], value: Any = None, delay: float = 0.0
    ) -> Event:
        """Run ``callback(event)`` at ``now + delay``, ``event.value`` being
        ``value``: one event, one callback, no wrapper."""
        if not delay >= 0:  # a past (or NaN) instant would corrupt the queue
            raise SimError(f"callback delay must be >= 0, got {delay}")
        ev = Event(self)
        ev.callbacks.append(callback)
        ev._ok = True
        ev._value = value
        self._post(ev, delay=delay)
        return ev

    # -- queue internals ---------------------------------------------------
    def _post(self, event: Event, delay: float = 0.0) -> None:
        """Enqueue a triggered event for processing at ``now + delay``."""
        if event.callbacks is None:
            raise SimError(f"event {event!r} already processed")
        self._seq += 1
        t = self.now + delay
        # A zero-delay post while (or right after) draining the batch at the
        # current instant joins that batch at its tail — identical placement
        # to the old per-event heap's (t, seq) order.
        batch = self._batch
        if batch is not None and t == self._batch_t:
            batch.append(event)
            return
        bucket = self._buckets.get(t)
        if bucket is None:
            self._buckets[t] = [event]
            heappush(self._times, t)
        else:
            bucket.append(event)

    def _open_batch(self) -> list[Event]:
        """Pop the earliest bucket, advance the clock, make it current.

        Raises IndexError when the queue is empty (same contract heappop had).
        """
        t = heappop(self._times)
        if t < self.now:
            raise SimError("time went backwards (corrupt event queue)")
        m = self.metrics
        if m is not None and m.collector is not None:
            # Scrape boundaries in (now, t] before the clock advances: state
            # is constant between events, so this is the exact left-limit
            # sample at each boundary, with zero events added to the queue.
            # One call per batch equals one call per event — for the second
            # and later events of a batch, time has not moved and the
            # collector's due-clock makes the call a no-op.
            m.collector.observe(t)
        self.now = t
        batch = self._buckets.pop(t)
        self._batch = batch
        self._batch_t = t
        self._batch_i = 0
        return batch

    def at_tail(self) -> bool:
        """True when the event being processed is the last at this instant.

        Nothing else is scheduled for the current time, so code that would
        enqueue a zero-delay event and wait for it (a resource grant, a kick
        for an already-processed target) may instead proceed synchronously
        without changing the schedule: the queued event would have been
        processed immediately next, with no event in between.
        """
        batch = self._batch
        return batch is None or self._batch_i >= len(batch)

    # -- execution ----------------------------------------------------------
    def peek(self) -> float:
        """Time of the next event, or +inf if the queue is empty."""
        if self._batch is not None and self._batch_i < len(self._batch):
            return self._batch_t
        return self._times[0] if self._times else _INF

    def step(self) -> None:
        """Process one event: advance the clock and run its callbacks."""
        batch = self._batch
        i = self._batch_i
        if batch is None or i >= len(batch):
            batch = self._open_batch()
            i = 0
        self._batch_i = i + 1
        event = batch[i]
        callbacks = event.callbacks
        event.callbacks = None
        self.n_events_processed += 1
        for cb in callbacks:
            cb(event)

    def run(self, until: Optional[float] = None) -> Any:
        """Run until the queue drains or the clock passes ``until``.

        In either exit the clock ends at ``min(until, time of next pending
        event)`` — i.e. when the queue drains before ``until``, ``now``
        still advances to ``until`` (nothing can happen in between), matching
        the early-break branch.

        Returns the value of a :class:`StopSimulation` if one was raised
        (e.g. by :meth:`stop`), else ``None``.
        """
        if self._running:
            raise SimError("simulator is not reentrant")
        self._running = True
        try:
            times = self._times
            batch = self._batch
            i = self._batch_i
            while True:
                if batch is None or i >= len(batch):
                    if not times:
                        break
                    if until is not None and times[0] > until:
                        self.now = until
                        return None
                    batch = self._open_batch()
                    i = 0
                # Drain the whole same-timestamp batch.  Callbacks may append
                # zero-delay events to ``batch`` mid-drain, so the bound is
                # re-read every iteration.
                n_done = 0
                try:
                    while i < len(batch):
                        event = batch[i]
                        i += 1
                        self._batch_i = i
                        callbacks = event.callbacks
                        event.callbacks = None
                        n_done += 1
                        for cb in callbacks:
                            cb(event)
                except StopSimulation as stop:
                    return stop.value
                finally:
                    self.n_events_processed += n_done
                    self._batch_i = i
            if until is not None and until > self.now:
                # Queue drained before the horizon: advance the clock to it
                # (consistent with the early-break branch above).
                self.now = until
        finally:
            self._running = False
        return None

    def discard_queue(self) -> None:
        """Forget every queued event (a finished run's pending timers,
        deliveries and wake-ups): their callbacks hold the processes and
        payloads they would have resumed.  The clock and the counters stay."""
        self._times.clear()
        self._buckets.clear()
        self._batch = None
        self._batch_i = 0

    def stop(self, value: Any = None) -> None:
        """Halt :meth:`run` after the current event (callable from callbacks)."""
        raise StopSimulation(value)
