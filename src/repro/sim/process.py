"""Process coroutines driven by the event queue.

The paper's emulator stores per-node execution context in threads switched by
the event queue (§5).  We use generator coroutines instead — same semantics,
deterministic and far cheaper.  A process yields events; the kernel resumes it
with the event's value (or throws the event's exception into it).
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from .core import _PENDING, Event, Simulator
from .errors import Interrupt, SimError

__all__ = ["Process"]


class Process(Event):
    """Wraps a generator; fires (as an Event) when the generator returns.

    The event's value is the generator's return value, so processes can wait
    on each other simply by yielding the other process.
    """

    __slots__ = ("_gen", "_waiting_on", "_send", "_throw")

    def __init__(self, sim: Simulator, generator: Generator, name: str = ""):
        if not hasattr(generator, "send"):
            raise SimError(f"process body must be a generator, got {generator!r}")
        super().__init__(sim, name or getattr(generator, "__name__", ""))
        self._gen = generator
        # Bound methods cached once: _step runs once per resume, which is the
        # hottest non-kernel path in the simulator.
        self._send = generator.send
        self._throw = generator.throw
        self._waiting_on: Optional[Event] = None
        # Kick off at the current time (after already-queued events).
        boot = Event(sim)
        boot.callbacks.append(self._resume)
        boot._ok = True
        boot._value = None
        sim._post(boot)

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        The target stops waiting on whatever event it yielded (that event is
        *not* cancelled; its value is simply no longer delivered here).
        """
        if self.triggered:
            raise SimError(f"cannot interrupt dead process {self!r}")
        target = self._waiting_on
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._waiting_on = None
        kick = Event(self.sim)
        kick.callbacks.append(self._throw_interrupt)
        kick._ok = True
        kick._value = Interrupt(cause)
        self.sim._post(kick)

    def _throw_interrupt(self, kick: Event) -> None:
        exc = kick._value
        try:
            self._step(exc, throw=True)
        finally:
            # The traceback of a handled interrupt pins every frame it
            # crossed — and through their callers, whatever spawned this
            # process — in a reference cycle.  Nothing reads it: drop it.
            exc.__traceback__ = None

    # -- internal ----------------------------------------------------------
    def _resume(self, event: Event) -> None:
        if self._value is not _PENDING:  # interrupted after the event fired
            return
        self._waiting_on = None
        self._step(event._value, throw=not event._ok)

    def _step(self, value: Any, throw: bool) -> None:
        while True:
            try:
                if throw:
                    target = self._throw(value)
                else:
                    target = self._send(value)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except Interrupt:
                # Process chose not to handle its interrupt: treat as clean
                # exit.
                self.succeed(None)
                return
            except BaseException as exc:
                # Propagate failures to anyone waiting on this process; if
                # nobody is waiting, re-raise so bugs do not vanish silently.
                self._ok = False
                self._value = exc
                if self.callbacks:
                    self.sim._post(self)
                else:
                    self.callbacks = None
                    raise
                return

            if not isinstance(target, Event):
                raise SimError(
                    f"process {self.name!r} yielded {target!r}; processes "
                    "must yield Event instances"
                )
            if target.callbacks is None:
                # Already processed: this process must take its turn BEHIND
                # events already scheduled at this instant — load-manager
                # decisions and store FIFO order depend on that fairness.
                # When it is already last at this instant (at_tail) the turn
                # is immediate and the kick is elided, order-identically.
                if self.sim.at_tail():
                    value = target._value
                    throw = not target._ok
                    continue
                self._waiting_on = None
                kick = Event(self.sim)
                kick.callbacks.append(
                    lambda _ev, t=target: self._resume_processed(t)
                )
                kick._ok = True
                kick._value = None
                self.sim._post(kick)
            else:
                self._waiting_on = target
                target.callbacks.append(self._resume)
            return

    def _resume_processed(self, target: Event) -> None:
        if self._value is not _PENDING:
            return
        self._step(target._value, throw=not target._ok)
