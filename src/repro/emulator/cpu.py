"""CPU model: executes real code, charges scaled virtual time.

The paper's emulator "executes the instructions of application functors
directly on the CPU of the emulation platform ... directly measures CPU time
for each execution segment using the fine-grained processor cycle counter,
then scales the elapsed time according to the relative speed of the emulated
processor" (§5).

:class:`Cpu` supports both that *measured* mode and the default *modeled*
mode, where segments declare an analytic cycle cost (comparisons x cycles per
comparison).  Either way the segment's Python function really runs, so data
transformations are genuine.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Optional

import numpy as np

from ..sim import BusyTracker, Resource, Simulator
from ..sim.core import Timeout
from .params import SystemParams, TimingMode

__all__ = ["Cpu"]


class Cpu:
    """A single-core processor with a clock rate and FIFO scheduling."""

    def __init__(
        self,
        sim: Simulator,
        clock_hz: float,
        params: SystemParams,
        name: str = "cpu",
    ):
        if clock_hz <= 0:
            raise ValueError("clock_hz must be positive")
        self.sim = sim
        self.clock_hz = clock_hz
        self.params = params
        self.name = name
        self._core = Resource(sim, capacity=1, name=name)
        self.busy = BusyTracker(sim, name=name, cat="cpu")
        #: total cycles charged (for load accounting)
        self.cycles_charged = 0.0
        self.n_segments = 0
        #: dynamic speed multiplier (< 1.0 = degraded clock, fault injection)
        self.speed_factor = 1.0
        self._m_cycles = None
        m = sim.metrics
        if m is not None:
            from ..metrics.registry import derive_owner

            owner = derive_owner(name)
            self._m_cycles = m.counter(
                "repro_cpu_cycles_total", owner=owner, node=name
            )
            m.gauge(
                "repro_cpu_utilization",
                fn=self.busy.utilization_at,
                owner=owner,
                node=name,
            )

    def seconds_for(self, cycles: float) -> float:
        """Virtual seconds to execute ``cycles`` on this CPU."""
        return float(cycles) / (self.clock_hz * self.speed_factor)

    def charge_batch(self, cycles):
        """Vectorized :meth:`seconds_for` over a stripe of cycle charges.

        One NumPy divide instead of N scalar conversions; each element is
        bit-identical to the scalar path (same IEEE-754 division by the same
        denominator).
        Uses the *current* speed factor — precompute charges only for work
        that starts before the next speed change, as :meth:`execute` does
        per segment.
        """
        denom = self.clock_hz * self.speed_factor
        return np.asarray(cycles, dtype=np.float64) / denom

    def set_speed(self, factor: float) -> None:
        """Scale the effective clock by ``factor`` (degraded-clock fault).

        Affects segments that *start* after the change; a segment already in
        flight completes at the rate it began with.  Degradations do not
        nest: restoring always sets the factor back to an absolute value.
        """
        if factor <= 0:
            raise ValueError("speed factor must be positive")
        self.speed_factor = float(factor)

    def halt(self) -> None:
        """Fail-stop accounting: close any open busy interval."""
        self.busy.end_if_busy()

    def execute(
        self,
        cycles: Optional[float] = None,
        fn: Optional[Callable[..., Any]] = None,
        args: tuple = (),
        label: Optional[str] = None,
    ):
        """Process generator: run an execution segment on this CPU.

        ``fn(*args)`` (if given) executes for real; the CPU is then held for
        the segment's cost.  In modeled mode the cost is ``cycles``; in
        measured mode it is the measured wall time converted to cycles at
        ``measured_reference_hz`` (the paper's scaled-cycle-counter method).
        Returns ``fn``'s result.  ``label`` (optional) names the emitted
        trace span after the work being run — a stage or functor name —
        which is what the critical-path profiler folds flamegraph frames
        from; accounting is unchanged.

        Use as ``result = yield from cpu.execute(cycles=..., fn=..., args=...)``.
        """
        if cycles is None and fn is None:
            raise ValueError("execute() needs cycles and/or fn")

        core = self._core
        req = core.request_now()
        if req.callbacks is not None:
            yield req
        try:
            result = None
            charge = float(cycles) if cycles is not None else 0.0
            if fn is not None:
                if self.params.timing_mode == TimingMode.MEASURED:
                    t0 = time.perf_counter_ns()
                    result = fn(*args)
                    wall = (time.perf_counter_ns() - t0) * 1e-9
                    charge = wall * self.params.measured_reference_hz
                else:
                    result = fn(*args)
            dt = charge / (self.clock_hz * self.speed_factor)  # charge: a float
            self.cycles_charged += charge
            self.n_segments += 1
            if self._m_cycles is not None:
                self._m_cycles.inc(charge)
            if dt > 0:
                busy = self.busy
                busy.begin(label)
                yield Timeout(self.sim, dt)
                busy.end()
            return result
        finally:
            core.release(req)

    def utilization(self, t_end: Optional[float] = None) -> float:
        return self.busy.utilization(t_end)

    def __repr__(self) -> str:
        return f"<Cpu {self.name} {self.clock_hz / 1e6:.0f}MHz>"
