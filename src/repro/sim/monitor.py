"""Progress and utilization monitoring hooks for the simulation.

The paper's emulator "is instrumented to report application progress, overall
runtime, and resource utilization for each host and ASU" (§5).  A
:class:`BusyTracker` records busy intervals on a device; a
:class:`ProgressCounter` counts records through a stage.
"""

from __future__ import annotations

from ..util.stats import IntervalAccumulator, TimeSeries
from .core import Simulator

__all__ = ["BusyTracker", "ProgressCounter"]


class BusyTracker:
    """Records busy intervals of a device for utilization reporting.

    When a tracer is attached to the simulator, every recorded interval is
    also emitted as a trace span on the track named after this tracker —
    utilization accounting and observability share one code path.
    """

    def __init__(self, sim: Simulator, name: str = "", cat: str = "busy"):
        self.sim = sim
        self.name = name
        #: trace category (and default span label) for segments of this device
        self.cat = cat
        self.intervals = IntervalAccumulator()
        self._busy_since: float | None = None
        self._busy_label: str | None = None

    def _trace(self, start: float, end: float, label: str | None = None) -> None:
        """Emit the interval as a span.  Callers test ``sim.tracer`` first, so
        an untraced run never enters here (DESIGN.md §4, decision 7)."""
        tracer = self.sim.tracer
        if tracer is not None and end > start:
            tracer.span(
                start, end, self.name or "busy", label or self.cat, cat=self.cat
            )

    def begin(self, label: str | None = None) -> None:
        """Open a busy interval; ``label`` (optional) names the emitted trace
        span — e.g. the functor/stage running on a CPU — instead of the
        generic category.  Accounting is identical either way."""
        if self._busy_since is not None:
            raise RuntimeError(f"{self.name}: begin() while already busy")
        self._busy_since = self.sim.now
        self._busy_label = label

    def end(self) -> None:
        start = self._busy_since
        if start is None:
            raise RuntimeError(f"{self.name}: end() while not busy")
        sim = self.sim
        self.intervals.add(start, sim.now)
        self._busy_since = None
        if sim.tracer is not None:
            self._trace(start, sim.now, self._busy_label)
        self._busy_label = None

    def add_span(self, duration: float, label: str | None = None) -> None:
        """Record a busy span ending now (for modelled, non-reentrant work).

        The start is clamped to t=0 (a span longer than the elapsed clock is
        back-dated to the epoch, not to negative time), and spans may overlap
        earlier intervals — two modelled transfers of different lengths can
        legitimately end at the same instant.
        """
        end = self.sim.now
        start = max(0.0, end - duration)
        self.intervals.insert(start, end)
        if self.sim.tracer is not None:
            self._trace(start, end, label)

    def add_interval(self, start: float, end: float, label: str | None = None) -> None:
        """Record an explicit [start, end) busy interval (timeline devices
        reserve service time ahead of the clock, e.g. disk write-behind)."""
        self.intervals.insert(start, end)
        if self.sim.tracer is not None:
            self._trace(start, end, label)

    def end_if_busy(self) -> None:
        """Close an open busy interval if one exists.

        Used when a device halts abruptly (fail-stop, §repro.faults): the
        segment in flight is accounted busy up to the failure instant.
        """
        if self._busy_since is not None:
            self.end()

    @property
    def total_busy(self) -> float:
        extra = (self.sim.now - self._busy_since) if self._busy_since is not None else 0.0
        return self.intervals.total_busy + extra

    def busy_until(self, t: float) -> float:
        """Busy time accumulated in [0, t) — valid for any t, including
        scrape boundaries ahead of ``sim.now`` (an open busy interval and
        ahead-of-clock reservations are clipped at ``t``)."""
        extra = 0.0
        if self._busy_since is not None and t > self._busy_since:
            extra = t - self._busy_since
        return self.intervals.busy_in(0.0, t) + extra

    def utilization(self, t_end: float | None = None) -> float:
        t_end = self.sim.now if t_end is None else t_end
        if t_end <= 0:
            return 0.0
        return self.total_busy / t_end

    def utilization_at(self, t: float) -> float:
        """Cumulative utilization over [0, t) — the scrape-time gauge value."""
        if t <= 0:
            return 0.0
        return self.busy_until(t) / t

    def utilization_series(self, t_end: float | None = None, dt: float = 0.1):
        """Windowed utilization samples — the Figure-10 trace data.

        A busy interval still open at sampling time contributes its overlap
        with every window (clipped at each window edge), consistent with
        :meth:`busy_until` / :meth:`utilization_at` — sampling mid-segment
        no longer under-reports the segment in flight.
        """
        t_end = self.sim.now if t_end is None else t_end
        return self.intervals.utilization_series(
            t_end, dt, open_start=self._busy_since
        )


class ProgressCounter:
    """Counts records (or bytes) flowing through a point, with a time series."""

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name
        self.total = 0
        self.series = TimeSeries()
        self._m_records = None
        m = sim.metrics
        if m is not None and name:
            from ..metrics.registry import derive_owner

            self._m_records = m.counter(
                "repro_progress_records_total",
                owner=derive_owner(name),
                point=name,
            )

    def add(self, n: int) -> None:
        self.total += int(n)
        self.series.append(self.sim.now, self.total)
        tracer = self.sim.tracer
        if tracer is not None and self.name:
            tracer.counter(self.sim.now, self.name, "records", float(self.total))
        if self._m_records is not None:
            self._m_records.inc(float(n))

    def rate(self) -> float:
        """Average rate since t=0."""
        return self.total / self.sim.now if self.sim.now > 0 else 0.0
