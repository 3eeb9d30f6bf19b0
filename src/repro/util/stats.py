"""Small online statistics used by the emulator's instrumentation.

The emulator reports per-node CPU utilization over time (Figure 10) and
aggregate run statistics.  These accumulators avoid storing per-event data:
busy intervals fold into a step function sampled on demand.
"""

from __future__ import annotations

import math
from bisect import bisect_right

__all__ = ["OnlineStats", "IntervalAccumulator", "TimeSeries"]


class OnlineStats:
    """Welford online mean/variance accumulator."""

    def __init__(self) -> None:
        self.n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf

    def add(self, x: float) -> None:
        x = float(x)
        self.n += 1
        delta = x - self._mean
        self._mean += delta / self.n
        self._m2 += delta * (x - self._mean)
        self._min = min(self._min, x)
        self._max = max(self._max, x)

    @property
    def mean(self) -> float:
        return self._mean if self.n else 0.0

    @property
    def variance(self) -> float:
        return self._m2 / (self.n - 1) if self.n > 1 else 0.0

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    @property
    def min(self) -> float:
        return self._min if self.n else 0.0

    @property
    def max(self) -> float:
        return self._max if self.n else 0.0

    def merge(self, other: "OnlineStats") -> "OnlineStats":
        """Combine two accumulators (parallel Welford merge)."""
        out = OnlineStats()
        n = self.n + other.n
        if n == 0:
            return out
        delta = other.mean - self.mean
        out.n = n
        out._mean = self.mean + delta * other.n / n
        out._m2 = self._m2 + other._m2 + delta * delta * self.n * other.n / n
        out._min = min(self._min, other._min)
        out._max = max(self._max, other._max)
        return out


def _merge_by_start(left, right):
    """Stable merge of two by-start-sorted interval lists, left first on ties."""
    i = j = 0
    nl, nr = len(left), len(right)
    while i < nl and j < nr:
        if left[i][0] <= right[j][0]:
            yield left[i]
            i += 1
        else:
            yield right[j]
            j += 1
    yield from left[i:]
    yield from right[j:]


class IntervalAccumulator:
    """Accumulates busy time from (start, end) intervals.

    Used to compute utilization: ``busy_in(w0, w1) / (w1 - w0)``.  Intervals
    must be appended in nondecreasing start order (event time order), which
    the simulator guarantees; :meth:`insert` accepts out-of-order intervals
    for modelled spans that are back-dated from their completion instant.

    Intervals may overlap (queued modelled work); ``busy_in`` sums each
    interval's own overlap with the window, so utilization over 1.0 reports
    overcommit rather than clipping it.
    """

    __slots__ = ("_starts", "_ends", "total_busy", "_max_ends", "_pending")

    def __init__(self) -> None:
        self._starts: list[float] = []
        self._ends: list[float] = []
        self.total_busy: float = 0.0
        #: running prefix maximum of ``ends`` — lets the backward window scan
        #: stop as soon as no earlier interval can still overlap
        self._max_ends: list[float] = []
        #: out-of-order intervals awaiting their sorted splice (lazy merge on
        #: the next query) — keeps :meth:`insert` amortized instead of O(n)
        self._pending: list[tuple[float, float]] = []

    @property
    def starts(self) -> list[float]:
        """Interval starts, sorted (flushes pending out-of-order inserts)."""
        if self._pending:
            self._flush()
        return self._starts

    @property
    def ends(self) -> list[float]:
        """Interval ends, in by-start order (flushes pending inserts)."""
        if self._pending:
            self._flush()
        return self._ends

    def __repr__(self) -> str:
        return (
            f"IntervalAccumulator(n={len(self._starts) + len(self._pending)}, "
            f"total_busy={self.total_busy})"
        )

    def add(self, start: float, end: float) -> None:
        # One conversion each; every use below sees the same two doubles.
        start = float(start)
        end = float(end)
        if end < start:
            raise ValueError(f"interval end {end} before start {start}")
        starts = self._starts
        if starts and start < starts[-1]:
            raise ValueError("intervals must be added in start order")
        starts.append(start)
        self._ends.append(end)
        max_ends = self._max_ends
        prev = max_ends[-1] if max_ends else -math.inf
        max_ends.append(end if end > prev else prev)
        self.total_busy += end - start

    def insert(self, start: float, end: float) -> None:
        """Add an interval at its sorted position (out-of-order tolerant).

        Fast path is an append.  An interval starting before the latest
        start (e.g. a long modelled span ending at the same instant as a
        short one) lands in a pending buffer and is spliced in lazily on
        the next query — the former eager O(n) list splice plus prefix-max
        rebuild *per insert* made disk write-behind accounting quadratic on
        long runs; the lazy merge pays one sort-and-merge per insert→query
        transition instead.  Query results are identical to the eager
        splice: the merged order is the stable by-start order either way.
        """
        if end < start:
            raise ValueError(f"interval end {end} before start {start}")
        if not self._starts or start >= self._starts[-1]:
            self.add(start, end)
            return
        self._pending.append((float(start), float(end)))
        self.total_busy += end - start

    def _flush(self) -> None:
        """Merge pending out-of-order intervals into the sorted arrays."""
        pend = self._pending
        if not pend:
            return
        self._pending = []
        pend.sort(key=lambda iv: iv[0])  # stable: equal starts keep insert order
        starts, ends = self._starts, self._ends
        i = bisect_right(starts, pend[0][0])
        tail = list(zip(starts[i:], ends[i:]))
        del starts[i:]
        del ends[i:]
        del self._max_ends[i:]
        prev = self._max_ends[i - 1] if i > 0 else -math.inf
        # Existing intervals first on ties — where bisect_right would have
        # spliced each pending interval.
        for s, e in _merge_by_start(tail, pend):
            starts.append(s)
            ends.append(e)
            prev = max(prev, e)
            self._max_ends.append(prev)

    def busy_in(self, w0: float, w1: float) -> float:
        """Total busy time overlapping window [w0, w1)."""
        if self._pending:
            self._flush()
        if w1 <= w0:
            return 0.0
        busy = 0.0
        starts, ends, max_ends = self._starts, self._ends, self._max_ends
        # First interval that could overlap: starts before w1.
        hi = bisect_right(starts, w1)
        for i in range(hi - 1, -1, -1):
            if max_ends[i] <= w0:
                # No interval at or before i reaches into the window: every
                # earlier end is <= max_ends[i] <= w0.
                break
            lo = max(starts[i], w0)
            hi_t = min(ends[i], w1)
            if hi_t > lo:
                busy += hi_t - lo
        return busy

    def utilization(self, w0: float, w1: float) -> float:
        """Fraction of [w0, w1) spent busy."""
        if w1 <= w0:
            return 0.0
        return self.busy_in(w0, w1) / (w1 - w0)

    def utilization_series(
        self,
        t_end: float,
        dt: float,
        t_start: float = 0.0,
        open_start: float | None = None,
    ) -> list[tuple[float, float]]:
        """Sampled utilization over [t_start, t_end) in windows of ``dt``.

        Returns (window_midpoint, utilization) pairs — the data behind the
        Figure-10 utilization traces.  Window edges are indexed
        (``t_start + i*dt``) rather than accumulated, so the edge error stays
        at one rounding ulp regardless of run length and the final window is
        neither duplicated nor dropped.

        ``open_start`` accounts a busy interval still in flight at sampling
        time (start known, end not yet): it contributes its overlap with
        every window from ``open_start`` on, exactly as ``busy_in`` would
        count it once closed at ``t_end`` or later.
        """
        if dt <= 0:
            raise ValueError("dt must be positive")
        span = t_end - t_start
        if span <= 0:
            return []
        n_full = int(span / dt + 1e-9)
        rem = span - n_full * dt
        n = n_full + (1 if rem > dt * 1e-9 else 0)
        out = []
        for i in range(n):
            w0 = t_start + i * dt
            w1 = min(t_start + (i + 1) * dt, t_end)
            busy = self.busy_in(w0, w1)
            if open_start is not None:
                lo = max(open_start, w0)
                if w1 > lo:
                    busy += w1 - lo
            out.append(((w0 + w1) / 2.0, busy / (w1 - w0) if w1 > w0 else 0.0))
        return out


class TimeSeries:
    """A simple (time, value) series with nondecreasing times."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.values: list[float] = []

    def append(self, t: float, v: float) -> None:
        if self.times and t < self.times[-1]:
            raise ValueError("time series must be appended in time order")
        self.times.append(float(t))
        self.values.append(float(v))

    def __len__(self) -> int:
        return len(self.times)

    def value_at(self, t: float) -> float:
        """Step-function lookup: last value at or before ``t`` (0 if none)."""
        i = bisect_right(self.times, t) - 1
        return self.values[i] if i >= 0 else 0.0

    def last(self) -> float:
        return self.values[-1] if self.values else 0.0
