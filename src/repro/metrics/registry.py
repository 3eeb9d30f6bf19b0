"""Simulated-time metrics instruments and the registry that owns them.

The paper's load manager acts on *runtime feedback*: "the routing of records
across functor instances may be responsive to dynamic load conditions visible
to the system" (§3.3), and the emulator "is instrumented to report application
progress, overall runtime, and resource utilization for each host and ASU"
(§5).  Where :mod:`repro.trace` records that feedback *post hoc* as spans, the
metrics registry holds it *live*: queue depths, device utilization, per-stage
throughput and latency, all updated against the virtual clock and readable by
the system itself (the :class:`~repro.core.load_manager.LoadManager` routes
exclusively from registry-backed signals).

Design rules (shared with the tracer, see docs/OBSERVABILITY.md):

* **Zero overhead when disabled.**  Instrumented code guards every update
  with a single ``sim.metrics is None`` (or cached-instrument ``is None``)
  check; no registry ⇒ no allocation, no call, no perturbation.
* **Deterministic.**  All values derive from the virtual clock and the seeded
  workload.  Histogram quantiles use fixed log-spaced buckets, never
  sampling; exports serialise canonically, so same-seed runs are
  byte-identical.
* **Pure observation.**  Instruments never touch the event queue.  Scraping
  (:mod:`repro.metrics.collector`) piggybacks on existing events.

Instruments are identified by ``(name, labels)``; ``name`` follows the
Prometheus convention (``repro_*``, ``_total`` for counters).  An instrument
may carry an ``owner`` — the node it describes — so a detected failure makes
its gauges read NaN instead of freezing the last pre-crash value
(:meth:`MetricsRegistry.mark_dead`).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Optional

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "GaugeVector",
    "Histogram",
    "Rate",
    "MetricsRegistry",
    "derive_owner",
]

NAN = float("nan")


def derive_owner(name: str) -> Optional[str]:
    """Node id owning a named resource: ``asu0.cpu`` → ``asu0``,
    ``mbox:host1`` → ``host1``.  Non-node names resolve to a prefix that
    simply never appears in ``dead_nodes`` (harmless)."""
    if name.startswith("mbox:"):
        name = name[5:]
    return name.split(".", 1)[0] or None


def _label_key(labels: dict) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_key(name: str, label_items: tuple) -> str:
    if not label_items:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in label_items)
    return f"{name}{{{inner}}}"


class Instrument:
    """Base: identity, ownership, and the sample protocol."""

    kind = "untyped"

    def __init__(self, registry: "MetricsRegistry", name: str, labels: dict,
                 owner: Optional[str] = None):
        #: the registry's dead-node set (shared, not copied).  Not the
        #: registry itself: a back-reference would make every registry a
        #: reference cycle, and the gauge callbacks it holds would keep a
        #: finished job's collaborators alive until the cycle collector ran.
        self._dead_nodes = registry.dead_nodes
        self.name = name
        self.labels = dict(labels)
        #: node this instrument describes (``None`` = not node-scoped).
        #: Dead owners make gauges sample NaN (see ``MetricsRegistry.mark_dead``).
        self.owner = owner
        #: canonical identity string, e.g. ``repro_cpu_utilization{node="asu0"}``
        self.key = _render_key(name, _label_key(labels))

    @property
    def dead(self) -> bool:
        return self.owner is not None and self.owner in self._dead_nodes

    def sample(self, t: float) -> float:
        """Scalar value at virtual time ``t`` (what the collector records)."""
        raise NotImplementedError

    def final(self) -> dict:
        """Structured end-of-run snapshot for the JSON exporter."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.key}>"


class Counter(Instrument):
    """Monotone cumulative count (events, cycles, bytes).

    Counters survive node death: the cumulative total up to the crash is
    real work done, so :meth:`sample` keeps reporting it.
    """

    kind = "counter"

    def __init__(self, registry, name, labels, owner=None):
        super().__init__(registry, name, labels, owner)
        self.value = 0.0

    def inc(self, n: float = 1.0) -> None:
        self.value += n

    def sample(self, t: float) -> float:
        return self.value

    def final(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge(Instrument):
    """A point-in-time level: queue depth, utilization, backlog.

    Either *set* explicitly (``set``/``inc``/``dec``) or backed by a
    ``fn(t) -> float`` callback polled only at scrape time, which keeps
    derived quantities (device utilization) entirely off the hot path.
    ``hwm`` tracks the high-water mark of every set/poke/sample, so peaks
    between scrapes are not lost.
    """

    kind = "gauge"

    def __init__(self, registry, name, labels, owner=None,
                 fn: Optional[Callable[[float], float]] = None):
        super().__init__(registry, name, labels, owner)
        self.fn = fn
        self.value = 0.0
        self.hwm = 0.0

    def set(self, v: float) -> None:
        self.value = v
        if v > self.hwm:
            self.hwm = v

    def inc(self, n: float = 1.0) -> None:
        self.set(self.value + n)

    def dec(self, n: float = 1.0) -> None:
        self.value -= n

    def poke(self, v: float) -> None:
        """Update only the high-water mark (for callback-backed gauges whose
        live value is derived, e.g. queue depth)."""
        if v > self.hwm:
            self.hwm = v

    def sample(self, t: float) -> float:
        if self.dead:
            return NAN
        v = float(self.fn(t)) if self.fn is not None else self.value
        if v > self.hwm:
            self.hwm = v
        return v

    def final(self) -> dict:
        last = NAN if self.dead else (self.value if self.fn is None else None)
        out = {"type": "gauge", "hwm": self.hwm}
        if last is not None:
            out["value"] = last
        return out


class GaugeVector(Instrument):
    """A dense family of gauges indexed 0..n-1 sharing one numpy array.

    The backing :attr:`values` array is the instrument — consumers that need
    vectorised reads (the router's join-shortest-queue ``argmin``) operate on
    it directly, so the registry is the *single* home of the feedback signal
    rather than a copy of it.  Exported as one series per index under the
    ``index_label``.
    """

    kind = "gauge_vector"

    def __init__(self, registry, name, labels, n: int, index_label: str = "instance"):
        super().__init__(registry, name, labels)
        self.n = int(n)
        self.index_label = index_label
        self.values = np.zeros(self.n, dtype=np.float64)
        self.hwm = np.zeros(self.n, dtype=np.float64)
        #: per-element quarantine (a dead functor instance, not a dead node)
        self.element_dead = np.zeros(self.n, dtype=bool)
        self._keys = [
            _render_key(name, _label_key({**labels, index_label: str(i)}))
            for i in range(self.n)
        ]

    def element_key(self, i: int) -> str:
        return self._keys[i]

    def set(self, i: int, v: float) -> None:
        self.values[i] = v
        if v > self.hwm[i]:
            self.hwm[i] = v

    def add(self, i: int, dv: float) -> None:
        self.set(i, float(self.values[i]) + dv)

    def __getitem__(self, i: int) -> float:
        return float(self.values[i])

    def mark_element_dead(self, i: int) -> None:
        self.element_dead[i] = True

    def sample_element(self, i: int, t: float) -> float:
        if self.dead or self.element_dead[i]:
            return NAN
        v = float(self.values[i])
        if v > self.hwm[i]:
            self.hwm[i] = v
        return v

    def sample(self, t: float) -> float:  # scalar view: the vector maximum
        alive = ~self.element_dead
        if self.dead or not alive.any():
            return NAN
        return float(self.values[alive].max())

    def final(self) -> dict:
        return {
            "type": "gauge_vector",
            "values": [
                None if bool(self.element_dead[i]) else float(self.values[i])
                for i in range(self.n)
            ],
            "hwm": [float(x) for x in self.hwm],
        }


class Histogram(Instrument):
    """Log-bucketed distribution with deterministic quantiles.

    Observations land in geometric buckets ``[base**i, base**(i+1))`` with
    ``base = 2**(1/8)`` (eight buckets per octave ⇒ ≤ ~9% relative bucket
    width).  Quantiles walk the bucket table — no sampling, no reservoir —
    so the same observations always produce the same quantile estimates, and
    the estimate is within one bucket width of the exact order statistic.
    Non-positive observations collect in a dedicated underflow bucket.
    """

    kind = "histogram"

    #: buckets per octave; base = 2 ** (1 / BUCKETS_PER_OCTAVE)
    BUCKETS_PER_OCTAVE = 8
    _LOG_BASE = math.log(2.0) / BUCKETS_PER_OCTAVE

    def __init__(self, registry, name, labels, owner=None):
        super().__init__(registry, name, labels, owner)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.underflow = 0  # observations <= 0
        self.buckets: dict[int, int] = {}

    def _index(self, v: float) -> int:
        return math.floor(math.log(v) / self._LOG_BASE)

    def bucket_bounds(self, i: int) -> tuple[float, float]:
        return (math.exp(i * self._LOG_BASE), math.exp((i + 1) * self._LOG_BASE))

    def observe(self, v: float, n: int = 1) -> None:
        """Record ``n`` observations of value ``v``."""
        v = float(v)
        self.count += n
        self.sum += v * n
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v
        if v <= 0.0:
            self.underflow += n
            return
        i = self._index(v)
        self.buckets[i] = self.buckets.get(i, 0) + n

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Deterministic nearest-rank quantile from the bucket table.

        Returns the geometric midpoint of the bucket containing the q-th
        ranked observation, clamped to the exact observed [min, max].
        Edge cases: ``q=0`` returns the exact observed minimum, ``q=1`` the
        exact observed maximum, and an empty histogram returns NaN (the
        exporters sanitise it to null).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        if self.count == 0:
            return NAN
        if q == 0.0:
            return self.min
        if q == 1.0:
            return self.max
        rank = max(1, math.ceil(q * self.count))
        if rank <= self.underflow:
            return min(self.min, 0.0)
        cum = self.underflow
        for i in sorted(self.buckets):
            cum += self.buckets[i]
            if cum >= rank:
                lo, hi = self.bucket_bounds(i)
                mid = math.sqrt(lo * hi)
                return min(max(mid, self.min), self.max)
        return self.max

    def sample(self, t: float) -> float:  # scalar view: the running count
        return float(self.count)

    def snapshot(self) -> dict:
        """Structured snapshot: count/sum/min/max plus p50/p95/p99/p999.

        The tail quantile (p999) is what the "millions of users" latency
        targets gate on — a p99 alone hides one-in-a-thousand stalls.
        Alias of :meth:`final`; exported through both the JSON and
        Prometheus exporters.
        """
        return self.final()

    def final(self) -> dict:
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "underflow": self.underflow,
            "buckets": [
                [self.bucket_bounds(i)[1], self.buckets[i]]
                for i in sorted(self.buckets)
            ],
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "p999": self.quantile(0.999),
        }


class Rate(Instrument):
    """A cumulative count plus its windowed rate — the steady-state
    throughput signal (records/s over the last ``window`` seconds) that
    in-network stream-processing systems use for placement decisions.

    ``mark(t, n)`` must be called in nondecreasing ``t`` order (event order,
    which the simulator guarantees).  Marks older than the window are pruned
    as new ones arrive, so memory stays bounded by the event density of one
    window.
    """

    kind = "rate"

    def __init__(self, registry, name, labels, window: float = 0.05, owner=None):
        super().__init__(registry, name, labels, owner)
        if window <= 0:
            raise ValueError("rate window must be positive")
        self.window = float(window)
        self.total = 0.0
        #: (t, n) marks inside the current window, oldest first
        self._marks: deque[tuple[float, float]] = deque()
        self._in_window = 0.0

    def mark(self, t: float, n: float = 1.0) -> None:
        self.total += n
        self._marks.append((t, n))
        self._in_window += n
        self._prune(t)

    def _prune(self, t: float) -> None:
        cutoff = t - self.window
        marks = self._marks
        while marks and marks[0][0] <= cutoff:
            self._in_window -= marks.popleft()[1]

    def rate_at(self, t: float) -> float:
        """Events per second over ``(t - window, t]``."""
        self._prune(t)
        return self._in_window / self.window

    def sample(self, t: float) -> float:
        if self.dead:
            return NAN
        return self.rate_at(t)

    def final(self) -> dict:
        return {"type": "rate", "total": self.total, "window": self.window}


class MetricsRegistry:
    """Owns every instrument of one run (or one stitched multi-pass job).

    Get-or-create accessors are idempotent: the same ``(name, labels)``
    always returns the same instrument, so hot paths can cache the handle
    once and instrumentation points in different modules can share a series.
    """

    def __init__(self) -> None:
        self._instruments: dict[tuple, Instrument] = {}
        #: (class, name, label names, label values) -> instrument
        self._seen: dict[tuple, Instrument] = {}
        #: node_ids declared failed — their gauges sample NaN from then on
        self.dead_nodes: set[str] = set()
        #: the (single) collector scraping this registry, if any
        self.collector = None

    # -- get-or-create accessors -------------------------------------------
    # A hot site asks for the same series with the same labels in the same
    # order every time, so the counter, histogram and rate accessors first
    # try ``_seen``: one flat tuple and one dict lookup, not a sorted
    # canonical key per observation.  Its key is the class, the name, then
    # the label names and values in call order (the count of labels fixes
    # where names end).  Only str-valued labels are memoised: 1, 1.0 and
    # True hash alike but render as different series.
    def _get(self, cls, name: str, labels: dict, **kwargs) -> Instrument:
        key = (name, _label_key(labels))
        inst = self._instruments.get(key)
        if inst is None:
            inst = cls(self, name, labels, **kwargs)
            self._instruments[key] = inst
        elif not isinstance(inst, cls):
            raise TypeError(
                f"metric {inst.key!r} already registered as {inst.kind}, "
                f"not {cls.__name__.lower()}"
            )
        if all(type(v) is str for v in labels.values()):
            self._seen[cls, name, *labels, *labels.values()] = inst
        return inst

    def counter(self, name: str, owner: Optional[str] = None, **labels) -> Counter:
        inst = self._seen.get((Counter, name, *labels, *labels.values()))
        if inst is None:
            inst = self._get(Counter, name, labels, owner=owner)
        return inst

    def gauge(
        self,
        name: str,
        fn: Optional[Callable[[float], float]] = None,
        owner: Optional[str] = None,
        **labels,
    ) -> Gauge:
        g = self._get(Gauge, name, labels, owner=owner, fn=fn)
        if fn is not None:
            # Re-registration may supply (or replace) the callback: a
            # multi-pass job rebuilds its platform per pass, and scrapes must
            # read the *current* pass's device, not a stale closure.
            g.fn = fn
        return g

    def gauge_vector(
        self, name: str, n: int, index_label: str = "instance", **labels
    ) -> GaugeVector:
        return self._get(GaugeVector, name, labels, n=n, index_label=index_label)

    def histogram(self, name: str, owner: Optional[str] = None, **labels) -> Histogram:
        inst = self._seen.get((Histogram, name, *labels, *labels.values()))
        if inst is None:
            inst = self._get(Histogram, name, labels, owner=owner)
        return inst

    def rate(
        self, name: str, window: float = 0.05, owner: Optional[str] = None, **labels
    ) -> Rate:
        inst = self._seen.get((Rate, name, *labels, *labels.values()))
        if inst is None:
            inst = self._get(Rate, name, labels, owner=owner, window=window)
        return inst

    # -- inspection ---------------------------------------------------------
    def instruments(self) -> list[Instrument]:
        """Every instrument, sorted by canonical key (stable export order)."""
        return sorted(self._instruments.values(), key=lambda m: m.key)

    def get(self, name: str, **labels) -> Optional[Instrument]:
        return self._instruments.get((name, _label_key(labels)))

    def __len__(self) -> int:
        return len(self._instruments)

    # -- fault integration ----------------------------------------------------
    def mark_dead(self, node_id: str) -> None:
        """A failure detector declared ``node_id`` dead: gauges owned by it
        sample NaN from now on (absent, not frozen — §repro.faults)."""
        self.dead_nodes.add(node_id)

    def mark_alive(self, node_id: str) -> None:
        """Undo :meth:`mark_dead` for a re-admitted node.

        A partitioned node was never actually dead — once the failure
        detector clears the suspicion (heal-time re-admission,
        docs/PARTITIONS.md) its gauges must resume sampling live values
        instead of staying NaN forever."""
        self.dead_nodes.discard(node_id)

    # -- collector binding ----------------------------------------------------
    def bind_collector(self, sim, interval: Optional[float] = None):
        """Attach (or re-attach) the scrape collector to a simulator.

        Re-binding to a fresh simulator continues the same sample series —
        multi-pass jobs set ``collector.offset`` to stitch pass timelines,
        exactly like ``tracer.offset``.
        """
        from .collector import MetricsCollector

        if self.collector is None:
            self.collector = MetricsCollector(
                self, interval if interval is not None else 0.01
            )
        elif interval is not None:
            self.collector.interval = float(interval)
        self.collector.bind(sim)
        return self.collector

    def __repr__(self) -> str:
        return f"<MetricsRegistry {len(self)} instrument(s)>"
