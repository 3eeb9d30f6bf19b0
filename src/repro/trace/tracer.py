"""The :class:`Tracer`: simulated-time spans, instants, and counters.

The paper's emulator "is instrumented to report application progress, overall
runtime, and resource utilization for each host and ASU" (§5).  The tracer is
the machine-readable form of that instrumentation: every device busy segment,
functor execution, disk transfer, link transmission, routing decision, and
fault event can be recorded against the *virtual* clock and exported as a
Chrome trace-event file (:mod:`repro.trace.chrome`) or folded into a
per-stage profile (:mod:`repro.trace.profile`).

Design rules:

* **Zero overhead when disabled.**  Instrumented code guards every hook with
  a single ``sim.tracer is None`` check; no tracer ⇒ no allocation, no call,
  and — crucially — no perturbation of simulated time.  The tracer itself
  never interacts with the event queue: recording is a pure observation.
* **Deterministic.**  All recorded values derive from the simulated clock and
  the (seeded) workload, so two runs with the same seed produce bit-identical
  traces.  No wall-clock time, ids, or hashes enter the record.
* **Flat storage.**  Each kind's rows are laid end to end in one flat list
  of floats and strs, recorded with a single ``extend``; neither type is
  tracked by the cycle collector, so recording never adds an object it must
  scan, and a long trace cannot trigger collections.  ``spans``,
  ``instants``, ``counters`` and ``flows`` read as lists of tuples, built on
  read and extended only by what was recorded since; export formats are
  derived from them on demand.

Tracks are free-form strings naming the entity an event belongs to
(``"asu0.cpu"``, ``"host1.sort"``, ``"link:host0->asu3"``); categories group
events of one kind (``"cpu"``, ``"disk"``, ``"link"``, ``"fault"``).

Causal structure (repro.obs) is layered on top of the flat storage without
changing it: a span may optionally carry a **span id** and a **parent id**
(kept in a sparse side table so the 5-tuple shape — and the byte-identity of
traces that never use ids — is preserved), and cross-track **flow edges**
link a departure instant on one track to an arrival instant on another
(message dispatch → delivery, mailbox residence → consumption, pass 1 →
pass 2).  Flows export as Chrome ``s``/``f`` events and feed the
:class:`~repro.obs.graph.CausalGraph` program-activity graph.
"""

from __future__ import annotations

__all__ = ["Tracer"]


class _FlatRows(list):
    """Fixed-width rows stored back to back: row ``i`` is
    ``self[i * width:(i + 1) * width]``.  :meth:`rows` is the tuple view,
    cached and extended only by the rows recorded since the last read."""

    __slots__ = ("width", "_view")

    def __init__(self, width: int) -> None:
        super().__init__()
        self.width = width
        self._view: list[tuple] = []

    def n_rows(self) -> int:
        return len(self) // self.width

    def rows(self) -> list[tuple]:
        view, width = self._view, self.width
        done = len(view) * width
        if done != len(self):
            view.extend(zip(*[iter(self[done:])] * width))
        return view

    def clear(self) -> None:
        super().clear()
        self._view.clear()


class Tracer:
    """Collects simulated-time trace events.  Attach via ``sim.tracer``."""

    __slots__ = ("_spans", "_instants", "_counters", "_flows", "span_meta",
                 "offset", "_cum")

    def __init__(self) -> None:
        #: (t0, t1, track, name, cat) — completed busy/work segments
        self._spans = _FlatRows(5)
        #: (t, track, name, cat) — point events (faults, detections, ...)
        self._instants = _FlatRows(4)
        #: (t, track, name, value) — sampled counter values
        self._counters = _FlatRows(4)
        #: (t0, src_track, t1, dst_track, name, cat) — causal edges: something
        #: that left ``src_track`` at ``t0`` arrived on ``dst_track`` at ``t1``
        self._flows = _FlatRows(6)
        #: sparse side table: span index -> (sid, parent) for spans recorded
        #: with explicit ids; spans without ids never allocate an entry
        self.span_meta: dict[int, tuple[str, str | None]] = {}
        #: added to every recorded time — lets multi-phase jobs (pass 1 then
        #: pass 2, each on a fresh platform whose clock restarts at 0) share
        #: one contiguous timeline
        self.offset: float = 0.0
        self._cum: dict[tuple[str, str], float] = {}

    # -- the recorded rows, as tuples ------------------------------------------
    # Each property returns the cached view itself, not a copy: a caller must
    # not mutate it (append, sort, clear, assign), or every later read is
    # misaligned against the flat rows.  ``tests/test_code_rules.py`` keeps
    # mutating calls on these names inside this module.
    @property
    def spans(self) -> list[tuple[float, float, str, str, str]]:
        """``(t0, t1, track, name, cat)`` per span; do not mutate."""
        return self._spans.rows()

    @property
    def instants(self) -> list[tuple[float, str, str, str]]:
        """``(t, track, name, cat)`` per instant; do not mutate."""
        return self._instants.rows()

    @property
    def counters(self) -> list[tuple[float, str, str, float]]:
        """``(t, track, name, value)`` per sample; do not mutate."""
        return self._counters.rows()

    @property
    def flows(self) -> list[tuple[float, str, float, str, str, str]]:
        """``(t0, src_track, t1, dst_track, name, cat)`` per edge; do not
        mutate."""
        return self._flows.rows()

    # -- recording ---------------------------------------------------------
    def span(
        self,
        t0: float,
        t1: float,
        track: str,
        name: str,
        cat: str = "span",
        sid: str | None = None,
        parent: str | None = None,
    ) -> None:
        """Record a completed segment [t0, t1) on ``track``.

        ``sid`` gives the span an explicit id and ``parent`` links it to
        another span's id — both optional and stored out-of-band, so spans
        without ids keep the flat 5-tuple layout.
        """
        off = self.offset
        rows = self._spans
        rows.extend((t0 + off, t1 + off, track, name, cat))
        if sid is not None:
            self.span_meta[rows.n_rows() - 1] = (sid, parent)

    def flow(
        self,
        t0: float,
        src_track: str,
        t1: float,
        dst_track: str,
        name: str,
        cat: str = "flow",
    ) -> None:
        """Record a causal edge: left ``src_track`` at ``t0``, arrived on
        ``dst_track`` at ``t1``.  Both instants get the phase offset, so
        flow edges stitch across multi-pass timelines exactly like spans."""
        off = self.offset
        self._flows.extend((t0 + off, src_track, t1 + off, dst_track, name, cat))

    def instant(self, t: float, track: str, name: str, cat: str = "instant") -> None:
        """Record a point event at ``t`` on ``track``."""
        self._instants.extend((t + self.offset, track, name, cat))

    def counter(self, t: float, track: str, name: str, value: float) -> None:
        """Record an absolute counter sample."""
        self._counters.extend((t + self.offset, track, name, float(value)))

    def count(self, t: float, track: str, name: str, delta: float) -> float:
        """Accumulate ``delta`` into a tracer-owned running counter and
        record the new cumulative value; returns it."""
        key = (track, name)
        total = self._cum.get(key, 0.0) + delta
        self._cum[key] = total
        self._counters.extend((t + self.offset, track, name, float(total)))
        return total

    # -- inspection ----------------------------------------------------------
    def tracks(self) -> list[str]:
        """Sorted names of every track with at least one event."""
        seen = {s[2] for s in self.spans}
        seen.update(i[1] for i in self.instants)
        seen.update(c[1] for c in self.counters)
        for f in self.flows:
            seen.add(f[1])
            seen.add(f[3])
        return sorted(seen)

    def t_max(self) -> float:
        """Latest instant touched by any recorded event (0.0 if empty)."""
        t = 0.0
        if self._spans:
            t = max(t, max(s[1] for s in self.spans))
        if self._instants:
            t = max(t, max(i[0] for i in self.instants))
        if self._counters:
            t = max(t, max(c[0] for c in self.counters))
        if self._flows:
            t = max(t, max(f[2] for f in self.flows))
        return t

    def n_events(self) -> int:
        return (self._spans.n_rows() + self._instants.n_rows()
                + self._counters.n_rows() + self._flows.n_rows())

    def clear(self) -> None:
        self._spans.clear()
        self._instants.clear()
        self._counters.clear()
        self._flows.clear()
        self.span_meta.clear()
        self._cum.clear()
        self.offset = 0.0

    def __repr__(self) -> str:
        return (
            f"<Tracer {self._spans.n_rows()} span(s), "
            f"{self._counters.n_rows()} counter sample(s), "
            f"{self._instants.n_rows()} instant(s), "
            f"{self._flows.n_rows()} flow(s)>"
        )
