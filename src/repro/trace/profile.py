"""Per-stage profile report derived from a trace.

Folds a :class:`~repro.trace.tracer.Tracer`'s spans and counters into one row
per track: busy time, span count, records processed, processing rate, and
stall time (makespan minus busy).  This is the textual companion to the
Chrome trace — what a load manager would consume to find the bottleneck
stage (per-stage rate/occupancy, §3.3's load feedback).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..util.canonical import canonical_json
from .tracer import Tracer

__all__ = ["StageProfile", "ProfileReport"]

#: counter name whose last value feeds the profile's records column
RECORDS_COUNTER = "records"


@dataclass
class StageProfile:
    """Aggregates for one track."""

    track: str
    cat: str = ""
    busy: float = 0.0
    n_spans: int = 0
    records: float = 0.0
    #: records per simulated second over the whole run (0 if no records)
    rate: float = 0.0
    #: makespan - busy: time the track was not executing
    stall: float = 0.0

    def as_dict(self) -> dict:
        return {
            "track": self.track,
            "cat": self.cat,
            "busy": self.busy,
            "n_spans": self.n_spans,
            "records": self.records,
            "rate": self.rate,
            "stall": self.stall,
        }


class ProfileReport:
    """All stage rows plus the run makespan."""

    def __init__(self, makespan: float, stages: list[StageProfile]):
        self.makespan = makespan
        self.stages = stages

    @classmethod
    def from_tracer(cls, tracer: Tracer, makespan: float | None = None) -> "ProfileReport":
        t_end = tracer.t_max() if makespan is None else float(makespan)
        rows: dict[str, StageProfile] = {}
        for t0, t1, track, _name, cat in tracer.spans:
            row = rows.get(track)
            if row is None:
                row = rows[track] = StageProfile(track=track, cat=cat)
            row.busy += t1 - t0
            row.n_spans += 1
        # Counters are recorded in time order; the last sample wins.
        for _t, track, name, value in tracer.counters:
            if name != RECORDS_COUNTER:
                continue
            row = rows.get(track)
            if row is None:
                row = rows[track] = StageProfile(track=track, cat="counter")
            row.records = value
        for row in rows.values():
            row.stall = max(0.0, t_end - row.busy)
            if t_end > 0 and row.records:
                row.rate = row.records / t_end
        return cls(t_end, [rows[k] for k in sorted(rows)])

    def row(self, track: str) -> StageProfile:
        for s in self.stages:
            if s.track == track:
                return s
        raise KeyError(f"no profile row for track {track!r}")

    def as_dict(self) -> dict:
        return {
            "makespan": self.makespan,
            "stages": [s.as_dict() for s in self.stages],
        }

    def to_json(self) -> str:
        return canonical_json(self.as_dict())

    def render(self) -> str:
        """Aligned text table (lazy import keeps trace free of bench deps).

        Rows are ordered by busy time descending (ties by track name) so the
        hottest stage — the critical-path suspect — reads first; ``stall%``
        is the fraction of the makespan the track sat idle.
        """
        from ..bench.report import render_table

        rows = [
            (
                s.track,
                s.cat,
                s.busy,
                s.n_spans,
                int(s.records),
                s.rate,
                s.stall,
                f"{(100.0 * s.stall / self.makespan) if self.makespan > 0 else 0.0:.1f}",
            )
            for s in sorted(self.stages, key=lambda s: (-s.busy, s.track))
        ]
        table = render_table(
            ["track", "cat", "busy(s)", "spans", "records", "rec/s", "stall(s)",
             "stall%"],
            rows,
            title=f"profile — makespan {self.makespan:.4f}s",
        )
        return table
