"""Chrome trace-event export (Perfetto / chrome://tracing loadable).

Produces the JSON object format documented in the Trace Event Format spec:
``{"traceEvents": [...], "displayTimeUnit": "ms"}``.  Each simulated second
maps to one second of trace time (timestamps are in microseconds).

The export is **byte-deterministic**: given the same tracer contents it
always produces the same string.  Track-to-tid assignment is by sorted track
name, dictionary keys are sorted, and floats round-trip through ``repr`` — no
wall-clock values, ids, or hashes are emitted.
"""

from __future__ import annotations

from typing import Any

from ..util.canonical import canonical_json
from .tracer import Tracer

__all__ = ["to_chrome", "chrome_dumps", "write_chrome_trace"]

#: single emulated "process" all tracks live under
_PID = 1


def _us(t: float) -> float:
    """Simulated seconds -> trace microseconds (µs), rounded to 1 ns."""
    return round(t * 1e6, 3)


def to_chrome(tracer: Tracer) -> dict[str, Any]:
    """The trace as a Chrome trace-event JSON object (python dict)."""
    tracks = tracer.tracks()
    tids = {track: i + 1 for i, track in enumerate(tracks)}
    events: list[dict[str, Any]] = []
    for track in tracks:
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": _PID,
                "tid": tids[track],
                "args": {"name": track},
            }
        )
    span_meta = tracer.span_meta
    for i, (t0, t1, track, name, cat) in enumerate(tracer.spans):
        ev: dict[str, Any] = {
            "ph": "X",
            "name": name,
            "cat": cat,
            "ts": _us(t0),
            "dur": _us(t1 - t0),
            "pid": _PID,
            "tid": tids[track],
        }
        meta = span_meta.get(i)
        if meta is not None:
            sid, parent = meta
            args: dict[str, Any] = {"sid": sid}
            if parent is not None:
                args["parent"] = parent
            ev["args"] = args
        events.append(ev)
    for t, track, name, cat in tracer.instants:
        events.append(
            {
                "ph": "i",
                "name": name,
                "cat": cat,
                "ts": _us(t),
                "s": "t",
                "pid": _PID,
                "tid": tids[track],
            }
        )
    for t, track, name, value in tracer.counters:
        events.append(
            {
                "ph": "C",
                "name": f"{track}.{name}",
                "ts": _us(t),
                "pid": _PID,
                "tid": tids[track],
                "args": {name: value},
            }
        )
    # Flow edges: one s/f pair per recorded flow.  Ids are assigned by
    # enumeration order (recording order is deterministic), never hashed,
    # so the export stays byte-stable.
    for i, (t0, src_track, t1, dst_track, name, cat) in enumerate(tracer.flows):
        events.append(
            {
                "ph": "s",
                "id": i + 1,
                "name": name,
                "cat": cat,
                "ts": _us(t0),
                "pid": _PID,
                "tid": tids[src_track],
            }
        )
        events.append(
            {
                "ph": "f",
                "bp": "e",
                "id": i + 1,
                "name": name,
                "cat": cat,
                "ts": _us(t1),
                "pid": _PID,
                "tid": tids[dst_track],
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def chrome_dumps(tracer: Tracer) -> str:
    """Serialise to a canonical JSON string (stable across runs)."""
    return canonical_json(to_chrome(tracer))


def write_chrome_trace(tracer: Tracer, path: str) -> str:
    """Write the trace JSON to ``path``; returns the path."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(chrome_dumps(tracer))
        fh.write("\n")
    return path
