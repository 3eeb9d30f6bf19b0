"""Exporters: canonical JSON and Prometheus text exposition.

JSON is the machine-readable artifact (consumed by ``python -m repro
metrics`` and the bench regression gate) and is **canonical**: keys sorted,
compact separators, NaN sanitised to ``null`` — so a same-seed run produces
a byte-identical file, which the determinism tests pin.

The Prometheus text format is for eyeballs and for feeding scraped samples
into standard tooling; it follows the exposition format (``# TYPE`` lines,
``_total`` counters, histogram ``_bucket``/``_sum``/``_count`` with
cumulative ``le`` upper bounds).
"""

from __future__ import annotations

import math
from typing import Optional

from ..util.canonical import canonical_json

__all__ = ["SCHEMA_VERSION", "metrics_dict", "metrics_json", "prometheus_text"]

#: bumped on any breaking change to the export layout
SCHEMA_VERSION = 1


def _san(v):
    """NaN/Inf → None so the JSON is strict and canonical."""
    if isinstance(v, float) and not math.isfinite(v):
        return None
    return v


def _san_deep(obj):
    if isinstance(obj, dict):
        return {k: _san_deep(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_san_deep(v) for v in obj]
    return _san(obj)


def metrics_dict(registry, collector=None) -> dict:
    """Full structured snapshot of a registry (+ optional sample series)."""
    final = {}
    histograms = {}
    for inst in registry.instruments():
        snap = inst.final()
        if inst.kind == "histogram":
            histograms[inst.key] = snap
        else:
            final[inst.key] = snap
    out = {
        "schema_version": SCHEMA_VERSION,
        "final": final,
        "histograms": histograms,
        "dead_nodes": sorted(registry.dead_nodes),
    }
    if collector is not None:
        out["scrape_interval"] = collector.interval
        out["series"] = {
            key: [[t, _san(v)] for t, v in pts]
            for key, pts in sorted(collector.series.items())
        }
    return _san_deep(out)


def metrics_json(registry, collector=None) -> str:
    """Canonical (byte-stable) JSON export."""
    return canonical_json(metrics_dict(registry, collector))


def _prom_name(inst) -> tuple[str, str]:
    """(metric name, label block) in exposition syntax."""
    labels = ",".join(
        f'{k}="{v}"' for k, v in sorted(inst.labels.items())
    )
    return inst.name, (f"{{{labels}}}" if labels else "")


def _fmt(v: float) -> str:
    if isinstance(v, float) and math.isnan(v):
        return "NaN"
    return repr(float(v))


def prometheus_text(registry, t: Optional[float] = None) -> str:
    """Render current instrument state in Prometheus text format.

    ``t`` is the virtual time at which callback gauges are evaluated;
    defaults to 0.0 (fine after a run, when trackers clamp to run end).
    """
    if t is None:
        t = 0.0
    lines: list[str] = []
    typed: set[str] = set()

    def type_line(name: str, kind: str) -> None:
        if name not in typed:
            typed.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for inst in registry.instruments():
        name, lbl = _prom_name(inst)
        if inst.kind == "counter":
            type_line(name, "counter")
            lines.append(f"{name}{lbl} {_fmt(inst.value)}")
        elif inst.kind == "gauge":
            type_line(name, "gauge")
            lines.append(f"{name}{lbl} {_fmt(inst.sample(t))}")
        elif inst.kind == "rate":
            type_line(name, "gauge")
            lines.append(f"{name}{lbl} {_fmt(inst.sample(t))}")
        elif inst.kind == "gauge_vector":
            type_line(name, "gauge")
            base = dict(inst.labels)
            for i in range(inst.n):
                el = ",".join(
                    f'{k}="{v}"'
                    for k, v in sorted({**base, inst.index_label: str(i)}.items())
                )
                lines.append(f"{name}{{{el}}} {_fmt(inst.sample_element(i, t))}")
        elif inst.kind == "histogram":
            type_line(name, "histogram")
            pre = lbl[:-1] + "," if lbl else "{"
            cum = inst.underflow
            if cum:
                lines.append(f'{name}_bucket{pre}le="0.0"}} {cum}')
            for i in sorted(inst.buckets):
                cum += inst.buckets[i]
                ub = inst.bucket_bounds(i)[1]
                lines.append(f'{name}_bucket{pre}le="{ub!r}"}} {cum}')
            lines.append(f'{name}_bucket{pre}le="+Inf"}} {inst.count}')
            lines.append(f"{name}_sum{lbl} {_fmt(inst.sum)}")
            lines.append(f"{name}_count{lbl} {inst.count}")
            # Tail latency is the SLO signal (ROADMAP item 2 asks for p999
            # explicitly); exported as a companion gauge since the native
            # histogram type carries buckets, not quantiles.
            type_line(f"{name}_p999", "gauge")
            lines.append(f"{name}_p999{lbl} {_fmt(inst.quantile(0.999))}")
    return "\n".join(lines) + "\n"
