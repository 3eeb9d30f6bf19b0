"""Plain-text report rendering for the bench harness.

The paper's figures are line charts; we emit the underlying series as aligned
tables (one row per x value, one column per series) plus simple ASCII sparkline
plots, so `pytest benchmarks/ --benchmark-only` output can be compared to the
paper's figures directly.
"""

from __future__ import annotations

import os
from typing import Mapping, Optional, Sequence

from ..util.canonical import canonical_json

#: version of the BENCH_*.json payload layout; bumped on breaking changes and
#: validated by :mod:`repro.bench.regress` before any value comparison.
SCHEMA_VERSION = 1

__all__ = [
    "SCHEMA_VERSION",
    "canonical_json",
    "write_canonical_json",
    "render_table",
    "render_series_table",
    "ascii_plot",
    "write_bench_json",
]


def write_canonical_json(path: str, obj) -> None:
    """Write ``obj`` to ``path`` as one :func:`canonical_json` line."""
    with open(path, "w") as fh:
        fh.write(canonical_json(obj) + "\n")


def write_bench_json(name: str, payload: Mapping, out_dir: Optional[str] = None) -> Optional[str]:
    """Write a benchmark payload as ``BENCH_<name>.json`` for CI artifacts.

    Disabled unless ``out_dir`` is given or ``REPRO_BENCH_JSON`` names a
    directory, so ordinary test runs write nothing.  The payload is emitted in
    canonical form (sorted keys, fixed separators): a deterministic benchmark
    produces a byte-identical file.  A ``schema_version`` field is stamped in
    unless the payload already carries one.  Returns the path written, or
    ``None``.
    """
    out_dir = out_dir if out_dir is not None else os.environ.get("REPRO_BENCH_JSON")
    if not out_dir:
        return None
    payload = dict(payload)
    payload.setdefault("schema_version", SCHEMA_VERSION)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"BENCH_{name}.json")
    write_canonical_json(path, payload)
    return path


def render_table(headers: Sequence[str], rows: Sequence[Sequence], title: str = "") -> str:
    """Fixed-width table with right-aligned numeric cells."""
    def fmt(v) -> str:
        if isinstance(v, float):
            return f"{v:.3f}"
        return str(v)

    cells = [[fmt(v) for v in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for r in cells:
        lines.append("  ".join(c.rjust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)


def render_series_table(
    x_label: str,
    xs: Sequence,
    series: Mapping[str, Sequence[float]],
    title: str = "",
) -> str:
    """Table with x in the first column and one column per named series."""
    headers = [x_label, *series.keys()]
    rows = []
    for i, x in enumerate(xs):
        rows.append([x, *(vals[i] for vals in series.values())])
    return render_table(headers, rows, title=title)


def ascii_plot(
    xs: Sequence[float],
    series: Mapping[str, Sequence[float]],
    width: int = 60,
    height: int = 16,
    title: str = "",
) -> str:
    """Crude multi-series scatter plot for terminals."""
    marks = "ox+*#@%&"
    all_vals = [v for vals in series.values() for v in vals]
    if not all_vals or not xs:
        return f"{title} (no data)"
    ymin, ymax = min(all_vals + [0.0]), max(all_vals)
    if ymax == ymin:
        ymax = ymin + 1.0
    xmin, xmax = min(xs), max(xs)
    if xmax == xmin:
        xmax = xmin + 1.0
    grid = [[" "] * width for _ in range(height)]
    for si, (name, vals) in enumerate(series.items()):
        m = marks[si % len(marks)]
        for x, v in zip(xs, vals):
            col = int((x - xmin) / (xmax - xmin) * (width - 1))
            row = int((v - ymin) / (ymax - ymin) * (height - 1))
            grid[height - 1 - row][col] = m
    lines = []
    if title:
        lines.append(title)
    lines.append(f"{ymax:8.2f} +" + "-" * width)
    for row in grid:
        lines.append(" " * 9 + "|" + "".join(row))
    lines.append(f"{ymin:8.2f} +" + "-" * width)
    lines.append(" " * 10 + f"{xmin:<10.4g}{' ' * max(0, width - 20)}{xmax:>10.4g}")
    legend = "   ".join(
        f"{marks[i % len(marks)]}={name}" for i, name in enumerate(series)
    )
    lines.append(" " * 10 + legend)
    return "\n".join(lines)
