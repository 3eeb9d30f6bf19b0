"""`repro critpath`: causal critical-path profile of a traced run.

Two modes share the report shape:

* **sort mode** — run a traced two-pass DSM-Sort on a Figure-9-style cell,
  assemble the :class:`~repro.obs.graph.CausalGraph`, extract the critical
  path, and fold the makespan into blame buckets.  Optionally replay a
  what-if scenario ("disks 2× faster") through the graph and — with
  ``validate=True`` — check the prediction against an actual re-run on
  scaled :class:`~repro.emulator.params.SystemParams`.

* **serve mode** — run one multi-tenant scheduler cell with the tracer and
  the :class:`~repro.obs.slo.SLOMonitor` attached; the graph covers the
  scheduler's queued / run / preemption segments, and the report carries
  the burn-rate alerts next to the ServeReport's SLO outcomes.

All outputs are deterministic: the blame JSON and the folded-stack
flamegraph file are byte-identical across runs of the same (n, seed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..bench.report import canonical_json, render_table, write_canonical_json
from .graph import BLAME_BUCKETS, CAT_BUCKET, EDGE_BUCKET, CausalGraph
from .slo import SLOMonitor

__all__ = [
    "CritPathReport",
    "critpath_params",
    "folded_stacks",
    "render_timeline",
    "run_critpath",
    "run_critpath_serve",
]

#: schema tag for the blame JSON artifact (bump on breaking change)
SCHEMA_VERSION = 1


def critpath_params(n_asus: int = 4, n_hosts: int = 2):
    """The Figure-9 cost family on a small cell (disk-bound at modest n)."""
    from ..bench.fig9 import fig9_params

    return fig9_params(n_asus, c=8.0, n_hosts=n_hosts)


@dataclass
class CritPathReport:
    """Deterministic critical-path profile of one traced run."""

    mode: str
    makespan: float
    n_nodes: int
    n_edges: int
    path_len: int
    #: blame bucket -> virtual seconds on the critical path (sums to the
    #: path's end instant)
    blame: dict = field(default_factory=dict)
    #: bucket -> total busy seconds over *all* activities (context for
    #: buckets the path never crosses, e.g. breaker backoff)
    totals: dict = field(default_factory=dict)
    #: track -> seconds of critical-path residence (top contributors)
    path_by_track: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)
    what_if: Optional[dict] = None
    slo: Optional[dict] = None

    def as_dict(self) -> dict:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "mode": self.mode,
            "makespan": self.makespan,
            "n_nodes": self.n_nodes,
            "n_edges": self.n_edges,
            "path_len": self.path_len,
            "blame": {b: self.blame.get(b, 0.0) for b in BLAME_BUCKETS},
            "totals": {b: self.totals.get(b, 0.0) for b in BLAME_BUCKETS},
            "path_by_track": dict(sorted(self.path_by_track.items())),
            "meta": self.meta,
        }
        if self.what_if is not None:
            doc["what_if"] = self.what_if
        if self.slo is not None:
            doc["slo"] = self.slo
        return doc

    def to_json(self) -> str:
        return canonical_json(self.as_dict())

    def write(self, path: str) -> None:
        write_canonical_json(path, self.as_dict())

    def render(self) -> str:
        total = sum(self.blame.values()) or 1.0
        rows = [
            [b, f"{self.blame.get(b, 0.0):.6f}",
             f"{100.0 * self.blame.get(b, 0.0) / total:.1f}",
             f"{self.totals.get(b, 0.0):.6f}"]
            for b in BLAME_BUCKETS
            if self.blame.get(b, 0.0) > 0.0 or self.totals.get(b, 0.0) > 0.0
        ]
        out = render_table(
            ["bucket", "on path (s)", "path %", "total busy (s)"],
            rows,
            title=(
                f"critical path blame — makespan {self.makespan:.6f}s, "
                f"{self.path_len} of {self.n_nodes} activities on path"
            ),
        )
        if self.what_if is not None:
            w = self.what_if
            line = (
                f"\nwhat-if {w['scenario']}: predicted makespan "
                f"{w['predicted_makespan']:.6f}s "
                f"({w['predicted_delta_pct']:+.1f}%)"
            )
            if w.get("measured_makespan") is not None:
                line += (
                    f"; measured {w['measured_makespan']:.6f}s "
                    f"({w['measured_delta_pct']:+.1f}%), "
                    f"prediction error {w['error_pct']:.1f}%"
                )
            out += line + "\n"
        if self.slo is not None:
            out += (
                f"\nSLO burn-rate alerts: {len(self.slo['alerts'])} "
                f"(first: {self.slo['alerts'][0] if self.slo['alerts'] else '—'})\n"
            )
        return out


# -- folded stacks -------------------------------------------------------------
def folded_stacks(graph: CausalGraph) -> str:
    """Critical path as folded stacks (``flamegraph.pl`` input format).

    One line per ``bucket;frame;frame`` stack with the sample weight in
    integer microseconds; gaps between path nodes become ``(gap)`` frames
    under the gap's blame bucket.  Lines are sorted — byte-deterministic.
    """
    agg: dict[str, float] = {}
    prev_end = 0.0
    for node, in_cat in graph._chain():
        gap = node.t0 - prev_end
        if gap > 0.0:
            bucket = EDGE_BUCKET.get(in_cat or "lane", "queue-wait")
            key = f"{bucket};(gap);{in_cat or 'start'}"
            agg[key] = agg.get(key, 0.0) + gap
            prev_end = node.t0
        contrib = node.t1 - max(node.t0, prev_end)
        if contrib > 0.0:
            bucket = CAT_BUCKET.get(node.cat, "other")
            key = f"{bucket};{node.track};{node.name}"
            agg[key] = agg.get(key, 0.0) + contrib
        prev_end = max(prev_end, node.t1)
    lines = [f"{k} {int(round(v * 1e6))}" for k, v in sorted(agg.items())]
    return "\n".join(lines) + ("\n" if lines else "")


# -- text timeline -------------------------------------------------------------
def render_timeline(graph: CausalGraph, width: int = 72, max_rows: int = 32) -> str:
    """ASCII timeline of the tracks the critical path visits.

    ``#`` marks critical-path residence, ``-`` other activity on the same
    track.  Tracks appear in order of first path visit; rows beyond
    ``max_rows`` are elided with a note.
    """
    path = graph.critical_path()
    makespan = graph.makespan
    if not path or makespan <= 0.0:
        return "(empty trace)\n"
    order: list[str] = []
    on_path: dict[str, list] = {}
    for n in path:
        if n.track not in on_path:
            on_path[n.track] = []
            order.append(n.track)
        on_path[n.track].append(n)
    by_track: dict[str, list] = {}
    for n in graph.nodes:
        if n.track in on_path and not n.virtual:
            by_track.setdefault(n.track, []).append(n)

    def cols(t0: float, t1: float) -> range:
        a = int(t0 / makespan * (width - 1))
        b = int(t1 / makespan * (width - 1))
        return range(max(0, a), min(width - 1, b) + 1)

    label_w = max(len(t) for t in order[:max_rows])
    lines = [
        f"{'':<{label_w}}  t=0 {'·' * (width - 12)} t={makespan:.4f}s"
    ]
    for track in order[:max_rows]:
        row = [" "] * width
        for n in by_track.get(track, ()):
            for c in cols(n.t0, n.t1):
                row[c] = "-"
        for n in on_path[track]:
            for c in cols(n.t0, n.t1):
                row[c] = "#"
        lines.append(f"{track:<{label_w}}  {''.join(row)}")
    if len(order) > max_rows:
        lines.append(f"... {len(order) - max_rows} more tracks elided")
    return "\n".join(lines) + "\n"


# -- drivers -------------------------------------------------------------------
def _blame_by_track(graph: CausalGraph) -> dict[str, float]:
    out: dict[str, float] = {}
    prev_end = 0.0
    for node, _cat in graph._chain():
        contrib = node.t1 - max(node.t0, prev_end)
        if contrib > 0.0:
            out[node.track] = out.get(node.track, 0.0) + contrib
        prev_end = max(prev_end, node.t0, node.t1)
    return out


def run_critpath(
    n_records: int = 1 << 12,
    *,
    n_asus: int = 4,
    n_hosts: int = 2,
    alpha: int = 8,
    seed: int = 3,
    what_if: Optional[dict] = None,
    validate: bool = False,
) -> tuple[CritPathReport, CausalGraph]:
    """Trace a two-pass DSM-Sort and profile its critical path.

    ``what_if`` maps blame buckets to speedup factors (``{"disk": 2.0}``).
    ``validate`` additionally re-runs the sort with the scenario's disk/cpu
    factors applied to the real :class:`SystemParams` and reports the
    prediction error.  Validation supports the ``disk`` and ``cpu`` buckets
    (the two with a direct parameter knob).
    """
    from ..core.config import ConfigSolver
    from ..dsmsort import DsmSortJob
    from ..trace import Tracer

    params = critpath_params(n_asus=n_asus, n_hosts=n_hosts)
    config = ConfigSolver(params).config_for_alpha(n_records, alpha)
    tracer = Tracer()
    job = DsmSortJob(params, config, policy="sr", seed=seed, tracer=tracer)
    r1 = job.run_pass1()
    r2 = job.run_pass2()
    job.verify()
    makespan = r1.makespan + r2.makespan

    graph = CausalGraph.from_tracer(tracer)
    report = CritPathReport(
        mode="sort",
        makespan=makespan,
        n_nodes=len(graph.nodes),
        n_edges=graph.n_edges(),
        path_len=len(graph.critical_path()),
        blame=graph.blame(),
        totals=graph.totals(),
        path_by_track=_blame_by_track(graph),
        meta={
            "n_records": n_records, "n_asus": n_asus, "n_hosts": n_hosts,
            "alpha": alpha, "seed": seed,
            "pass1_makespan": r1.makespan, "pass2_makespan": r2.makespan,
        },
    )

    if what_if:
        predicted = graph.what_if(what_if)
        entry = {
            "scenario": {k: what_if[k] for k in sorted(what_if)},
            "predicted_makespan": predicted,
            "predicted_delta_pct": 100.0 * (predicted - makespan) / makespan,
        }
        if validate:
            unsupported = sorted(set(what_if) - {"disk", "cpu"})
            if unsupported:
                raise ValueError(
                    f"validation knows only disk/cpu scaling, got {unsupported}"
                )
            changes = {}
            if "disk" in what_if:
                changes["disk_rate"] = params.disk_rate * what_if["disk"]
            if "cpu" in what_if:
                # Faster CPUs everywhere: scale the base clock.
                changes["host_clock_hz"] = params.host_clock_hz * what_if["cpu"]
            scaled = params.with_(**changes)
            job2 = DsmSortJob(
                scaled, ConfigSolver(scaled).config_for_alpha(n_records, alpha),
                policy="sr", seed=seed,
            )
            m1 = job2.run_pass1().makespan
            m2 = job2.run_pass2().makespan
            measured = m1 + m2
            entry["measured_makespan"] = measured
            entry["measured_delta_pct"] = 100.0 * (measured - makespan) / makespan
            entry["error_pct"] = (
                100.0 * abs(predicted - measured) / measured if measured else 0.0
            )
        report.what_if = entry
    return report, graph


def run_critpath_serve(
    *,
    n_jobs: int = 40,
    seed: int = 0,
    policy: str = "fair",
    load_factor: float = 3.0,
    rules=None,
) -> tuple[CritPathReport, CausalGraph, object]:
    """One multi-tenant scheduler cell with critical-path + SLO monitoring.

    Restricted to a single (policy, load) cell so scheduler tracks —
    ``sched:<tenant>:<job_id>`` — are unambiguous in the shared tracer.
    Returns (report, graph, serve_report).
    """
    from ..sched import run_serve
    from ..trace import Tracer

    tracer = Tracer()
    monitor = SLOMonitor(rules)
    serve_report = run_serve(
        policies=(policy,), load_factors=(load_factor,),
        n_jobs=n_jobs, seed=seed,
        tracer=tracer, slo_monitor=monitor,
    )
    graph = CausalGraph.from_tracer(tracer)
    report = CritPathReport(
        mode="serve",
        makespan=graph.makespan,
        n_nodes=len(graph.nodes),
        n_edges=graph.n_edges(),
        path_len=len(graph.critical_path()),
        blame=graph.blame(),
        totals=graph.totals(),
        path_by_track=_blame_by_track(graph),
        meta={
            "n_jobs": n_jobs, "seed": seed,
            "policy": policy, "load_factor": load_factor,
        },
        slo=monitor.as_dict(),
    )
    return report, graph, serve_report
