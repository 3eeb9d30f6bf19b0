"""ServeReport: deterministic multi-tenant serving metrics.

One report covers a sweep of (queue policy × offered-load level) cells over
the same arrival process.  Each cell summarises what the platform's tenants
experienced: completions, goodput, waits, SLO attainment, queue-depth
percentiles, and the **Jain fairness index** over share-normalised goodput.

Jain's index (Jain/Chiu/Hawe 1984) over allocations ``x_i``::

    J = (Σ x_i)² / (n · Σ x_i²)

is 1.0 when all tenants get goodput proportional to their shares and tends
to ``1/n`` when one tenant monopolises the platform.  Goodput is counted in
the **observation window** — submissions completed before the arrival
process ends — because that is where the policies differ at saturation:
FIFO serves the flooding tenant's backlog in arrival order, fair share
completes work in share proportion.

Everything derives from the virtual clock and the seeded workload, so
:meth:`ServeReport.to_json` is byte-identical across same-seed runs
(canonical key order and separators, no wall-clock anywhere).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..bench.report import SCHEMA_VERSION, canonical_json, render_table, write_canonical_json
from .job import Job, JobState, Tenant

__all__ = ["ServeReport", "jain_index", "summarize_outcome"]


def jain_index(values: Sequence[float]) -> float:
    """Jain fairness index of an allocation vector (1.0 if empty/all-zero)."""
    xs = [float(v) for v in values]
    if not xs:
        return 1.0
    total = sum(xs)
    sq = sum(x * x for x in xs)
    if sq == 0.0:
        return 1.0  # uniformly nothing is still uniform
    return (total * total) / (len(xs) * sq)


def _pct(values: Sequence[float], q: float) -> float:
    if not len(values):
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q, method="nearest"))


def summarize_outcome(outcome, tenants: dict[str, Tenant], rate: float) -> dict:
    """One report cell from one :class:`~repro.sched.scheduler.SchedOutcome`."""
    jobs: list[Job] = outcome.jobs
    t_obs = outcome.t_last_arrival
    per_tenant = {}
    norm_goodput = []
    for name in sorted(tenants):
        share = tenants[name].share
        mine = [j for j in jobs if j.tenant == name]
        done = [j for j in mine if j.state == JobState.DONE]
        in_window = [j for j in done if j.finish_t is not None and j.finish_t <= t_obs]
        goodput = sum(j.spec.cost_units for j in in_window)
        waits = [j.wait for j in done if j.wait is not None]
        per_tenant[name] = {
            "submitted": len(mine),
            "rejected": sum(1 for j in mine if j.state == JobState.REJECTED),
            "completed": len(done),
            "completed_in_window": len(in_window),
            "goodput_units": goodput,
            "share": share,
            "wait_p50": _pct(waits, 50),
            "wait_p90": _pct(waits, 90),
        }
        norm_goodput.append(goodput / share)
    slo_jobs = [j for j in jobs if j.spec.deadline is not None
                and j.state != JobState.REJECTED]
    slo_met = sum(1 for j in slo_jobs if j.slo_met)
    depths = [d for _t, d in outcome.depth_samples]
    return {
        "policy": outcome.policy,
        "rate": rate,
        "n_jobs": len(jobs),
        "n_admitted": sum(1 for j in jobs if j.state != JobState.REJECTED),
        "n_rejected": outcome.n_rejected,
        "n_completed": sum(1 for j in jobs if j.state == JobState.DONE),
        "n_failed": outcome.n_failed,
        "n_preempted": outcome.n_preempted,
        "n_restarted": outcome.n_restarted,
        "makespan": outcome.makespan,
        "t_last_arrival": t_obs,
        "jain_fairness": jain_index(norm_goodput),
        "slo_attainment": (slo_met / len(slo_jobs)) if slo_jobs else None,
        "queue_depth_p50": _pct(depths, 50),
        "queue_depth_p90": _pct(depths, 90),
        "queue_depth_p99": _pct(depths, 99),
        "queue_depth_max": float(max(depths)) if depths else 0.0,
        "n_emulations": outcome.n_emulations,
        "per_tenant": per_tenant,
    }


@dataclass
class ServeReport:
    """Outcome of one `repro serve` sweep (JSON-stable, wall-clock free)."""

    #: full ``SystemParams.as_dict()`` of the shared fleet — baselines are
    #: self-describing, like every other BENCH payload
    params: dict
    tenants: dict
    mix: list
    n_jobs: int
    seed: int
    cells: list = field(default_factory=list)
    schema_version: int = SCHEMA_VERSION

    def as_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "params": self.params,
            "tenants": self.tenants,
            "mix": self.mix,
            "n_jobs": self.n_jobs,
            "seed": self.seed,
            "cells": self.cells,
        }

    def to_json(self) -> str:
        """Canonical JSON: two identical sweeps are byte-identical."""
        return canonical_json(self.as_dict())

    def write(self, path: str) -> None:
        write_canonical_json(path, self.as_dict())

    def cell(self, policy: str, rate: float) -> dict:
        for c in self.cells:
            if c["policy"] == policy and c["rate"] == rate:
                return c
        raise KeyError(f"no cell for policy={policy!r} rate={rate}")

    def render(self) -> str:
        rows = []
        for c in self.cells:
            slo = "-" if c["slo_attainment"] is None else f"{c['slo_attainment']:.2f}"
            rows.append([
                c["policy"], f"{c['rate']:.3g}",
                c["n_completed"], c["n_rejected"], c["n_failed"],
                c["n_preempted"], c["n_restarted"],
                f"{c['jain_fairness']:.3f}", slo,
                f"{c['queue_depth_p90']:.0f}",
                f"{c['makespan']:.2f}",
            ])
        table = render_table(
            ["policy", "rate", "done", "rej", "fail", "pre", "rst",
             "jain", "slo", "qd-p90", "makespan"],
            rows,
        )
        head = (
            f"serve: {self.n_jobs} jobs/level, "
            f"{len(self.tenants)} tenants, seed {self.seed}"
        )
        return head + "\n" + table
