"""Soak sweeps: a reference run, a grid of faults, one gated report.

Every robustness claim here is proved the way the paper's figures are: an
uninterrupted **reference** run fixes the expected output bytes (SHA-256),
a **grid** of fault points fans out across worker processes, each **case**
re-runs the sort under its fault, and a **gate** turns the cases into one
verdict.  :class:`Sweep` declares those pieces; :func:`run_sweep` is the only
driver; ``python -m repro recover|replicate|partition`` are the entries of
:data:`SWEEPS`.  Adding a sweep is adding a declaration (see
``docs/RESILIENCE.md``).

The workload seed reaches a case only through its :class:`Reference`, so a
case cannot sort different data than its reference did.  The chaos soak
(:func:`repro.resilience.chaos.run_chaos`) is not a :class:`Sweep` — why, and
what the two share, is in ``docs/RESILIENCE.md``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from ..dsmsort.runtime import DsmSortJob
from ..faults.injector import FaultPlan, crash_asu
from ..recovery.checkpoint import RecoverableSort
from ..recovery.supervisor import RestartBudget
from ..replica import ReplicationConfig
from ..resilience.chaos import (
    chaos_cell,
    chaos_params,
    cut_plan,
    dsmsort_t0,
    fence_counters,
    partition_scenario,
)
from .parallel import parallel_map
from .report import SCHEMA_VERSION, render_table, write_canonical_json

__all__ = ["Reference", "SWEEPS", "Sweep", "run_sweep"]


@dataclass(frozen=True)
class Reference:
    """What the uninterrupted run fixes for every case of a sweep.

    ``t0`` is the fault-free makespan the grid's instants scale with (one
    per configuration when the sweep compares several); the report carries
    it as is.
    """

    n_records: int
    seed: int
    t0: Union[float, dict[int, float]]
    sha256: str


@dataclass(frozen=True)
class Sweep:
    """One soak sweep, declared.

    ``reference(n_records, seed)`` runs fault-free and verifies.
    ``grid(ref, k)`` lists the fault points (``k`` is ``--seeds``).
    ``case((ref, point))`` runs one point and returns its JSON record; it is
    pickled to workers, so it must be a module-level function.
    ``columns`` are the record keys the printed table shows.
    ``gate(cases)`` returns the extra top-level report fields and ``ok``.
    """

    title: str
    max_n: int
    reference: Callable[[int, int], Reference]
    grid: Callable[[Reference, int], Sequence]
    case: Callable[[tuple], dict]
    columns: Sequence[str]
    gate: Callable[[list[dict]], tuple[dict, bool]]


def run_sweep(
    sweep: Sweep, n_records: int, seed: int, k: int, out: str,
    workers: Optional[int] = None,
) -> int:
    """Run ``sweep``, print its table, write its report; 0 iff the gate held.

    Cases fan out across ``workers`` processes and merge in grid order, so
    the canonical JSON report is byte-identical for any worker count.
    """
    n = min(n_records, sweep.max_n)  # many two-pass sorts; keep the sweep fast
    ref = sweep.reference(n, seed)
    print(f"reference: {n} records, seed {seed}, T0={ref.t0}, "
          f"sha256={ref.sha256[:16]}")
    tasks = [(ref, point) for point in sweep.grid(ref, max(1, k))]
    cases = parallel_map(sweep.case, tasks, workers=workers)
    print()
    print(render_table(
        sweep.columns,
        [[_cell(case[key]) for key in sweep.columns] for case in cases],
        title=f"{sweep.title}, N={n}, {len(cases)} cases",
    ))
    extra, ok = sweep.gate(cases)
    write_canonical_json(out, {
        "schema_version": SCHEMA_VERSION,
        "n_records": n,
        "seed": seed,
        "t0": ref.t0,
        "reference_sha256": ref.sha256,
        "cases": cases,
        "ok": ok,
        **extra,
    })
    print(f"{'PASS' if ok else 'FAIL'}: {sweep.title}, {len(cases)} cases"
          + "".join(f", {key}={val}" for key, val in extra.items())
          + f" -> {out}")
    return 0 if ok else 1


def _sha256(records: np.ndarray) -> str:
    return hashlib.sha256(records.tobytes()).hexdigest()


def _cell(value):
    """Table spelling of one record value: a loud NO, 4-decimal seconds."""
    if isinstance(value, bool):
        return "yes" if value else "NO"
    return f"{value:.4f}" if isinstance(value, float) else value


def _kill_fracs(ref: Reference, k: int) -> list[float]:
    """``k`` kill fractions spread evenly inside the fault-free makespan
    (a ``grid``: the instants are ``frac * ref.t0``, applied by the case)."""
    return [(i + 1) / (k + 1) for i in range(k)]


# ------------------------------------------------------------------ recover
def _recover_reference(n: int, seed: int) -> Reference:
    sort = RecoverableSort(*chaos_cell(n), seed=seed, policy="sr")
    rep = sort.run_supervised()
    sort.verify()
    return Reference(n, seed, rep.total_virtual_time, _sha256(sort.output()))


def _recover_point(task: tuple) -> dict:
    """Kill the coordinator at one instant; the supervised resume must
    reproduce the reference bytes."""
    ref, frac = task
    sort = RecoverableSort(*chaos_cell(ref.n_records), seed=ref.seed, policy="sr")
    rep = sort.run_supervised(
        crashes=[frac * ref.t0], budget=RestartBudget(max_restarts=3)
    )
    return {
        "crash_frac": frac,
        "crash_at": frac * ref.t0,
        "completed": bool(rep.completed),
        "n_attempts": rep.n_attempts,
        "n_crashes": rep.n_crashes,
        "total_virtual_time": rep.total_virtual_time,
        "manifest_bytes": int(sort.manifest.bytes_logged),
        "byte_identical": bool(
            rep.completed and _sha256(sort.output()) == ref.sha256
        ),
    }


# ---------------------------------------------------------------- replicate
_REPLICATE_R = (1, 2, 3)


def _replicated_sort(n: int, seed: int, r: int, faults: FaultPlan):
    """Two-pass r-way replicated sort; returns (pass-1 result, output digest)."""
    job = DsmSortJob(
        *chaos_cell(n), policy="sr", seed=seed, faults=faults,
        replication=ReplicationConfig(r=r),
        heartbeat_interval=0.002, heartbeat_timeout=0.008,
    )
    res = job.run_pass1()
    job.run_pass2()
    job.verify()
    return res, _sha256(job.collected_output())


def _replicate_reference(n: int, seed: int) -> Reference:
    """One fault-free run per r: the makespans differ, the bytes must not —
    replication changes placement, never content."""
    t0, digests = {}, set()
    for r in _REPLICATE_R:
        res, digest = _replicated_sort(n, seed, r, FaultPlan([]))
        t0[r] = res.makespan
        digests.add(digest)
    if len(digests) != 1:
        raise RuntimeError("fault-free replicated outputs diverge across r")
    # json writes the int keys of t0 as "1", "2", "3"
    return Reference(n, seed, t0, digests.pop())


def _replicate_grid(ref: Reference, k: int) -> list[tuple]:
    return [
        (r, asu, frac)
        for r in _REPLICATE_R
        for asu in range(chaos_params().n_asus)
        for frac in _kill_fracs(ref, k)
    ]


def _replicate_point(task: tuple) -> dict:
    """Kill one ASU at one instant; with r >= 2 recovery must be pure
    promotion — zero fragment replay AND zero run re-emission."""
    ref, (r, asu, frac) = task
    t_kill = frac * ref.t0[r]
    res, digest = _replicated_sort(
        ref.n_records, ref.seed, r, FaultPlan([crash_asu(t_kill, asu)])
    )
    identical = digest == ref.sha256
    zero_replay = res.n_replayed_frags == 0 and res.n_reemitted_runs == 0
    return {
        "r": r,
        "asu": asu,
        "kill_frac": frac,
        "kill_at": t_kill,
        "completed": bool(res.completed),
        "makespan": res.makespan,
        "n_replayed_frags": int(res.n_replayed_frags),
        "n_reemitted_runs": int(res.n_reemitted_runs),
        "n_promoted_runs": int(res.n_promoted_runs),
        "n_repaired_copies": int(res.n_repaired_copies),
        "byte_identical": identical,
        "ok": bool(res.completed and identical and (r < 2 or zero_replay)),
    }


# ---------------------------------------------------------------- partition
def _partition_reference(n: int, seed: int) -> Reference:
    t0 = dsmsort_t0(n)
    job, _res, verified = partition_scenario(n, t0, FaultPlan([]), seed=seed)
    if not verified:
        raise RuntimeError("fault-free partition reference failed to verify")
    return Reference(n, seed, t0, _sha256(job.collected_output()))


def _partition_grid(ref: Reference, k: int) -> list[tuple]:
    """cut group x window length x asymmetry x mid-cut kill; the grid is
    fixed, so ``k`` is unused."""
    return [
        (cut_asus, cut_hosts, dur_frac, asymmetry, kill)
        for cut_asus, cut_hosts in [((1,), ()), ((1, 2), ()), ((), (1,))]
        for dur_frac in (0.08, 0.5)
        for asymmetry in ("both", "out", "in")
        for kill in (False, True)
    ]


def _partition_point(task: tuple) -> dict:
    """One cut; the output must verify and match the reference bytes — no
    double write crossed an epoch fence, no record died with the cut."""
    ref, (cut_asus, cut_hosts, dur_frac, asymmetry, kill) = task
    plan = cut_plan(cut_asus, cut_hosts, 0.25 * ref.t0, dur_frac * ref.t0,
                    asymmetry, kill)
    job, res, verified = partition_scenario(ref.n_records, ref.t0, plan, seed=ref.seed)
    identical = bool(verified and _sha256(job.collected_output()) == ref.sha256)
    cut = [f"asu{d}" for d in cut_asus] + [f"host{h}" for h in cut_hosts]
    return {
        "cut": ",".join(cut),
        "asymmetry": asymmetry,
        "duration_frac": dur_frac,
        "killed_in_cut": kill,
        "completed": bool(res.completed),
        "makespan": res.makespan,
        **fence_counters(res),
        "n_takeover_blocks": int(res.n_takeover_blocks),
        "byte_identical": identical,
        "ok": identical,
    }


def _partition_gate(cases: list[dict]) -> tuple[dict, bool]:
    # the fences must be observed rejecting stale writes somewhere in the
    # asymmetric half of the grid, or the no-split-brain claim is vacuous
    fenced = any(
        c["n_epoch_rejections"] > 0
        for c in cases
        if c["asymmetry"] in ("out", "both")
    )
    return {"fencing_exercised": fenced}, fenced and all(c["ok"] for c in cases)


SWEEPS: dict[str, Sweep] = {
    "recover": Sweep(
        "coordinator kill sweep", 1 << 14,
        _recover_reference, _kill_fracs, _recover_point,
        ("crash_frac", "crash_at", "n_attempts", "total_virtual_time",
         "byte_identical"),
        lambda cases: ({}, all(c["byte_identical"] for c in cases)),
    ),
    "replicate": Sweep(
        "ASU kill sweep, r in 1..3", 1 << 14,
        _replicate_reference, _replicate_grid, _replicate_point,
        ("r", "asu", "kill_frac", "makespan", "n_replayed_frags",
         "n_reemitted_runs", "n_promoted_runs", "byte_identical", "ok"),
        lambda cases: ({}, all(c["ok"] for c in cases)),
    ),
    "partition": Sweep(
        "partition sweep, r=2", 1 << 13,
        _partition_reference, _partition_grid, _partition_point,
        ("cut", "asymmetry", "duration_frac", "killed_in_cut",
         "n_epoch_rejections", "n_readmitted", "n_reconciled_runs",
         "view_epoch", "byte_identical", "ok"),
        _partition_gate,
    ),
}
