"""The four benchmark workloads (names are fixed; later issues cite them).

Each workload is a class whose constructor *is* the set-up (config solving,
pin loading, T0 calibration — everything a user pays between interpreter
start and the first unit) and whose :meth:`unit` is one closed-loop unit of
work: it runs to completion, checks its own output (``verify()`` raises) and
returns the **simulated** results as a JSON-able dict.  The worker compares
that dict between repeats and, at seed 42, against a committed pin.

Layers are observed from outside only: spans wrap the calls into
``DsmSortJob``/``run_figure9`` and counters are read from public attributes
once a unit has returned.  Nothing here touches ``src/``.
"""

from __future__ import annotations

import json
import os

from repro.bench.fig9 import (
    BASELINE_ALPHA,
    FIG9_ALPHAS,
    FIG9_ASU_COUNTS,
    FIG9_GAMMA,
    fig9_params,
    run_figure9,
)
from repro.bench.regress import compare_payloads, compare_values
from repro.bench.report import SCHEMA_VERSION
from repro.core.config import ConfigSolver
from repro.dsmsort.runtime import DsmSortJob
from repro.faults import FaultPlan, crash_asu, drop_msg
from repro.metrics import MetricsRegistry
from repro.recovery.manifest import RunManifest
from repro.replica import ReplicationConfig
from repro.resilience.channel import RetryPolicy
from repro.trace import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
FIG9_BASELINE = os.path.join(REPO, "benchmarks", "baseline", "BENCH_fig9_speedup.json")
DEFAULT_PINS = os.path.join(HERE, "expected_sim.json")

#: the seed whose simulated results are pinned; other seeds check
#: repeat-to-repeat identity and ``verify()`` only
PIN_SEED = 42
#: float slack when comparing against a pin (NumPy-version summation order);
#: repeat-to-repeat identity inside one process is exact
PIN_RTOL = 1e-12


def chaos_retry_policy(t0: float) -> RetryPolicy:
    """The chaos harness's retry policy, scaled to a fault-free makespan."""
    return RetryPolicy(timeout=t0 / 50, max_backoff=t0 / 10, window=64)


def guarded_cell(smoke: bool = False):
    """(params, config) of the ``guarded_sort`` cell — shared with the ladder."""
    params = fig9_params(16, n_hosts=2)
    n = 1 << 12 if smoke else 1 << 15
    return params, ConfigSolver(params, gamma=64).config_for_alpha(n, 16)


def job_counters(job: DsmSortJob, p1, tracer=None) -> dict:
    """Deterministic pass-1 counters, read from public attributes."""
    plat = job.platform
    cs = p1.channel_stats or {}
    payload = cs.get("payload_bytes", 0)
    return {
        "sim.events": plat.sim.n_events_processed,
        "emulator.cpu_segments": sum(n.cpu.n_segments for n in plat.nodes),
        "emulator.disk_ops": sum(a.disk.stats.n_ops for a in plat.asus),
        "emulator.net_messages": plat.network.n_messages,
        "emulator.net_bytes": plat.network.bytes_total,
        "dsmsort.n_runs": p1.n_runs,
        "dsmsort.sim_makespan_s": p1.makespan,
        "dsmsort.reemitted_runs": p1.n_reemitted_runs,
        "resilience.retransmits": cs.get("n_retransmits", 0),
        "resilience.amplification": (
            (payload + cs.get("retrans_bytes", 0)) / payload if payload else 1.0
        ),
        "replica.promoted_runs": p1.n_promoted_runs,
        "trace.events": tracer.n_events() if tracer is not None else 0,
    }


def _sim_fields(p1, p2=None) -> dict:
    """The simulated fields a pin holds (event counts deliberately absent:
    reducing them is the roadmap's lever)."""
    out = {
        "makespan": p1.makespan,
        "host_util": p1.host_util,
        "asu_cpu_util": p1.asu_cpu_util,
        "asu_disk_util": p1.asu_disk_util,
        "n_runs": p1.n_runs,
        "net_bytes": p1.net_bytes,
        "imbalance": p1.imbalance,
        "completed": p1.completed,
        "n_durable": p1.n_durable,
        "n_replayed_frags": p1.n_replayed_frags,
        "n_reemitted_runs": p1.n_reemitted_runs,
        "n_takeover_blocks": p1.n_takeover_blocks,
        "n_promoted_runs": p1.n_promoted_runs,
        "n_repaired_copies": p1.n_repaired_copies,
        "n_retargeted_copies": p1.n_retargeted_copies,
        "n_underreplicated": p1.n_underreplicated,
    }
    if p2 is not None:
        out["pass2"] = {
            "makespan": p2.makespan,
            "host_util": p2.host_util,
            "asu_cpu_util": p2.asu_cpu_util,
            "n_partial_runs": p2.n_partial_runs,
            "completed": p2.completed,
        }
    return out


class _JobWorkload:
    """A workload whose unit is one ``DsmSortJob`` driven from outside."""

    name: str
    min_units: int
    trace_units = 3
    #: run pass 2 and ``verify()`` as well as pass 1
    full_sort = True

    def __init__(self, seed: int, smoke: bool, pins: str):
        self.seed = seed
        self.pin = _load_pin(pins, self.name, seed, smoke)
        self.tracer = None
        self._counters = None

    def make_job(self) -> DsmSortJob:
        raise NotImplementedError

    @property
    def records_per_unit(self) -> int:
        return self.cfg.n_records

    def unit(self, spans) -> dict:
        with spans("dsmsort.construct_s"):
            job = self.make_job()
        with spans("dsmsort.pass1_s"):
            p1 = job.run_pass1()
        p2 = None
        if self.full_sort:
            with spans("dsmsort.pass2_s"):
                p2 = job.run_pass2()
            with spans("dsmsort.verify_s"):
                job.verify()
        # Keep the counters, not the job: a live job would hold its record
        # arrays across the next unit and inflate peak RSS.
        self._counters = job_counters(job, p1, self.tracer)
        return _sim_fields(p1, p2)

    warmup = traced_unit = unit
    traced_records = records_per_unit

    def counters(self, spans) -> dict:
        """Counters of the most recent unit."""
        return self._counters

    def pin_diffs(self, sim: dict) -> list[str]:
        if self.pin is None:
            return []
        cand = json.loads(json.dumps(sim))
        return [d.render() for d in compare_values(self.pin, cand, rtol=PIN_RTOL, atol=0.0)]


class FragCell(_JobWorkload):
    """Bare pass 1 of the hottest fig9 cell (D=64, α=256): the event kernel."""

    name = "frag_cell"
    min_units = 20
    full_sort = False

    def __init__(self, seed, smoke, pins):
        super().__init__(seed, smoke, pins)
        self.params = fig9_params(64)
        n = 1 << 12 if smoke else 1 << 16
        self.cfg = ConfigSolver(self.params, gamma=64).config_for_alpha(n, 256)

    def make_job(self):
        return DsmSortJob(self.params, self.cfg, policy="static", active=True, seed=self.seed)


class BulkSort(_JobWorkload):
    """Full two-pass sort of 2^20 records at α=4: real NumPy work dominates."""

    name = "bulk_sort"
    min_units = 10

    def __init__(self, seed, smoke, pins):
        super().__init__(seed, smoke, pins)
        self.params = fig9_params(8, n_hosts=2)
        n = 1 << 14 if smoke else 1 << 20
        self.cfg = ConfigSolver(self.params, gamma=64).config_for_alpha(n, 4)

    def make_job(self):
        return DsmSortJob(self.params, self.cfg, policy="sr", active=True, seed=self.seed)


class GuardedSort(_JobWorkload):
    """Two-pass sort through every optional layer at once, under faults."""

    name = "guarded_sort"
    min_units = 10

    def __init__(self, seed, smoke, pins):
        super().__init__(seed, smoke, pins)
        self.params, self.cfg = guarded_cell(smoke)
        # T0 = fault-free makespan on the reliable transport.  A provisional
        # direct-transport run sizes the retry policy first, as the chaos
        # harness does.
        provisional = self._fault_free().run_pass1().makespan
        self.t0 = self._fault_free(
            transport="reliable", retry_policy=chaos_retry_policy(provisional)
        ).run_pass1().makespan

    def _fault_free(self, **kw):
        return DsmSortJob(self.params, self.cfg, policy="sr", seed=self.seed,
                          faults=FaultPlan(), **kw)

    def make_job(self):
        t0 = self.t0
        self.tracer = Tracer()
        return DsmSortJob(
            self.params, self.cfg, policy="sr", seed=self.seed,
            faults=FaultPlan([drop_msg(0.2 * t0, 0, 5, t0 / 8), crash_asu(0.4 * t0, 3)]),
            transport="reliable", retry_policy=chaos_retry_policy(t0),
            manifest=RunManifest(), replication=ReplicationConfig(r=2),
            metrics=MetricsRegistry(), tracer=self.tracer,
        )


class Fig9Grid:
    """The paper's headline figure: 42 independent pass-1 cells."""

    name = "fig9_grid"
    min_units = 3
    trace_units = 1

    def __init__(self, seed: int, smoke: bool, pins: str):
        self.seed = seed
        self.n = 1 << 11 if smoke else 1 << 16
        self.asu_counts = (2,) if smoke else FIG9_ASU_COUNTS
        #: the traced units run half the grid to fit the time cap
        self.traced_counts = (2,) if smoke else (2, 16, 64)
        self.warmup_counts = (2,) if smoke else (16,)
        self.pin = None
        if seed == PIN_SEED and not smoke:
            with open(FIG9_BASELINE) as fh:
                self.pin = json.load(fh)
        self._traced_ref = None

    def _n_cells(self, asu_counts) -> int:
        return len(asu_counts) * (len(FIG9_ALPHAS) + 2)

    @property
    def records_per_unit(self) -> int:
        return self.n * self._n_cells(self.asu_counts)

    @property
    def traced_records(self) -> int:
        return self.n * self._n_cells(self.traced_counts)

    def _payload(self, result) -> dict:
        """The ``BENCH_fig9_speedup.json`` payload of a result."""
        return json.loads(json.dumps({
            "schema_version": SCHEMA_VERSION,
            "params": fig9_params(result.asu_counts[0]).as_dict(),
            "alphas": list(FIG9_ALPHAS),
            "gamma": FIG9_GAMMA,
            "n_records": result.n_records,
            "asu_counts": result.asu_counts,
            "speedup": result.speedup,
            "baseline_makespan": result.baseline_makespan,
            "adaptive_alpha": result.adaptive_alpha,
        }))

    def _grid(self, spans, asu_counts):
        with spans("bench.fig9_grid_s"):
            return run_figure9(n_records=self.n, seed=self.seed, asu_counts=asu_counts)

    def unit(self, spans) -> dict:
        return self._payload(self._grid(spans, self.asu_counts))

    def warmup(self, spans) -> dict:
        return self._payload(self._grid(spans, self.warmup_counts))

    def traced_unit(self, spans) -> dict:
        """The unit the traced run times and profiles (half the grid)."""
        self._traced_ref = self._grid(spans, self.traced_counts)
        return self._payload(self._traced_ref)

    def counters(self, spans) -> dict:
        """Sum the per-cell counters over the traced grid.

        ``run_figure9`` keeps its jobs to itself, so the cells are re-run
        here one by one through the same public pieces; the makespans must
        reproduce the speedups ``run_figure9`` reported for the same grid.
        """
        ref = self._traced_ref
        total: dict = {}
        speedup = {name: [] for name in ref.speedup}
        for D in ref.asu_counts:
            params = fig9_params(D)
            solver = ConfigSolver(params, gamma=FIG9_GAMMA)
            cells = [("base", solver.config_for_alpha(self.n, BASELINE_ALPHA), False)]
            cells += [(str(a), solver.config_for_alpha(self.n, a), True) for a in FIG9_ALPHAS]
            cells.append(("adaptive", solver.choose(self.n), True))
            t_base = None
            for name, cfg, active in cells:
                with spans("dsmsort.construct_s"):
                    job = DsmSortJob(params, cfg, policy="static", workload="uniform",
                                     active=active, seed=self.seed)
                with spans("dsmsort.pass1_s"):
                    p1 = job.run_pass1()
                for k, v in job_counters(job, p1).items():
                    total[k] = total.get(k, 0) + v
                if name == "base":
                    t_base = p1.makespan
                else:
                    speedup[name].append(t_base / p1.makespan)
        if speedup != ref.speedup:
            raise AssertionError("fig9 cell loop disagrees with run_figure9 on the same grid")
        total["resilience.amplification"] /= self._n_cells(ref.asu_counts)
        return total

    def pin_diffs(self, sim: dict) -> list[str]:
        if self.pin is None:
            return []
        return [d.render() for d in compare_payloads(self.pin, sim, rtol=PIN_RTOL, atol=0.0)]


WORKLOADS = {w.name: w for w in (Fig9Grid, FragCell, BulkSort, GuardedSort)}


def _load_pin(path: str, name: str, seed: int, smoke: bool):
    if not path or seed != PIN_SEED:
        return None
    with open(path) as fh:
        pins = json.load(fh)
    return pins["smoke" if smoke else "full"][name]
