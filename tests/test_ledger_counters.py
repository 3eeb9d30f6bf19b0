"""Counter ratchet: the deterministic pass-1 counters of the ledger's cells.

``benchmarks/baseline/LEDGER_counters.json`` holds, for fixed cells, the
counts that repeat exactly on every machine — events processed, CPU segments,
disk operations, network messages and bytes, runs formed — plus the simulated
makespan.  They must match *exactly*: a hot-path change that claims to be
schedule-neutral (same events, same order, same float operations) proves it
by leaving this file untouched, and a change that adds events fails tier-1
instead of being invisible.  Later changes may only lower these numbers; when
one does (event coalescing, ROADMAP item 2a), regenerate with

    PYTHONPATH=src python tests/test_ledger_counters.py

and review the diff.

The cells are the wall-clock ledger's (``benchmarks/perf/workloads.py``),
re-declared here through the public API so tier-1 does not import the
benchmark: ``frag_cell`` at full size, the ``bulk_sort`` cell at n = 2^14, and
the ``guarded_sort`` cell at n = 2^12, fault-free, on six rungs of the
optional-layer ladder.

The last case ratchets *memory* the same way — as an allocation count, not a
timing: the ``tracemalloc`` peak of a whole ``bulk_sort`` job as a multiple of
its input size.
"""

import json
import os
import tracemalloc

import pytest

from repro.bench.fig9 import FIG9_GAMMA, fig9_params
from repro.core.config import ConfigSolver
from repro.dsmsort.runtime import DsmSortJob
from repro.faults import FaultPlan
from repro.recovery import RunManifest
from repro.replica import ReplicationConfig

SEED = 42
LEDGER = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks", "baseline", "LEDGER_counters.json",
)


def _cell(n_asus, n_hosts, n_records, alpha):
    params = fig9_params(n_asus, n_hosts=n_hosts)
    return params, ConfigSolver(params, gamma=FIG9_GAMMA).config_for_alpha(n_records, alpha)


def _guarded(**layers):
    return lambda: DsmSortJob(*_cell(16, 2, 1 << 12, 16), policy="sr", seed=SEED, **layers)


#: cell name -> factory of a fresh job
CELLS = {
    "frag_cell": lambda: DsmSortJob(
        *_cell(64, 1, 1 << 16, 256), policy="static", active=True, seed=SEED
    ),
    "bulk_sort@2^14": lambda: DsmSortJob(
        *_cell(8, 2, 1 << 14, 4), policy="sr", active=True, seed=SEED
    ),
    "guarded@2^12/bare": _guarded(),
    "guarded@2^12/ft": _guarded(faults=FaultPlan()),
    "guarded@2^12/reliable": _guarded(transport="reliable"),
    "guarded@2^12/r2": _guarded(replication=ReplicationConfig(r=2)),
    # Journaled rungs (a fresh manifest per job): they pin the journal's
    # fragment-boundary run cut and ``new_run`` ids, striped and replicated.
    "guarded@2^12/manifest": lambda: _guarded(manifest=RunManifest())(),
    "guarded@2^12/manifest+r2": lambda: _guarded(
        manifest=RunManifest(), replication=ReplicationConfig(r=2)
    )(),
}


def pass1_counters(job: DsmSortJob) -> dict:
    p1 = job.run_pass1()
    plat = job.platform
    return {
        "sim_events": plat.sim.n_events_processed,
        "cpu_segments": sum(n.cpu.n_segments for n in plat.nodes),
        "disk_ops": sum(a.disk.stats.n_ops for a in plat.asus),
        "net_messages": plat.network.n_messages,
        "net_bytes": plat.network.bytes_total,
        "n_runs": p1.n_runs,
        "makespan": p1.makespan,
    }


def _ledger() -> dict:
    with open(LEDGER) as fh:
        return json.load(fh)


def test_ledger_names_exactly_these_cells():
    assert sorted(_ledger()) == sorted(CELLS)


@pytest.mark.parametrize("name", CELLS)
def test_counters_match_ledger_exactly(name):
    # == on the makespan too: it is a pure function of the schedule, and the
    # JSON round-trip of a float is exact (repr).
    assert pass1_counters(CELLS[name]()) == _ledger()[name]


def test_bulk_sort_peak_memory_in_data_set_copies():
    """Peak traced memory of construct + pass 1 + pass 2 + ``verify()`` on the
    ``bulk_sort`` cell at n = 2^16, in units of the input's n x 128 bytes.

    The floor is 3.0 — input, pass-1 runs and final output are all alive when
    the job ends — and the record data plane adds no further full-size copy:
    3.29 measured (3.17 as a process's second job; 3.15 at 2^18).  It was 5.23
    while ``verify()`` concatenated input and output records and the merge
    copied every record twice.  Allocation sizes do not depend on the
    machine's speed, so an extra copy of the data set fails here instead of
    waiting for someone to read ``peak_rss_mb``.
    """
    params, cfg = _cell(8, 2, 1 << 16, 4)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        job = DsmSortJob(params, cfg, policy="sr", active=True, seed=SEED)
        job.run_pass1()
        job.run_pass2()
        job.verify()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak / params.schema.nbytes(cfg.n_records) <= 3.5


if __name__ == "__main__":
    with open(LEDGER, "w") as fh:
        json.dump({name: pass1_counters(make()) for name, make in CELLS.items()},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {LEDGER}")
