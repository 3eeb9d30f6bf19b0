"""Overhead ladder: what each optional layer costs over the bare run.

Eight rungs on the ``guarded_sort`` cell (16 ASUs, 2 hosts, α=16, n=2^15),
fault-free, each the median wall-clock of three construct + ``run_pass1()``
repeats, reported as a ratio over the bare rung (``ladder.bare_s``).

The ``ft`` rung also carries an assertion: with an empty ``FaultPlan`` the
fault-tolerant engine must give *exactly* the bare makespan.  ROADMAP item 1
relies on that equivalence to delete the legacy engine; a mismatch counts as
a failed op.  Run as a script to print the ladder as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

from repro.dsmsort.runtime import DsmSortJob
from repro.faults import FaultPlan
from repro.metrics import MetricsRegistry
from repro.recovery.manifest import RunManifest
from repro.replica import ReplicationConfig
from repro.trace import Tracer

from workloads import chaos_retry_policy, guarded_cell

REPEATS = 3


def rungs(t_bare: float) -> dict:
    """Rung name -> factory of the job kwargs it adds to the bare run.

    Factories, because a registry, tracer or manifest must be fresh per run.
    """
    reliable = lambda: {"faults": FaultPlan(), "transport": "reliable",
                        "retry_policy": chaos_retry_policy(t_bare)}
    return {
        "metrics": lambda: {"metrics": MetricsRegistry()},
        "tracer": lambda: {"tracer": Tracer()},
        "ft": lambda: {"faults": FaultPlan()},
        "reliable": reliable,
        "manifest": lambda: {"faults": FaultPlan(), "manifest": RunManifest()},
        "r2": lambda: {"faults": FaultPlan(), "replication": ReplicationConfig(r=2)},
        "all": lambda: {**reliable(), "manifest": RunManifest(),
                        "replication": ReplicationConfig(r=2),
                        "metrics": MetricsRegistry(), "tracer": Tracer()},
    }


def measure(seed: int, smoke: bool) -> dict:
    params, cfg = guarded_cell(smoke)
    repeats = 1 if smoke else REPEATS
    attempted = failed = 0

    def rung(make_kwargs):
        """Median wall, and the (makespan, events) every repeat must share."""
        nonlocal attempted, failed
        walls, sims = [], set()
        for _ in range(repeats):
            attempted += 1
            t0 = time.perf_counter()
            job = DsmSortJob(params, cfg, policy="sr", seed=seed, **make_kwargs())
            makespan = job.run_pass1().makespan
            walls.append(time.perf_counter() - t0)
            sims.add((makespan, job.platform.sim.n_events_processed))
        if len(sims) != 1:
            failed += 1
            print(f"FAILED ladder: simulated results differ between repeats: {sims}",
                  file=sys.stderr)
        return statistics.median(walls), *sims.pop()

    rung(dict)  # untimed warm-up
    bare_s, t_bare, events = rung(dict)
    metrics = {"ladder.bare_s": (bare_s, "s")}
    diagnostics = {}

    def note(name, makespan, events):
        diagnostics[f"ladder.{name}.sim_makespan_s"] = (makespan, "s")
        diagnostics[f"ladder.{name}.events"] = (events, "count")

    note("bare", t_bare, events)
    for name, make_kwargs in rungs(t_bare).items():
        wall, makespan, events = rung(make_kwargs)
        metrics[f"ladder.{name}_x"] = (wall / bare_s, "x")
        note(name, makespan, events)
        if name == "ft" and makespan != t_bare:
            failed += 1
            print(f"FAILED ladder: empty-FaultPlan makespan {makespan!r} != bare {t_bare!r}",
                  file=sys.stderr)
    return {"metrics": metrics, "diagnostics": diagnostics,
            "attempted": attempted, "failed": failed}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    print(json.dumps(measure(args.seed, args.smoke)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
