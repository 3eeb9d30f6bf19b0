"""Checkpoint overhead — manifest-on vs. manifest-off DSM-Sort (repro.recovery).

Two hosts, 16 ASUs, fault-free two-pass DSM-Sort.  The same workload runs
once without a run manifest and once journaling every distribute block,
shard completion, durable run, and merged bucket through the write-ahead
manifest (whose I/O is charged simulated time via the emulated disk layer).

The acceptance bound from the recovery tentpole: checkpointing adds less
than 2% to the simulated makespan, and — because the journal is
write-behind and never on the critical path of record flow — the sorted
output is byte-identical with and without it.

The whole experiment is deterministic: a second run with the same seed
must reproduce every number bit-for-bit.
"""

import numpy as np
from conftest import bench_n

from repro.bench.report import render_table, write_bench_json
from repro.core import DSMConfig
from repro.dsmsort import DsmSortJob
from repro.emulator.params import SystemParams
from repro.recovery import RunManifest

OVERHEAD_BOUND = 0.02


def overhead_params():
    return SystemParams(
        n_hosts=2,
        n_asus=16,
        cycles_per_compare=100.0,
        cycles_per_record=300.0,
        cycles_per_net_byte=1.5,
        cycles_per_io_byte=0.5,
        block_records=1024,
    )


def run_overhead(n_records: int, seed: int = 3):
    """Fault-free sort with and without the write-ahead manifest."""
    params = overhead_params()
    cfg = DSMConfig.for_n(n_records, alpha=16, gamma=16)

    def sort_once(manifest):
        job = DsmSortJob(
            params, cfg, policy="sr", active=True, seed=seed, manifest=manifest,
        )
        r1 = job.run_pass1()
        r2 = job.run_pass2()
        job.verify()
        return r1.makespan + r2.makespan, job.collected_output()

    t_off, out_off = sort_once(None)
    manifest = RunManifest()
    t_on, out_on = sort_once(manifest)
    rep = manifest.report()
    return {
        "t_off": t_off,
        "t_on": t_on,
        "overhead_frac": (t_on - t_off) / t_off,
        "byte_identical": bool(np.array_equal(out_off, out_on)),
        "manifest_entries": len(manifest.entries),
        "manifest_bytes": manifest.bytes_logged,
        "manifest_report": rep,
    }


def test_recovery_overhead(once):
    n = bench_n(quick=1 << 16, full=1 << 19)
    res = once(run_overhead, n)
    print()
    print(
        render_table(
            ["variant", "makespan", "overhead"],
            [
                ["manifest off", res["t_off"], 0.0],
                ["manifest on", res["t_on"], res["overhead_frac"]],
            ],
            title=(
                f"checkpoint overhead, N={n}, "
                f"{res['manifest_entries']} journal entries / "
                f"{res['manifest_bytes']} bytes"
            ),
        )
    )
    write_bench_json(
        "recovery_overhead",
        {
            "params": overhead_params().as_dict(),
            "n_records": n,
            "seed": 3,
            "overhead_bound": OVERHEAD_BOUND,
            **{k: v for k, v in res.items() if k != "manifest_report"},
        },
    )

    # (1) The journal is write-behind: well under the 2% acceptance bound.
    assert res["overhead_frac"] < OVERHEAD_BOUND
    # (2) Checkpointing never perturbs the sorted output.
    assert res["byte_identical"]
    # (3) The manifest actually journaled the run (not a silent no-op).
    assert res["manifest_entries"] > 0 and res["manifest_bytes"] > 0

    # (4) Bit-identical reproducibility: same seed, same numbers.
    assert run_overhead(n) == res
