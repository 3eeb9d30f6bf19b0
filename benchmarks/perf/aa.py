"""A/A check: run the benchmark twice on the same checkout and compare.

    python3 benchmarks/perf/aa.py [--runs N] [--seed 42]

Two sets (A and B) of ``N`` end-to-end runs per workload, interleaved
A, B, A, B so slow drift of the machine lands on both; then one traced run
per set.  Prints, per workload x end-to-end metric, how much worse B's
median is than A's beside the metric's bound, and exits non-zero if any
difference exceeds its bound or any deterministic counter differs.

If a median misses its bound here, raise ``--runs`` (or the workload's
repeat count, within the time cap): never widen the bound or shrink the unit.
"""

from __future__ import annotations

import argparse
import statistics
import sys

from run import WORKLOADS, load_spec, run_workload


def worse_by(a: float, b: float, better: str) -> float:
    """Share of ``a`` by which ``b`` is worse (negative = better)."""
    return (b - a) / a if better == "lower" else (a - b) / a


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--runs", type=int, default=1, help="end-to-end runs per set")
    ap.add_argument("--seconds", type=float, default=None)
    args = ap.parse_args(argv)
    spec = load_spec()
    seconds = float(spec["run_seconds"]) if args.seconds is None else args.seconds

    bad = 0
    print(f"{'workload':14s} {'metric':14s} {'A':>12s} {'B':>12s} {'B worse by':>11s} {'bound':>6s}")
    for name in WORKLOADS:
        sets = {"A": [], "B": []}
        for _ in range(args.runs):
            for side in sets:
                result = run_workload(name, args.seed, seconds, 0)
                bad += result["failed"]
                sets[side].append(result["metrics"])
        for m in spec["end_to_end"]:
            a, b = (statistics.median(r[m["name"]][0] for r in sets[side]) for side in "AB")
            diff = worse_by(a, b, m["better"])
            ok = abs(diff) <= m["bound"]
            bad += not ok
            print(f"{name:14s} {m['name']:14s} {a:12.5g} {b:12.5g} {diff:+11.1%} "
                  f"{m['bound']:6.0%} {'' if ok else 'OUT OF BOUND'}")
        traced = [run_workload(name, args.seed, seconds, 1) for _ in "AB"]
        bad += sum(r["failed"] for r in traced)
        a, b = (r["counters"] for r in traced)
        for key in sorted(set(a) | set(b)):
            if a.get(key) != b.get(key):
                bad += 1
                print(f"{name:14s} {key}: A={a.get(key)!r} B={b.get(key)!r} COUNTER DIFFERS")
        print(f"{name:14s} {len(a)} deterministic counters identical" if a == b else "")
    print("PASS" if not bad else f"FAIL: {bad} problem(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
