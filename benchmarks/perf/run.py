"""The wall-clock ledger: this repository's benchmark.

    python3 benchmarks/perf/run.py --seed 42

runs the four workloads (``fig9_grid``, ``frag_cell``, ``bulk_sort``,
``guarded_sort``), each in its own fresh subprocess, single-threaded and
closed-loop, then the layer probes and the overhead ladder; prints every
metric by name with its unit; checks every output; and exits non-zero if any
unit failed.  See README.md beside this file for what each number means.

    python3 benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1

is the form the benchmark driver calls: one workload, and as the last line of
stdout one JSON object ``{"correct", "attempted", "failed", "metrics"}``
holding the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``) that ``BENCHMARK.json`` names.

This process measures nothing itself except set-up time (spawn -> child
ready); it never imports the program under test.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO, "src")
PINS = os.path.join(HERE, "expected_sim.json")
WORKLOADS = ("fig9_grid", "frag_cell", "bulk_sort", "guarded_sort")
PINNED = ("frag_cell", "bulk_sort", "guarded_sort")

#: set-up samples per run (setup_s is their median); one of them is the
#: measuring worker's own start
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170.0

#: glibc malloc settings for every measured child: serve large arrays from
#: the heap, not mmap, and never give the heap back, so that after the
#: warm-up unit a unit takes no page faults.  On the VMs this runs on a page
#: fault's price is bimodal (the host re-backs pages the guest had freed):
#: identical ``bulk_sort`` units took 0.25 s or 1.3 s of system time for the
#: same 140k faults, which spread the median wall-clock of ten runs by 30%.
#: The warm-up unit still pays for its faults and reports them (``warmup_s``).
MALLOC_ENV = {"MALLOC_MMAP_MAX_": "0", "MALLOC_TRIM_THRESHOLD_": str(1 << 40)}


def load_spec() -> dict:
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        return json.load(fh)


def child(script: str, *args: str) -> tuple[dict, float]:
    """Run one of this directory's scripts; return (its JSON, spawn instant)."""
    env = {**os.environ, **MALLOC_ENV}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, script), *args],
        env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{script} {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1]), spawned


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 smoke: bool = False, pins: str | None = None) -> dict:
    """One workload in a fresh subprocess, plus the set-up timing around it."""
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    if smoke:
        args.append("--smoke")
    if pins is not None:
        args += ["--pins", pins]
    setups = []
    if not trace:
        for _ in range(1 if smoke else SETUP_SAMPLES - 1):
            out, spawned = child("worker.py", *args, "--setup-only")
            setups.append(out["ready_at"] - spawned)
    result, spawned = child("worker.py", *args)
    if not trace and result["metrics"]:
        setups.append(result.pop("ready_at") - spawned)
        result["metrics"]["setup_s"] = (statistics.median(setups), "s")
    return result


def run_layers(seed: int, smoke: bool = False) -> dict:
    """The workload-independent per-layer numbers: probes, then the ladder."""
    extra = ["--smoke"] if smoke else []
    return merge(child(script, "--seed", str(seed), *extra)[0]
                 for script in ("probes.py", "ladder.py"))


def merge(results) -> dict:
    out = {"metrics": {}, "diagnostics": {}, "attempted": 0, "failed": 0}
    for r in results:
        out["metrics"].update(r["metrics"])
        out["diagnostics"].update(r["diagnostics"])
        out["attempted"] += r["attempted"]
        out["failed"] += r["failed"]
    return out


def mismatched(names, spec: dict, trace: int) -> int:
    """How many metric names were emitted but are not in BENCHMARK.json, or
    the reverse; says which on stderr."""
    expected = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    wrong = sorted(expected ^ set(names))
    if wrong:
        print(f"run.py: metrics do not match BENCHMARK.json: {wrong}", file=sys.stderr)
    return len(wrong)


def driver_line(result: dict, ok: bool) -> str:
    return json.dumps({
        "correct": ok,
        "attempted": max(1, result["attempted"]),
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    })


def print_metrics(title: str, result: dict) -> None:
    print(f"\n== {title}: {result['attempted']} ops, {result['failed']} failed")
    for section in ("metrics", "diagnostics"):
        for name, (value, unit) in result[section].items():
            mark = "" if section == "metrics" else "  (diagnostic)"
            print(f"{name:42s} {value:>16.6g} {unit}{mark}")


def rebaseline_sim() -> None:
    seed = 42  # the one pinned seed (workloads.PIN_SEED)
    pins = {}
    for size, smoke in (("full", False), ("smoke", True)):
        pins[size] = {
            name: run_workload(name, seed, 0.0, 0, smoke=smoke, pins="")["sim"]
            for name in PINNED
        }
    with open(PINS, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {PINS}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, help="run one workload (driver form)")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=None,
                    help="timed seconds per workload (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes: checks the harness, not speed")
    ap.add_argument("--pins", default=None, help="check against this expected_sim.json instead")
    ap.add_argument("--rebaseline-sim", action="store_true",
                    help="rewrite expected_sim.json from this checkout at seed 42")
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"run.py: no program to measure: {SRC}/repro not found", file=sys.stderr)
        return 2
    if args.rebaseline_sim:
        rebaseline_sim()
        return 0
    spec = load_spec()
    seconds = args.seconds
    if seconds is None:
        seconds = 0.5 if args.smoke else float(spec["run_seconds"])

    if args.workload:
        parts = [run_workload(args.workload, args.seed, seconds, args.trace,
                              args.smoke, args.pins)]
        if args.trace:
            parts.append(run_layers(args.seed, args.smoke))
        result = merge(parts)
        print_metrics(f"{args.workload} trace={args.trace}", result)
        ok = not mismatched(result["metrics"], spec, args.trace) and result["failed"] == 0
        print(driver_line(result, ok))
        return 0 if ok else 1

    layers = run_layers(args.seed, args.smoke)
    print_metrics("layer probes and overhead ladder", layers)
    failed = layers["failed"]
    ledger = {"layers": layers}
    for name in WORKLOADS:
        for trace in (0, 1):
            result = run_workload(name, args.seed, seconds, trace, args.smoke, args.pins)
            print_metrics(f"{name} ({'per-layer, traced' if trace else 'end-to-end'})", result)
            names = set(result["metrics"]) | (set(layers["metrics"]) if trace else set())
            failed += result["failed"] + mismatched(names, spec, trace)
            ledger[f"{name}/trace{trace}"] = result
    print(f"\n{'FAIL' if failed else 'PASS'}: ops_failed={failed}")
    print(json.dumps(ledger))
    return 1 if failed else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.TimeoutExpired) as exc:  # a child died or hung
        sys.exit(f"run.py: {exc}")
