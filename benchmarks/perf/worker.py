"""One workload, measured in one fresh process (spawned by ``run.py``).

Single-threaded closed loop: one unit of work at a time, the next starts
when the previous has returned and been checked.  ``--trace 0`` times units
with nothing attached and reports the end-to-end numbers; ``--trace 1`` runs
a few units under an in-memory span recorder, reads the deterministic
counters, then runs one more unit under ``cProfile`` and buckets self-time by
package.  The result is one JSON object on the last line of stdout.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import pstats
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext

#: packages whose cProfile self-time gets a ``prof.<pkg>.self_pct`` line
LAYERS = (
    "sim", "emulator", "core", "dsmsort", "functors", "util", "metrics",
    "trace", "faults", "resilience", "recovery", "replica", "membership",
)
SPAN_NAMES = (
    "dsmsort.construct_s", "dsmsort.pass1_s", "dsmsort.pass2_s",
    "dsmsort.verify_s", "bench.fig9_grid_s",
)
#: a run that overshoots this is cut short so the process exits well inside
#: the driver's 180 s limit
HARD_CAP_S = 120.0

_NULL = nullcontext()


def no_spans(name: str):
    """Tracing off: every span is the shared no-op context."""
    return _NULL


class Spans:
    """In-memory span recorder: rows of ``[name, start, end, parent]``."""

    def __init__(self) -> None:
        self.rows: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def __call__(self, name: str):
        idx = len(self.rows)
        self.rows.append([name, time.perf_counter(), None, self._open[-1] if self._open else None])
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.rows[idx][2] = time.perf_counter()

    def totals(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, start, end, _parent in self.rows:
            out[name] = out.get(name, 0.0) + (end - start)
        return out


def cpu_seconds() -> float:
    """Process CPU so far: user + system, self + reaped children."""
    # getrusage, not os.times(): the latter ticks in 10 ms steps.
    return sum(
        ru.ru_utime + ru.ru_stime
        for ru in map(resource.getrusage, (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    )


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def high_percentile(values: list[float]):
    """The highest percentile with at least ten samples beyond it.

    None below twenty samples, where that percentile would sit under the
    median and say nothing about the tail.
    """
    n = len(values)
    if n < 20:
        return None
    return 100 * (n - 10) // n, sorted(values)[n - 11]


def _bucket(func) -> str | None:
    """Package bucket of a pstats function key; None = charge the callers."""
    filename, _line, name = func
    if filename == "~":  # built-in: no file of its own
        return "numpy" if "numpy" in name else None
    path = filename.replace(os.sep, "/")
    if "/repro/" in path:
        pkg = path.split("/repro/", 1)[1].split("/", 1)[0]
        return pkg if pkg in LAYERS else "other"
    return "numpy" if "/numpy/" in path else "other"


def profile_buckets(prof: cProfile.Profile) -> dict[str, float]:
    """cProfile self-time per package.

    A non-NumPy built-in (``heappush``, ``list.append``, ``deque.popleft``)
    is the cost of whoever called it, so its self-time is split among its
    callers' packages; NumPy's C functions are the ``numpy`` bucket.
    """
    out = dict.fromkeys((*LAYERS, "numpy", "other"), 0.0)
    for func, (_cc, _nc, tt, _ct, callers) in pstats.Stats(prof).stats.items():
        bucket = _bucket(func)
        if bucket is not None:
            out[bucket] += tt
            continue
        for caller, (_nc2, _cc2, caller_tt, _ct2) in callers.items():
            out[_bucket(caller) or "other"] += caller_tt
            tt -= caller_tt
        out["other"] += tt
    return out


class Checker:
    """Counts units attempted and failed; remembers what each kind returned."""

    def __init__(self, workload) -> None:
        self.w = workload
        self.attempted = 0
        self.failed = 0
        self._ref: dict[str, dict] = {}

    def fail(self, why: str) -> None:
        self.failed += 1
        print(f"FAILED {self.w.name}: {why}", file=sys.stderr)

    def run(self, kind: str, fn, spans):
        """Run one unit; return ``(wall, cpu)``, or None if it failed."""
        self.attempted += 1
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            sim = fn(spans)
        except Exception:
            traceback.print_exc()
            self.fail(f"{kind} unit raised")
            return None
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - cpu0
        ref = self._ref.setdefault(kind, sim)
        if sim != ref:
            self.fail(f"{kind} unit's simulated results differ between repeats")
            return None
        if kind == "timed":
            diffs = self.w.pin_diffs(sim)
            if diffs:
                self.fail("simulated results differ from the pin\n" + "\n".join(diffs[:10]))
                return None
        return wall, cpu

    def sim(self, kind: str):
        return self._ref.get(kind)


def run_timed(w, check: Checker, seconds: float, min_units: int) -> dict:
    walls: list[float] = []
    cpus: list[float] = []
    start = time.perf_counter()
    n = 0
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_CAP_S or (elapsed >= seconds and n >= min_units):
            break
        n += 1
        sample = check.run("timed", w.unit, no_spans)
        if sample is not None:
            walls.append(sample[0])
            cpus.append(sample[1])
    if not walls:
        return {"metrics": {}, "diagnostics": {}}
    wall_s = statistics.median(walls)
    q1, q3 = quartiles(walls)
    diag = {
        "samples": (len(walls), "count"),
        "wall_min_s": (min(walls), "s"),
        "wall_q1_s": (q1, "s"),
        "wall_q3_s": (q3, "s"),
        "wall_max_s": (max(walls), "s"),
    }
    high = high_percentile(walls)
    if high is not None:
        diag[f"wall_p{high[0]}_s"] = (high[1], "s")
    return {
        "metrics": {
            "wall_s": (wall_s, "s"),
            "records_per_s": (w.records_per_unit / wall_s, "1/s"),
            "cpu_s": (statistics.median(cpus), "s"),
        },
        "diagnostics": diag,
        "samples": {"wall_s": walls, "cpu_s": cpus},
    }


def run_traced(w, check: Checker, n_units: int) -> dict:
    span_rows: list[list] = []
    per_unit: list[dict[str, float]] = []
    walls: list[float] = []
    counters = None
    for i in range(n_units):
        spans = Spans()
        with spans("unit"):
            sample = check.run("traced", w.traced_unit, spans)
            if sample is None:
                continue
            try:
                got = w.counters(spans)
            except Exception:
                traceback.print_exc()
                check.fail("reading the counters failed")
                continue
            walls.append(sample[0])
            # A phase this workload does not have is recorded as an empty
            # span: its metric is the measured cost of doing nothing.
            for name in set(SPAN_NAMES) - {row[0] for row in spans.rows}:
                with spans(name):
                    pass
        if counters is None:
            counters = got
        elif got != counters:
            check.fail("deterministic counters differ between repeats")
        per_unit.append(spans.totals())
        span_rows += [[i, *row] for row in spans.rows]

    prof = cProfile.Profile()
    t0 = time.perf_counter()
    prof.enable()
    try:
        profiled = check.run("traced", w.traced_unit, no_spans)
    finally:
        prof.disable()
    prof_wall = time.perf_counter() - t0
    if not walls or profiled is None:
        return {"metrics": {}, "diagnostics": {}, "spans": span_rows}

    metrics = {
        name: (statistics.median(u[name] for u in per_unit), "s") for name in SPAN_NAMES
    }
    # Shares, not seconds: a share holds still when the machine's speed
    # drifts, and a package that never ran reads 0 % rather than a time of 0.
    buckets = profile_buckets(prof)
    for name, secs in buckets.items():
        metrics[f"prof.{name}.self_pct"] = (100.0 * secs / prof_wall, "%")
    metrics["prof.wall_s"] = (prof_wall, "s")
    ref_wall = statistics.median(walls)
    metrics["trace_overhead_x"] = (prof_wall / ref_wall, "x")
    events = counters["sim.events"]
    counters["sim.events_per_record"] = events / w.traced_records
    for name, value in counters.items():
        # "sim_s": simulated seconds, which repeat exactly, unlike host time
        unit = ("sim_s" if name.endswith("_s") else
                "x" if name.endswith("amplification") else "count")
        metrics[name] = (value, unit)
    metrics["sim.us_per_event"] = (1e6 * metrics["dsmsort.pass1_s"][0] / events, "us")
    return {
        "metrics": metrics,
        "diagnostics": {
            "traced_units": (len(walls), "count"),
            "untraced_wall_s": (ref_wall, "s"),
            "prof_sum_over_wall": (sum(buckets.values()) / prof_wall, "x"),
        },
        "counters": counters,
        "spans": span_rows,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--pins", default=None, help="expected_sim.json to check against ('' = none)")
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, report when ready, and exit (set-up timing)")
    args = ap.parse_args(argv)

    import workloads  # the import is part of the set-up being timed

    pins = workloads.DEFAULT_PINS if args.pins is None else args.pins
    w = workloads.WORKLOADS[args.workload](args.seed, args.smoke, pins)
    out = {"ready_at": time.monotonic()}
    if not args.setup_only:
        check = Checker(w)
        t0 = time.perf_counter()
        check.run("warmup", w.warmup, no_spans)
        warmup_s = time.perf_counter() - t0
        if args.trace:
            out.update(run_traced(w, check, 1 if args.smoke else w.trace_units))
        else:
            out.update(run_timed(w, check, args.seconds, 2 if args.smoke else w.min_units))
        out["diagnostics"]["warmup_s"] = (warmup_s, "s")
        rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                     resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        if not args.trace and out["metrics"]:
            out["metrics"]["peak_rss_mb"] = (rss_kb / 1024.0, "MB")
        out["attempted"] = check.attempted
        out["failed"] = check.failed
        out["sim"] = check.sim("traced" if args.trace else "timed")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
