"""Command-line entry point: regenerate the paper's figures, run the soaks.

``python -m repro --help`` lists the targets and every option (each option's
help names the targets that read it).  The target list is generated from
:func:`_targets`, the one dispatch table, so it cannot drift from what runs.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable


def _targets() -> dict[str, Callable]:
    """target -> handler(args, n_records) returning the exit code."""
    from .bench.soak import SWEEPS

    figures = ("fig9", "fig10", "sweep-c", "sweep-routing", "sweep-gamma")
    return {
        **dict.fromkeys(figures, _run_figures),
        "trace": _run_trace,
        "metrics": _run_metrics,
        "chaos": _run_chaos,
        **dict.fromkeys(SWEEPS, _run_sweep),
        "serve": _run_serve,
        "critpath": _run_critpath,
        "all": _run_figures,
    }


def main(argv: list[str] | None = None) -> int:
    targets = _targets()
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate figures from 'Distributed Computing with "
        "Load-Managed Active Storage' (HPDC 2002).",
    )
    parser.add_argument(
        "target", choices=list(targets), help="which experiment to run",
    )
    parser.add_argument(
        "--n", type=int, default=17, metavar="LOG2",
        help="log2 of the record count (default 17)",
    )
    parser.add_argument(
        "--c", type=float, default=8.0,
        help="host:ASU CPU power ratio for fig9 (default 8)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="workload/routing seed: trace, metrics, critpath, serve, and the "
        "reference + every case of recover/replicate/partition (default 0)",
    )
    parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="output path (default <target>_report.json for the soaks, "
        "trace.json, metrics.json, critpath_blame.json)",
    )
    parser.add_argument(
        "--interval", type=float, default=0.01, metavar="DT",
        help="metrics: scrape interval in virtual seconds (default 0.01)",
    )
    parser.add_argument(
        "--prom", default=None, metavar="PATH",
        help="metrics: also write a Prometheus text exposition file",
    )
    parser.add_argument(
        "--seeds", type=int, default=12, metavar="K",
        help="chaos: number of fault-schedule seeds; recover/replicate: "
        "number of kill instants (default 12)",
    )
    parser.add_argument(
        "--seed0", type=int, default=0,
        help="chaos: first fault-schedule seed (default 0)",
    )
    parser.add_argument(
        "--apps", default="dsmsort,filterscan", metavar="LIST",
        help="chaos: comma-separated app list (default dsmsort,filterscan)",
    )
    parser.add_argument(
        "--amp-bound", type=float, default=3.5, metavar="X",
        help="chaos: max allowed retry amplification (default 3.5)",
    )
    parser.add_argument(
        "--no-negative-control", action="store_true",
        help="chaos: skip the retries-disabled loss demonstration",
    )
    parser.add_argument(
        "--list-apps", action="store_true",
        help="chaos: list the registered chaos apps and exit",
    )
    parser.add_argument(
        "--workers", type=int, default=None, metavar="W",
        help="chaos/recover/replicate/partition: worker processes for the "
        "sweep (default REPRO_BENCH_WORKERS or the CPU count; results are "
        "merged in sweep order, so the report is identical for any worker "
        "count)",
    )
    parser.add_argument(
        "--jobs", type=int, default=80, metavar="N",
        help="serve: submissions per offered-load level (default 80)",
    )
    parser.add_argument(
        "--policies", default="fifo,fair,priority", metavar="LIST",
        help="serve: comma-separated queue policies (default fifo,fair,priority)",
    )
    parser.add_argument(
        "--loads", default="0.5,1.2,3.0", metavar="LIST",
        help="serve: offered load as multiples of fleet capacity "
        "(default 0.5,1.2,3.0)",
    )
    parser.add_argument(
        "--folded", default=None, metavar="PATH",
        help="critpath: also write the folded-stack flamegraph input file",
    )
    parser.add_argument(
        "--what-if", default=None, metavar="SPEC", dest="what_if",
        help="critpath: comma-separated bucket=factor speedups to replay "
        "through the graph (e.g. disk=2.0)",
    )
    parser.add_argument(
        "--validate", action="store_true",
        help="critpath: re-run with scaled params and report the what-if "
        "prediction error (disk/cpu buckets only)",
    )
    parser.add_argument(
        "--serve", action="store_true",
        help="critpath: profile a multi-tenant scheduler cell (with SLO "
        "burn-rate alerts) instead of a single sort",
    )
    args = parser.parse_args(argv)
    return targets[args.target](args, 1 << args.n)


def _run_figures(args, n: int) -> int:
    """One figure or ablation table, or with ``all`` every one in turn."""
    from .bench import (
        run_figure9,
        run_figure10,
        sweep_c,
        sweep_gamma_split,
        sweep_routing,
    )

    figures = {
        "fig9": lambda: run_figure9(n_records=n, c=args.c),
        "fig10": lambda: run_figure10(n_records=n),
        "sweep-c": lambda: sweep_c(n_records=min(n, 1 << 17)),
        "sweep-routing": lambda: sweep_routing(n_records=min(n, 1 << 17)),
        "sweep-gamma": lambda: sweep_gamma_split(n_records=min(n, 1 << 16)),
    }
    if args.target != "all":
        figures = {args.target: figures[args.target]}
    for name, fn in figures.items():
        if args.target == "all":
            print(f"=== {name} ===")
        print(fn().render())
    return 0


def _run_chaos(args, n: int) -> int:
    """Chaos soak: seeded random fault schedules vs. end-to-end invariants.

    Writes the canonical ChaosReport JSON artifact and exits nonzero if any
    invariant was violated, so CI can gate on it directly.
    """
    from .resilience.chaos import list_chaos_apps, run_chaos

    if args.list_apps:
        for name, summary in list_chaos_apps():
            print(f"{name:12s} {summary}")
        return 0
    apps = tuple(a.strip() for a in args.apps.split(",") if a.strip())
    report = run_chaos(
        seeds=args.seeds,
        apps=apps,
        n_records=n,
        amp_bound=args.amp_bound,
        negative_control=not args.no_negative_control,
        seed0=args.seed0,
        progress=print,
        workers=args.workers,
    )
    out = args.out or "chaos_report.json"
    report.write(out)
    print()
    print(report.render())
    print(f"wrote chaos report to {out}")
    return 0 if report.ok else 1


def _run_sweep(args, n: int) -> int:
    """Soak sweep (recover / replicate / partition): see repro.bench.soak."""
    from .bench.soak import SWEEPS, run_sweep

    return run_sweep(
        SWEEPS[args.target], n, args.seed, args.seeds,
        args.out or f"{args.target}_report.json", workers=args.workers,
    )


def _run_serve(args, n: int) -> int:
    """Multi-tenant serving sweep: queue policies across rising offered load.

    Runs the default 3-tenant, mixed-app scenario under each policy at each
    offered-load factor and writes the canonical ServeReport JSON (same
    seed -> byte-identical file).  Exits nonzero if any admitted job
    vanished (every submission must end rejected, failed, or done).
    """
    from .sched import run_serve

    policies = tuple(p for p in args.policies.split(",") if p)
    try:
        loads = tuple(float(x) for x in args.loads.split(",") if x)
    except ValueError:
        print(f"error: --loads must be comma-separated numbers, got "
              f"{args.loads!r}", file=sys.stderr)
        return 2
    try:
        report = run_serve(
            policies=policies, load_factors=loads,
            n_jobs=args.jobs, seed=args.seed,
        )
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(report.render())
    ok = all(
        c["n_jobs"] == c["n_rejected"] + c["n_failed"] + c["n_completed"]
        for c in report.cells
    )
    out = args.out or "serve_report.json"
    report.write(out)
    accounted = "all jobs accounted for" if ok else "JOBS LOST"
    print(f"{'PASS' if ok else 'FAIL'}: {len(report.cells)} cells, "
          f"{accounted} -> {out}")
    return 0 if ok else 1


def _run_critpath(args, n: int) -> int:
    """Causal critical-path profile: blame buckets, flamegraph, timeline.

    Sort mode traces a two-pass DSM-Sort on a small Figure-9 cell; serve
    mode profiles one multi-tenant scheduler cell with SLO burn-rate
    monitoring attached.  The blame JSON and folded-stack outputs are
    byte-deterministic for a given (n, seed).
    """
    from .obs import folded_stacks, render_timeline, run_critpath, run_critpath_serve

    what_if = None
    if args.what_if:
        what_if = {}
        try:
            for part in args.what_if.split(","):
                bucket, factor = part.split("=")
                what_if[bucket.strip()] = float(factor)
        except ValueError:
            print(f"error: --what-if expects bucket=factor[,...], got "
                  f"{args.what_if!r}", file=sys.stderr)
            return 2
    if args.validate and not what_if:
        what_if = {"disk": 2.0}

    if args.serve:
        report, graph, _serve = run_critpath_serve(
            n_jobs=args.jobs, seed=args.seed
        )
    else:
        n = min(n, 1 << 14)  # a traced cell, not a benchmark sweep
        report, graph = run_critpath(
            n, seed=args.seed, what_if=what_if, validate=args.validate
        )
    print(report.render())
    print(render_timeline(graph))
    out = args.out or "critpath_blame.json"
    report.write(out)
    print(f"wrote blame vector to {out}")
    if args.folded:
        with open(args.folded, "w") as fh:
            fh.write(folded_stacks(graph))
        print(f"wrote folded stacks to {args.folded}")
    return 0


def _observed_sort(args, n: int, **observers):
    """Two-pass sort on a small 4-ASU / 2-host platform with ``observers``
    (tracer, metrics registry, ...) attached; prints and returns the passes."""
    from .bench import fig10_params
    from .core.config import ConfigSolver
    from .dsmsort import DsmSortJob

    params = fig10_params(n_asus=4, n_hosts=2)
    config = ConfigSolver(params).config_for_alpha(n, 16)
    job = DsmSortJob(params, config, policy="sr", seed=args.seed, **observers)
    r1 = job.run_pass1()
    r2 = job.run_pass2()
    job.verify()
    print(f"sorted {n} records in {r1.makespan + r2.makespan:.3f}s "
          f"(pass1 {r1.makespan:.3f}s, pass2 {r2.makespan:.3f}s)")
    return r1, r2


def _run_trace(args, n: int) -> int:
    """Run a traced DSM-Sort (both passes) and export the observability data.

    The trace is deterministic for a given (n, seed), so two identical
    invocations write byte-identical JSON.
    """
    from .trace import ProfileReport, Tracer, write_chrome_trace

    tracer = Tracer()
    r1, r2 = _observed_sort(args, n, tracer=tracer)
    out = args.out or "trace.json"
    write_chrome_trace(tracer, out)
    print(f"wrote {tracer.n_events()} trace events to {out}")
    print()
    print(ProfileReport.from_tracer(
        tracer, makespan=r1.makespan + r2.makespan
    ).render())
    return 0


def _run_metrics(args, n: int) -> int:
    """Run a metered DSM-Sort (both passes) and summarise the registry.

    Same platform as ``trace``, on a skewed workload, with the metrics
    registry attached: every queue depth, device utilization, and stage
    latency lands in instruments, scraped each ``interval`` virtual
    seconds.  Deterministic: same (n, seed, interval) writes a
    byte-identical metrics JSON.
    """
    import math

    from .bench.report import render_table
    from .metrics import MetricsRegistry, metrics_json, prometheus_text

    registry = MetricsRegistry()
    _r1, r2 = _observed_sort(
        args, n, metrics=registry, scrape_interval=args.interval,
        workload="half_uniform_half_exponential",
    )
    collector = registry.collector
    out = args.out or "metrics.json"
    with open(out, "w") as fh:
        fh.write(metrics_json(registry, collector))
        fh.write("\n")
    print(f"{len(registry)} instruments, {collector.n_samples()} samples "
          f"at dt={collector.interval}s -> {out}")
    if args.prom:
        with open(args.prom, "w") as fh:
            fh.write(prometheus_text(registry, t=r2.makespan))
        print(f"wrote Prometheus text exposition to {args.prom}")

    # -- top queues by peak depth -----------------------------------------
    queues = [
        (inst.hwm, inst.labels.get("queue", inst.key))
        for inst in registry.instruments()
        if inst.kind == "gauge" and inst.name == "repro_queue_depth"
    ]
    queues.sort(key=lambda x: (-x[0], x[1]))
    print()
    print(render_table(
        ["queue", "peak depth"],
        [[name, f"{hwm:.0f}"] for hwm, name in queues[:8]],
        title="top queues by peak depth",
    ))

    # -- per-device mean utilization (over the scraped series) ------------
    def series_mean(key: str) -> float:
        pts = collector.series.get(key, [])
        vals = [v for _t, v in pts if not math.isnan(v)]
        return sum(vals) / len(vals) if vals else 0.0

    rows = []
    for inst in registry.instruments():
        if inst.name == "repro_cpu_utilization":
            rows.append([inst.labels["node"], "cpu", f"{series_mean(inst.key):.3f}"])
        elif inst.name == "repro_disk_utilization":
            rows.append([inst.labels["node"], "disk", f"{series_mean(inst.key):.3f}"])
    rows.sort()
    print()
    print(render_table(
        ["device", "kind", "mean util"], rows,
        title="per-device utilization (mean of scraped samples)",
    ))

    # -- per-stage record latency quantiles --------------------------------
    rows = []
    for inst in registry.instruments():
        if inst.kind == "histogram" and inst.name == "repro_stage_record_latency_seconds":
            rows.append([
                inst.labels.get("stage", "?"),
                inst.count,
                f"{inst.quantile(0.50) * 1e6:.2f}",
                f"{inst.quantile(0.95) * 1e6:.2f}",
                f"{inst.quantile(0.99) * 1e6:.2f}",
            ])
    rows.sort()
    print()
    print(render_table(
        ["stage", "records", "p50 (us)", "p95 (us)", "p99 (us)"], rows,
        title="per-stage record latency",
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
