"""Shared configuration for the benchmark harness.

Set ``REPRO_BENCH_SCALE=full`` for paper-scale runs (slower); the default
``quick`` scale keeps the whole suite a few minutes while preserving every
qualitative shape.
"""

import os

import pytest

SCALE = os.environ.get("REPRO_BENCH_SCALE", "quick")


def bench_n(quick: int, full: int) -> int:
    return full if SCALE == "full" else quick


def bench_workers() -> int:
    """Worker processes for multi-seed sweeps inside benchmarks.

    Benchmarks time wall-clock, so their seed sweeps stay **serial by
    default** — one process gives comparable numbers across machines.  Set
    ``REPRO_BENCH_WORKERS`` to fan seed sweeps out via
    :func:`repro.bench.parallel.parallel_map` (results are merged in seed
    order, so every BENCH_*.json stays byte-identical at any worker count).
    The exception is ``bench_fig9_speedup.py``: ``run_figure9`` fans its
    distinct cells out across the usable CPUs itself, unless
    ``REPRO_BENCH_WORKERS=1``; its BENCH_fig9_speedup.json is the same
    either way.
    """
    if os.environ.get("REPRO_BENCH_WORKERS"):
        from repro.bench.parallel import resolve_workers

        return resolve_workers(None)
    return 1


@pytest.fixture
def once(benchmark):
    """Run the benched callable exactly once (emulations are deterministic)."""
    benchmark.pedantic  # ensure plugin present

    def run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, iterations=1, rounds=1)

    return run
