"""Process-parallel seed sweeps with deterministic merge order.

Multi-case soaks (``repro chaos`` and the :mod:`repro.bench.soak` sweeps) and
the distinct cells of Figure 9 (:func:`repro.bench.fig9.run_figure9`) run
one independent emulation per case; :func:`parallel_map` fans those cases out
across worker processes and returns the results **in input order**, so a
report assembled from them is byte-identical to the sequential run no matter
which worker finishes first.  Parallelism only changes wall-clock, never results: each
case runs a whole deterministic simulation inside one process with no shared
state.

Worker count resolution, in priority order:

1. explicit ``workers=`` argument;
2. ``REPRO_BENCH_WORKERS`` environment variable;
3. the usable CPUs: ``len(os.sched_getaffinity(0))`` where the platform has
   it, else ``os.cpu_count()`` — a process pinned to one CPU (``taskset -c
   0``) gets one worker, however many CPUs the host has.

A resolved count of 1 (or a single-item sweep) degrades to a plain in-process
``map`` — single-core environments take the exact sequential path.  The pool
is opened and joined inside each call, so every worker is reaped before
:func:`parallel_map` returns and its CPU time is counted in the caller's
``RUSAGE_CHILDREN``.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, Optional, Sequence, TypeVar

__all__ = ["parallel_map", "resolve_workers"]

_T = TypeVar("_T")
_R = TypeVar("_R")


def resolve_workers(workers: Optional[int] = None) -> int:
    """Resolve the worker-process count (see module docstring)."""
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get("REPRO_BENCH_WORKERS")
    if env:
        return max(1, int(env))
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return max(1, os.cpu_count() or 1)


def parallel_map(
    fn: Callable[[_T], _R],
    items: Iterable[_T],
    workers: Optional[int] = None,
) -> list[_R]:
    """``[fn(x) for x in items]`` across processes, results in input order.

    ``fn`` and every item must be picklable (``fn`` a module-level
    function).  Exceptions raised in a worker propagate to the caller, as
    in the sequential path.
    """
    seq: Sequence[_T] = list(items)
    n = resolve_workers(workers)
    if n <= 1 or len(seq) <= 1:
        return [fn(item) for item in seq]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(n, len(seq))) as pool:
        # Executor.map preserves input order regardless of completion order.
        return list(pool.map(fn, seq, chunksize=1))
