"""External distribution sort (the partition-and-merge dual, §2.1 / [35]).

Where the merge sort forms runs then merges, distribution sort recursively
*partitions* the input into key-disjoint buckets using sampled splitters
until a bucket fits in memory, then sorts each bucket in place.  This is the
algorithm family behind "Distribution sort with randomized cycling" [35] that
the paper's SR/RC routing policies come from; DSM-Sort's α-way distribute is
its first level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..bte.base import BTE, StreamHandle
from ..functors.distribute import DistributeFunctor, sample_splitters
from ..util.records import sort_records

__all__ = ["distribution_sort", "DistSortStats"]


@dataclass
class DistSortStats:
    n_records: int
    memory_records: int
    fan_out: int
    n_leaf_buckets: int
    max_depth: int


def distribution_sort(
    bte: BTE,
    input_handle: StreamHandle,
    out_name: str,
    memory_records: int = 1 << 16,
    fan_out: int = 8,
    block_records: int = 4096,
    rng: np.random.Generator | None = None,
    tmp_prefix: str = "__dsort_tmp",
) -> tuple[StreamHandle, DistSortStats]:
    """Sort ``input_handle`` into ``out_name`` by recursive distribution."""
    if memory_records < 1:
        raise ValueError("memory_records must be >= 1")
    if fan_out < 2:
        raise ValueError("fan_out must be >= 2")
    rng = rng if rng is not None else np.random.default_rng(0)

    out = bte.create(out_name)
    stats = DistSortStats(
        n_records=bte.length(input_handle),
        memory_records=memory_records,
        fan_out=fan_out,
        n_leaf_buckets=0,
        max_depth=0,
    )
    counter = [0]

    def emit_sorted(handle: StreamHandle) -> None:
        batch = bte.read_all(handle)
        bte.append(out, sort_records(batch))
        stats.n_leaf_buckets += 1

    def recurse(handle: StreamHandle, depth: int) -> None:
        stats.max_depth = max(stats.max_depth, depth)
        n = bte.length(handle)
        if n <= memory_records:
            emit_sorted(handle)
            return
        # Sample splitters from the bucket itself (distribution-adaptive, the
        # property that keeps recursion depth logarithmic under skew).
        sample_n = min(n, fan_out * 64)
        sample = bte.read_at(handle, 0, sample_n)["key"].astype(np.uint64)
        splitters = sample_splitters(sample, fan_out, rng)
        # Degenerate sample (all-equal keys): fall back to an in-place sort
        # of the bucket in bounded chunks via the merge path... here the keys
        # are all equal, so the bucket is already sorted by key.
        if np.unique(splitters).shape[0] != splitters.shape[0]:
            emit_sorted(handle)
            return
        dist = DistributeFunctor(splitters)
        children: list[StreamHandle] = []
        names = []
        for i in range(dist.alpha):
            counter[0] += 1
            name = f"{tmp_prefix}.{counter[0]}"
            names.append(name)
            children.append(bte.create(name))
        pos = 0
        while pos < n:
            block = bte.read_at(handle, pos, block_records)
            pos += block.shape[0]
            for child, piece in zip(children, dist.apply(block)):
                if piece.shape[0]:
                    bte.append(child, piece)
        # Progress guard: if every record landed in one child (possible when
        # a sampled splitter equals the bucket maximum), splitting cannot
        # help — the keys are too concentrated; sort the bucket directly.
        if max(bte.length(c) for c in children) == n:
            for name in names:
                bte.delete(name)
            emit_sorted(handle)
            return
        for name, child in zip(names, children):
            recurse(child, depth + 1)
            bte.delete(name)

    recurse(input_handle, 0)
    return out, stats
