"""The γ-way merge functor (DSM-Sort step 3, §4.3).

"Use a γ-way merge to form sorted runs striped across the ASUs.  The ASU
buffer space restricts γ."  Cost: log2(γ) comparisons per record (a loser
tree / heap of γ run heads).  The merge may be split between hosts and ASUs
so that γ1·γ2 = γ.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..containers.packet import Packet
from ..util.records import DEFAULT_SCHEMA, sort_records, stable_key_order
from ..util.validation import check_sorted
from .base import Functor, FunctorError

__all__ = ["MergeFunctor", "merge_sorted_batches"]


def merge_sorted_batches(batches: Sequence[np.ndarray], verify: bool = False) -> np.ndarray:
    """K-way merge of sorted record batches into one sorted batch.

    Same bytes as a stable sort of the concatenation — ties go to the earlier
    batch, like a loser tree that breaks ties by run number.  The order is
    decided on the concatenated *keys* (:func:`stable_key_order`, 1/32 of the
    data for the paper's records); inverting it says where each input record
    lands, so every batch is placed straight into the output and each record
    moves once.  ``verify`` asserts input runs are sorted first.
    """
    given = list(batches)
    batches = [b for b in given if b.shape[0]]
    if not batches:
        return given[0][:0] if given else np.empty(0, dtype=DEFAULT_SCHEMA.dtype)
    if verify:
        for i, b in enumerate(batches):
            check_sorted(b, what=f"merge input run {i}")
    if len(batches) == 1:
        return batches[0]
    dtype = batches[0].dtype
    if not dtype.names or any(b.dtype != dtype for b in batches):
        return sort_records(np.concatenate(batches))  # NumPy picks the dtype
    order = stable_key_order(np.concatenate([b["key"] for b in batches]))
    n = order.shape[0]
    dest = np.empty(n, dtype=np.intp)
    dest[order] = np.arange(n, dtype=np.intp)
    out = np.empty(n, dtype=dtype)
    at = 0
    for b in batches:
        out.put(dest[at : at + b.shape[0]], b)
        at += b.shape[0]
    return out


class MergeFunctor(Functor):
    """Merges up to γ sorted inputs into one sorted output."""

    name = "merge"
    verified_kernel = True
    replicable = False  # a single merge owns a total order; instances cannot
                        # share one output without violating ordering

    def __init__(self, gamma: int, buffer_records: int | None = None):
        if gamma < 1:
            raise FunctorError("gamma must be >= 1")
        self.gamma = int(gamma)
        self.buffer_records = buffer_records
        self.name = f"merge:{self.gamma}"

    @property
    def n_inputs(self) -> int:  # type: ignore[override]
        return self.gamma

    def compares_per_record(self) -> float:
        return math.log2(self.gamma) if self.gamma > 1 else 0.0

    def state_bytes(self) -> float:
        # γ input buffers of one block each (the ASU-memory bound on γ).
        per_buf = self.buffer_records if self.buffer_records else 1024
        return float(self.gamma * per_buf * 128)

    def apply(self, batch: np.ndarray) -> list[np.ndarray]:
        """Single-input degenerate case: pass through (already sorted)."""
        return [batch]

    def merge(self, runs: Sequence[np.ndarray], verify: bool = False) -> np.ndarray:
        """Merge up to γ sorted runs; raises if handed more than γ."""
        if len(runs) > self.gamma:
            raise FunctorError(
                f"merge:{self.gamma} handed {len(runs)} runs; split the merge "
                f"into passes (γ1·γ2 = γ)"
            )
        return merge_sorted_batches(runs, verify=verify)

    def merge_packets(self, packets: Sequence[Packet], verify: bool = False) -> Packet:
        """Merge sorted packets into one sorted packet (mark preserved)."""
        for p in packets:
            if verify and not p.sorted:
                raise FunctorError(f"packet {p!r} not marked sorted")
        out = self.merge([p.batch for p in packets], verify=verify)
        return Packet(out, meta={"sorted": True})

    def plan_passes(self, n_runs: int) -> int:
        """Number of merge passes needed for ``n_runs`` at fan-in γ.

        Matches the ceil(log_γ N/M) term of the I/O sorting bound (§2.1).
        """
        if n_runs <= 1:
            return 0
        if self.gamma < 2:
            raise FunctorError("cannot reduce runs with fan-in < 2")
        return max(1, math.ceil(math.log(n_runs, self.gamma)))
