"""External merge sort over a BTE (the TPIE sorting primitive, §2.1).

Run formation reads memory-sized chunks, sorts them (N log M work), and
spills each as a sorted run; merge passes then reduce the runs with fan-in
``gamma`` until one remains.  I/O cost follows the
(N/B) * ceil(log_{M/B}(N/M)) + N/B shape of the Aggarwal–Vitter bound — the
bench harness checks the pass count against that formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..bte.base import BTE, StreamHandle
from ..util.records import sort_records
from .kmerge import kway_merge_streams

__all__ = ["external_sort", "SortStats"]


@dataclass
class SortStats:
    """What the sort did: run and pass counts for I/O-complexity checks."""

    n_records: int
    memory_records: int
    fan_in: int
    n_initial_runs: int
    n_merge_passes: int

    def expected_merge_passes(self) -> int:
        """ceil(log_gamma(#runs)) — the analytic pass count."""
        if self.n_initial_runs <= 1:
            return 0
        return max(1, math.ceil(math.log(self.n_initial_runs, self.fan_in)))


def external_sort(
    bte: BTE,
    input_handle: StreamHandle,
    out_name: str,
    memory_records: int = 1 << 16,
    fan_in: int = 8,
    buffer_records: int = 1024,
    tmp_prefix: str = "__sort_tmp",
) -> tuple[StreamHandle, SortStats]:
    """Sort ``input_handle`` into a new stream ``out_name``.

    ``memory_records`` is M (run length), ``fan_in`` is the merge order.
    Temporary run streams are deleted as they are consumed.
    """
    if memory_records < 1:
        raise ValueError("memory_records must be >= 1")
    if fan_in < 2:
        raise ValueError("fan_in must be >= 2")

    n_total = bte.length(input_handle)

    # --- run formation ----------------------------------------------------
    run_names: list[str] = []
    pos = 0
    while pos < n_total:
        chunk = bte.read_at(input_handle, pos, memory_records)
        pos += chunk.shape[0]
        run = sort_records(chunk)
        name = f"{tmp_prefix}.run0.{len(run_names)}"
        bte.write_all(name, run)
        run_names.append(name)
    n_initial_runs = len(run_names)

    if n_initial_runs == 0:
        out = bte.create(out_name)
        return out, SortStats(0, memory_records, fan_in, 0, 0)

    # --- merge passes ---------------------------------------------------------
    n_passes = 0
    level = 0
    while len(run_names) > 1:
        n_passes += 1
        level += 1
        next_names: list[str] = []
        for gi in range(0, len(run_names), fan_in):
            group = run_names[gi : gi + fan_in]
            handles = [bte.open(n) for n in group]
            merged_name = f"{tmp_prefix}.run{level}.{len(next_names)}"
            kway_merge_streams(bte, handles, merged_name, buffer_records=buffer_records)
            for n in group:
                bte.delete(n)
            next_names.append(merged_name)
        run_names = next_names

    # --- publish ---------------------------------------------------------------
    final_name = run_names[0]
    final = bte.open(final_name)
    # Rename by copy (BTEs have no rename primitive).
    out = bte.create(out_name)
    block = max(buffer_records, 4096)
    while not bte.at_end(final):
        bte.append(out, bte.read_next(final, block))
    bte.delete(final_name)
    stats = SortStats(
        n_records=n_total,
        memory_records=memory_records,
        fan_in=fan_in,
        n_initial_runs=n_initial_runs,
        n_merge_passes=n_passes,
    )
    return out, stats
