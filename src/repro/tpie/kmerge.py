"""Streaming k-way merge over BTE streams.

Merges k sorted runs using bounded buffer memory per run, the kernel of the
external merge sort (§2.1).  The merge is vectorised: each round establishes
a *safe horizon* — the smallest "largest buffered key" across runs — and
emits every buffered record at or below it in one sorted batch.  Every round
fully consumes at least one run buffer, so the pass is O(n log k) compares
with NumPy-speed constants.  The merge is stable: records with equal keys
leave in run order, and within a run in their stored order.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..bte.base import BTE, StreamHandle
from ..util.records import sort_records

__all__ = ["kway_merge_streams", "KMergeCursor"]


class KMergeCursor:
    """Buffered read cursor over one sorted run."""

    __slots__ = ("bte", "handle", "buf", "pos", "buffer_records", "exhausted")

    def __init__(self, bte: BTE, handle: StreamHandle, buffer_records: int):
        self.bte = bte
        self.handle = handle
        self.buffer_records = int(buffer_records)
        self.buf: np.ndarray | None = None
        self.pos = 0
        self.exhausted = False
        self._refill()

    def _refill(self) -> None:
        if self.exhausted:
            return
        if self.buf is None or self.pos >= self.buf.shape[0]:
            batch = self.bte.read_next(self.handle, self.buffer_records)
            if batch.shape[0] == 0:
                self.exhausted = True
                self.buf = None
            else:
                self.buf = batch
                self.pos = 0

    @property
    def active(self) -> bool:
        return not self.exhausted

    def max_buffered_key(self):
        """Largest key currently buffered (runs are sorted)."""
        assert self.buf is not None
        return self.buf["key"][-1]

    def take_upto(self, horizon, side: str = "right") -> np.ndarray:
        """Remove and return buffered records with key <= horizon.

        ``side="left"`` takes the keys strictly below ``horizon`` instead.
        """
        assert self.buf is not None
        keys = self.buf["key"][self.pos :]
        n = int(np.searchsorted(keys, horizon, side=side))
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        self._refill()
        return out


def kway_merge_streams(
    bte: BTE,
    run_handles: Sequence[StreamHandle],
    out_name: str,
    buffer_records: int = 4096,
    out_block_records: Optional[int] = None,
) -> StreamHandle:
    """Merge sorted runs into a new sorted stream ``out_name``.

    Memory use is ``k * buffer_records`` records plus one output block —
    the bounded-buffer property that lets γ-way merges run on ASUs.
    """
    if buffer_records < 1:
        raise ValueError("buffer_records must be >= 1")
    out = bte.create(out_name)
    cursors = [KMergeCursor(bte, h, buffer_records) for h in run_handles]
    cursors = [c for c in cursors if c.active]
    pending: list[np.ndarray] = []
    pending_n = 0
    flush_at = out_block_records or (buffer_records * max(1, len(cursors)))

    while cursors:
        if len(cursors) == 1:
            # Single survivor: stream it straight through.
            c = cursors[0]
            while c.active:
                chunk = c.buf[c.pos :]
                pending.append(chunk)
                pending_n += chunk.shape[0]
                c.pos = c.buf.shape[0]
                c._refill()
                if pending_n >= flush_at:
                    out_batch = np.concatenate(pending)
                    bte.append(out, out_batch)
                    pending, pending_n = [], 0
            break
        tops = [c.max_buffered_key() for c in cursors]
        horizon = min(tops)
        # Equal keys leave in run order.  The first run whose buffer ends at
        # the horizon may hold more of that key past its buffer, so the runs
        # after it keep their horizon keys for a later round.
        pieces = []
        side = "right"
        for c, top in zip(cursors, tops):
            pieces.append(c.take_upto(horizon, side))
            if top == horizon:
                side = "left"
        pieces = [p for p in pieces if p.shape[0]]
        if pieces:
            merged = (
                pieces[0]
                if len(pieces) == 1
                else sort_records(np.concatenate(pieces))
            )
            pending.append(merged)
            pending_n += merged.shape[0]
            if pending_n >= flush_at:
                bte.append(out, np.concatenate(pending))
                pending, pending_n = [], 0
        cursors = [c for c in cursors if c.active]

    if pending:
        bte.append(out, np.concatenate(pending))
    return out
