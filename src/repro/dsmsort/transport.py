"""The transport seam of fault-tolerant run formation.

The pass-1 engine (:mod:`repro.dsmsort.runtime`) decides *what* moves between
hosts and ASUs; *how* it moves — straight onto the paper's lossless network
(§5), or through seq/ack/retransmit endpoints that mask an unreliable one —
is the job's transport: :class:`DirectTransport` here, or
:class:`repro.resilience.transport.ReliableTransport`.  The engine builds one
from ``transport=`` and never asks again which it holds; the filter-scan app
(:mod:`repro.apps.filterscan`) runs on the same seam.  ``(gen)`` entry
points run inside the calling process, the rest are callback-safe:

- ``recv(node)`` (gen) the next application message; ``send(node, dst,
  payload, nbytes, tag)`` (gen) a send from ``node``'s process, which pays
  the per-byte copy on ``node``'s CPU (and, reliably, waits for credit);
  ``post(src, dst, payload, nbytes, tag)`` a non-blocking send;
- ``wait_window(src, dst, load_manager, instance, n_records)`` (gen): flow
  control before a fragment batch; a transport that can stall reports the
  stall to the load manager itself, one that cannot reports nothing;
- ``reader(asu, sizes)`` -> the shard's input reads, one per block:
  ``arrive()`` (gen) before the engine checks its block markers, ``fetch(
  nbytes)`` (gen) after.  A prefetched read has been issued (and must be
  consumed) before the engine knows whether it wants the block, a retried
  read is issued only once it does, so the two sit on opposite sides of that
  check;
- ``healthy(src, dst)``: False steers routing and striping off the link;
- ``peer_lost(nid)`` -> the dead node's in-doubt transfers (posted, never
  acknowledged) as ``(dst, tag, payload)``; ``peer_back(nid)``: re-admitted;
  ``fence(nid, tags)``: an expelled-but-alive node stops resending ``tags``;
- ``sender_for(src, eligible)`` -> the node to replay ``src``'s retained
  data from (``eligible(node_id)`` is the engine's membership test);
- ``counters()`` -> ``channel_stats`` and ``n_breaker_trips``, fields of
  :class:`~repro.dsmsort.runtime.Pass1Result` and of the filter-scan result.

Both are built with one ``undeliverable(dst, tag, payload)`` callback: the
single place the engine hears that a message it posted will never arrive
(the filter-scan, which has no recovery, leaves it at the default no-op).

See docs/RESILIENCE.md, "The transport seam".
"""

from __future__ import annotations

from ..emulator.readahead import ReadAhead

__all__ = ["DirectTransport"]


class _PrefetchedReads:
    """Read-ahead over one shard's pending blocks."""

    def __init__(self, plat, asu, sizes):
        self._ra = ReadAhead(plat, asu, sizes)

    def arrive(self):
        yield self._ra.wait_next()

    def fetch(self, nbytes):
        return ()  # arrive() already waited for the bytes


class DirectTransport:
    """Posts straight onto the lossless network: a message is lost only by
    reaching a fail-stopped node, and nothing is ever in doubt."""

    def __init__(self, plat, undeliverable=lambda dst, tag, payload: None):
        self._plat = plat
        plat.network.dead_letter_hook = lambda m: undeliverable(m.dst, m.tag, m.payload)

    def recv(self, node):
        return node.recv()

    def send(self, node, dst, payload, nbytes, tag):
        return node.send_async(dst, payload, nbytes, tag=tag)

    def post(self, src, dst, payload, nbytes, tag) -> None:
        self._plat.network.post(src, dst, payload, nbytes, tag=tag)

    def wait_window(self, src, dst, load_manager, instance, n_records):
        # No window, no stall — and no report: a begin/end pair would still
        # move the load manager's gauge high-water marks in metered exports.
        return ()

    def reader(self, asu, sizes):
        return _PrefetchedReads(self._plat, asu, sizes)

    def healthy(self, src, dst) -> bool:
        return True

    def peer_lost(self, nid) -> list:
        return []

    def peer_back(self, nid) -> None:
        pass

    def fence(self, nid, tags) -> None:
        pass

    def sender_for(self, src, eligible):
        return src  # the wire does not care that ``src`` is gone

    def counters(self) -> dict:
        return {"channel_stats": None, "n_breaker_trips": 0}
