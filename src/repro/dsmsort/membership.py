"""The membership seam: what a confirmed failure means, and the fail-stop side.

The paper's emulator is fail-stop: a node the detector confirms is dead, and
its processes died with it.  ``detection_mode="network"`` adds a second
meaning — the node may be alive behind a cut (docs/PARTITIONS.md).  The FT
pass decides once — ``job._members`` is
:class:`repro.membership.fencing.EpochFencing`, or :data:`FAIL_STOP` — and
the engine, ``StripedRuns.consume`` and ``ReplicationManager.copy_durable``
then call the same points without asking which they hold.  All are
callback-safe (no yields):

- ``confirmed(node, t)``: the engine just marked ``node`` dead, before its
  own takeover / replay sweep; ``readmitted(node, t)``: a confirmed node's
  heartbeats resumed (only the network detector ever fires this);
- ``producer_fenced(owner, shard)``: must the producer of ``shard`` running
  on ``owner`` stop shipping (checked at the top of every yield-free ship
  region)?
- ``must_reroute(h)``: does a fragment batch bound for confirmed host ``h``,
  whose producer waited on the window or CPU, need a new destination?  A
  post to a crashed host dead-letters and replays; one into a cut vanishes;
- ``validate(nid, token=None, op=)``: the epoch check on a write (raises
  :class:`~repro.faults.errors.StaleEpochError`); ``is_member(nid)``: may
  ``nid`` replay retained data;
- ``counters()`` -> :class:`~repro.dsmsort.runtime.Pass1Result` fields.

The fail-stop side is stateless, so one module-level instance serves every
job: a bare job builds nothing (DESIGN.md decision 6).
"""

from __future__ import annotations

__all__ = ["FailStop", "FAIL_STOP"]


class FailStop:
    """A confirmed node is dead: nothing to fence, nobody comes back."""

    __slots__ = ()

    def confirmed(self, node, t) -> None:
        return None

    readmitted = confirmed

    def producer_fenced(self, owner, shard) -> bool:
        return False

    def must_reroute(self, h) -> bool:
        return False

    def validate(self, nid, token=None, op="write") -> None:
        return None

    def is_member(self, nid) -> bool:
        return True

    def counters(self) -> dict:
        return {"n_epoch_rejections": 0, "n_readmitted": 0, "view_epoch": 0}


FAIL_STOP = FailStop()
