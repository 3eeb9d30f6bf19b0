"""Epoch fencing behind :mod:`repro.dsmsort.membership`'s seam.

:class:`EpochFencing` is the membership side of ``detection_mode="network"``:
a confirmed node may still be alive behind a cut, so confirmation *expels* it
from a :class:`~repro.membership.view.ViewService` (whose epochs fence its
writes and journal appends) and unwinds whatever state of its the cut left in
doubt; a heal re-admits it under a fresh epoch.  The interface is documented
with the engine that calls it (:mod:`repro.dsmsort.membership`); see
docs/PARTITIONS.md, "The membership seam".
"""

from __future__ import annotations

import weakref

from .view import ViewService

__all__ = ["EpochFencing"]


class EpochFencing(ViewService):
    """The view of one FT pass, plus what expulsion and re-admission do."""

    def __init__(self, job):
        D, H = job.params.n_asus, job.params.n_hosts
        super().__init__(
            [f"asu{d}" for d in range(D)] + [f"host{h}" for h in range(H)],
            metrics=job.metrics,
        )
        # Weak: the job owns this object (see RunDurability.__init__).
        self.job = weakref.proxy(job)
        #: expelled ASUs still alive behind a cut: their producers are zombies
        self._fenced_asus: set[int] = set()
        self.n_readmitted = 0
        job._journal.attach_view(self)

    def confirmed(self, node, t) -> None:
        """Expel ``node``; an ASU's zombie ship state is unwound first.

        Dead or alive, the ASU's in-doubt ship state is unwound — every
        fragment it shipped that no host has proven accepted, plus the EOF
        announcements of its shards — so the fenced takeover re-produces
        exactly the data whose delivery the cut left in doubt; the host-side
        accepted-fragment authority dedups whichever copies did land.  An
        expelled host is fenced by the consumer-side dead-host checks (its
        runs drop) and never re-enlisted; the view still records the change
        so epochs stay honest.
        """
        nid = node.node_id
        if nid.startswith("asu"):
            job, d = self.job, node.index
            if node.alive:
                self._fenced_asus.add(d)
            # Stop the retransmission churn into the cut.
            job._net.fence(nid, ("frags", "eof"))
            # A cut leaves even acknowledged-looking history in doubt, so the
            # source is every fragment this node shipped, not just the
            # transfers the transport still holds unacknowledged.
            for entries in job._frag_log.values():
                job._unship(e for e in entries if e.src_node == nid)
            # Re-announce EOF for every shard the node owned: its broadcasts
            # may have died in the cut, and hosts track EOFs as a set of
            # shard ids, so a duplicate announcement is benign while a
            # missing one wedges every host's flush forever.
            for shard, owner in job._shard_owner.items():
                if owner == d:
                    job._eof_posted.discard(shard)
        self.expel(nid, t)

    def readmitted(self, node, t) -> None:
        """A confirmed node's heartbeats resumed: re-admit under a new epoch.

        The fresh admission epoch outranks everything the node stamped while
        expelled, so its queued zombie writes stay rejected forever; from
        here on it is a valid replica target again.  Physical run copies it
        kept through the expulsion are offered back one by one with content
        digests — verified copies are re-adopted (counting toward the
        durable total and pass-2 read steering), divergent ones refused and
        left to anti-entropy.  Expelled *hosts* rejoin the view only: their
        buffered state was replayed to survivors at expulsion, so
        re-enlisting them would double-count.
        """
        job, nid = self.job, node.node_id
        self.admit(nid, t)
        self.n_readmitted += 1
        job._net.peer_back(nid)
        if not nid.startswith("asu"):
            return
        d = node.index
        job._dead_asus.discard(d)
        self._fenced_asus.discard(d)
        delta = job._runs.asu_readmitted(d)
        if delta:
            job._credit_durable(delta)

    def producer_fenced(self, owner, shard) -> bool:
        """Zombie check: an expelled producer, or one whose shard was taken
        over, must stop shipping — expulsion lands in a simulator callback
        (at a yield), so it can never split a marker from its post."""
        return owner in self._fenced_asus or self.job._shard_owner.get(shard) != owner

    def must_reroute(self, h) -> bool:
        """A post into a cut vanishes with no dead-letter: a batch whose
        host was expelled while its producer waited goes elsewhere."""
        return h in self.job._dead_hosts

    def counters(self) -> dict:
        return {
            "n_epoch_rejections": self.n_rejections,
            "n_readmitted": self.n_readmitted,
            "view_epoch": self.epoch,
        }
