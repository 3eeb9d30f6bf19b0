"""r-way run replication: write fan-out, promotion, and anti-entropy repair.

The fault-tolerant DSM-Sort pass recovers a dead ASU's runs by *re-emitting*
them from the host-side lineage — correct, but the recovery traffic re-ships
every lost byte through a host NIC.  With ``replication=`` configured, each
emitted run is written through the emulated disks to ``r`` replica ASUs
chosen by the deterministic :class:`~repro.replica.placement.ReplicaPlacement`
function, and an ASU crash becomes *promotion*: the surviving copies are
already durable, the durable-record account does not move, and the job
continues with zero run re-emission (PAPERS.md -> the mean-field replication
model: repair bandwidth, not replay bandwidth, is the recovery currency).

The :class:`ReplicationManager` owns the logical view (``ReplicaSet`` per
emitted run) while ``runs_on_asu`` keeps holding the physical copies.  Its
account is invariant-driven: a set is *counted* toward the job's durable
total exactly when every currently-planned replica holds a durable copy, so
crashes re-derive counting instead of patching it.

Read steering (the pass-2 plan and repair sources) runs over registry gauge
vectors — the same feedback mechanism the load manager routes functor work
with (:func:`repro.core.routing.pick_least_loaded`).
"""

from __future__ import annotations

from itertools import islice
from typing import Optional

from ..core.routing import pick_least_loaded
from ..dsmsort.journal import NO_JOURNAL
from ..dsmsort.membership import FAIL_STOP
from .placement import ReplicaPlacement

__all__ = ["ReplicaSet", "ReplicationConfig", "ReplicationManager"]

class ReplicationConfig:
    """How a job replicates its runs.

    ``r`` copies per run, a run counting as durable once every planned
    replica holds it; the anti-entropy loop re-replicates under-replicated
    sets every ``repair_interval`` virtual seconds, pacing itself to
    ``repair_bandwidth`` bytes/s (``None`` derives a default from the
    platform disk rate) so repair traffic shares the fleet instead of
    stampeding it.
    """

    def __init__(
        self,
        r: int = 2,
        repair_interval: float = 0.05,
        repair_bandwidth: Optional[float] = None,
    ):
        if r < 1:
            raise ValueError(f"replication factor must be >= 1, got {r}")
        if repair_interval <= 0:
            raise ValueError("repair_interval must be positive")
        if repair_bandwidth is not None and repair_bandwidth <= 0:
            raise ValueError("repair_bandwidth must be positive")
        self.r = int(r)
        self.repair_interval = float(repair_interval)
        self.repair_bandwidth = repair_bandwidth

    def __repr__(self) -> str:
        return f"ReplicationConfig(r={self.r})"


class ReplicaSet:
    """Logical state of one replicated run."""

    __slots__ = (
        "key", "src_host", "bucket", "run", "rid", "targets", "copies",
        "counted", "journal_dest", "repair_inflight",
    )

    def __init__(self, key, src_host, bucket, run, rid, targets):
        self.key = key
        self.src_host = src_host
        self.bucket = bucket
        self.run = run
        self.rid = rid
        #: planned-but-not-yet-durable replica holders (in flight)
        self.targets: set[int] = set(targets)
        #: ASUs holding a durable copy
        self.copies: set[int] = set()
        #: whether this set currently contributes to the durable total
        self.counted = False
        #: ASU whose manifest entry records this run (checkpointed runs)
        self.journal_dest: Optional[int] = None
        #: repair destinations in flight (for the repaired-copies counter)
        self.repair_inflight: set[int] = set()


class ReplicationManager:
    """Tracks every :class:`ReplicaSet` of one fault-tolerant pass.

    Mutating entry points run inside the runtime's yield-free regions or
    simulator callbacks, so state transitions are atomic with the network
    posts they describe — a fail-stop can never half-record one.
    """

    def __init__(
        self,
        config: ReplicationConfig,
        n_asus: int,
        *,
        registry=None,
        journal=NO_JOURNAL,
        tracer=None,
        job_labels: Optional[dict] = None,
    ):
        if registry is None:
            # Steering needs the gauge arrays even when the job is unmetered.
            from ..metrics.registry import MetricsRegistry

            registry = MetricsRegistry()
        self.config = config
        self.n_asus = int(n_asus)
        #: the job's journal (:mod:`repro.dsmsort.journal`); the null side
        #: by default, so the state machine logs without asking
        self.journal = journal
        self.tracer = tracer
        self.placement = ReplicaPlacement(n_asus)
        self.sets: dict[tuple, ReplicaSet] = {}
        self._dead: set[int] = set()
        self._seq = 0
        #: the job's membership (:mod:`repro.dsmsort.membership`) fencing
        #: replica writes, set by the owner; fail-stop trust by default
        self.members = FAIL_STOP
        labels = job_labels or {}
        self._gv_copies = registry.gauge_vector(
            "repro_replica_copies", n_asus, index_label="asu", **labels
        )
        self._gv_read = registry.gauge_vector(
            "repro_replica_read_bytes", n_asus, index_label="asu", **labels
        )
        # Derived at scrape time, off every mutation path.
        registry.gauge(
            "repro_replica_underreplicated",
            fn=lambda t: float(len(self.under_replicated_keys())),
            **labels,
        )
        self._c_promoted = registry.counter(
            "repro_replica_promotions_total", **labels
        )
        self._c_repaired = registry.counter(
            "repro_replica_repairs_total", **labels
        )
        self._c_lost = registry.counter("repro_replica_lost_total", **labels)
        self._c_retargeted = registry.counter(
            "repro_replica_retargeted_total", **labels
        )
        #: per-host queues of sets needing a fresh emit (drained by the
        #: detection sweep into host control messages)
        self.pending_reemits: dict[int, list[tuple]] = {}
        # exposed counters (mirrored into Pass1Result)
        self.n_promoted_runs = 0
        self.n_repaired_copies = 0
        self.n_retargeted_copies = 0
        self.n_divergent_copies = 0

    # -- counting invariant ---------------------------------------------------
    def _needed(self, st: ReplicaSet) -> int:
        return max(1, len(st.copies | st.targets))

    def _recount(self, st: ReplicaSet) -> int:
        """Re-derive ``counted``; returns the durable-record delta."""
        now_counted = bool(st.copies) and len(st.copies) >= self._needed(st)
        if now_counted == st.counted:
            return 0
        st.counted = now_counted
        n = int(st.run.shape[0])
        return n if now_counted else -n

    def _under_replicated(self, st: ReplicaSet) -> bool:
        want = min(self.config.r, self.n_asus - len(self._dead))
        return len(st.copies | st.targets) < want

    def _candidates(self, shard_key: int, st: Optional[ReplicaSet] = None):
        """Alive ASUs by placement rank, minus ``st``'s holders and targets.

        Lazy: the placement ranks only as deep as the caller consumes, and
        every caller wants the first one or two survivors.  The order is the
        full ranking's (``ranked`` is the walk ``replicas`` slices), so a
        pick is the same ASU either way at a fraction of the draws.
        """
        for d in self.placement.ranked(shard_key):
            if d in self._dead:
                continue
            if st is not None and (d in st.copies or d in st.targets):
                continue
            yield d

    # -- write path -----------------------------------------------------------
    def register_emit(self, src_host, bucket, run, rid=None):
        """Create the set for a freshly emitted run; returns (key, targets).

        Call in the same yield-free region as the posts: the targets are
        planned against the dead set of that instant.
        """
        key = (0, src_host, self._seq)
        want = min(self.config.r, self.n_asus - len(self._dead))
        targets = list(
            islice(self._candidates((src_host << 24) | self._seq), max(1, want))
        )
        self._seq += 1
        st = ReplicaSet(key, src_host, bucket, run, rid, targets)
        self.sets[key] = st
        return key, list(targets)

    def adopt_restored(self, rid, src_host, bucket, run, dest) -> None:
        """Adopt a manifest-restored run as a durable single-copy set.

        Restored runs enter with one durable copy at their journal dest; the
        anti-entropy loop tops them back up to ``r`` in the background.
        """
        key = (1, int(rid), 0)
        st = ReplicaSet(key, src_host, bucket, run, rid, ())
        st.copies.add(dest)
        st.counted = True
        st.journal_dest = dest
        self.sets[key] = st
        self._gv_copies.add(dest, 1.0)

    def copy_durable(self, key, dest) -> tuple[int, bool]:
        """A replica write became durable at ``dest``.

        Returns ``(durable_delta, fresh_copy)``: the records to add to the
        job's durable count (non-zero only when the set newly counts), and
        whether this copy is new at ``dest`` (the caller appends the
        physical run exactly once per holder).

        The write is fenced by the membership: under epoch fencing a
        ``dest`` outside the current view (or holding a stale admission
        token) raises :class:`~repro.faults.errors.StaleEpochError` — the
        typed rejection the partition story depends on, replacing the silent
        no-op that the fail-stop model can afford.
        """
        self.members.validate(f"asu{dest}", op="replica write")
        st = self.sets.get(key)
        if st is None or dest in self._dead:
            return 0, False
        if dest in st.copies:
            return 0, False
        st.targets.discard(dest)
        st.copies.add(dest)
        self._gv_copies.add(dest, 1.0)
        if dest in st.repair_inflight:
            st.repair_inflight.discard(dest)
            self.n_repaired_copies += 1
            self._c_repaired.inc()
        delta = self._recount(st)
        if delta > 0 and st.rid is not None and st.journal_dest is None:
            st.journal_dest = dest
            self.journal.log_run_durable(st.rid, dest, st.run)
        return delta, True

    # -- failure paths (simulator callbacks; no yields) -----------------------
    def on_asu_crash(self, d: int, now: float = 0.0) -> int:
        """Remove ASU ``d`` from every set; promotion where survivors exist.

        Returns the durable-record delta (negative when counted sets lost
        their last copy).  Sets stranded with neither copies nor in-flight
        targets are queued per source host in :attr:`pending_reemits` for
        the detection sweep to turn into re-emit control messages.
        """
        if d in self._dead:
            return 0
        self._dead.add(d)
        delta = 0
        promoted = 0
        journal_touched = False
        relog: list[ReplicaSet] = []
        for key in sorted(self.sets):
            st = self.sets[key]
            touched = d in st.copies or d in st.targets
            if not touched:
                continue
            was_counted = st.counted
            if d in st.copies:
                st.copies.discard(d)
                self._gv_copies.add(d, -1.0)
            st.targets.discard(d)
            st.repair_inflight.discard(d)
            delta += self._recount(st)
            if st.rid is not None and st.journal_dest == d:
                journal_touched = True
                if st.copies:
                    relog.append(st)
                else:
                    st.journal_dest = None
            if was_counted and st.counted:
                promoted += 1
            if was_counted and not st.counted and not st.copies:
                self._c_lost.inc()
            if not st.copies and not st.targets:
                # Stranded: nothing durable, nothing in flight — the source
                # host must emit fresh copies (its lineage holds the run).
                self.pending_reemits.setdefault(st.src_host, []).append(key)
        if journal_touched:
            # Entries journalled at the dead ASU first die wholesale, then
            # promoted sets re-log at a survivor: latest-entry-per-rid wins,
            # so restore sees exactly the surviving copy holders.
            self.journal.log_purge_asu(d)
        for st in relog:
            st.journal_dest = min(st.copies)
            self.journal.log_run_durable(st.rid, st.journal_dest, st.run)
        if promoted:
            self.n_promoted_runs += promoted
            self._c_promoted.inc(promoted)
            if self.tracer is not None:
                self.tracer.instant(
                    now, "replica",
                    f"promote {promoted} run(s) off asu{d} in place",
                    cat="fault",
                )
        return delta

    def lose_copies_on(self, d: int, now: float = 0.0) -> int:
        """``lose_replica`` fault: media loss on an alive ASU.

        Drops every durable copy held on ``d`` (the node keeps running, so
        ``d`` stays a valid future target).  Returns the durable-record
        delta; the anti-entropy loop detects the under-replication and
        re-replicates from the surviving copies.
        """
        delta = 0
        dropped = 0
        for key in sorted(self.sets):
            st = self.sets[key]
            if d not in st.copies:
                continue
            st.copies.discard(d)
            self._gv_copies.add(d, -1.0)
            dropped += 1
            delta += self._recount(st)
            if st.rid is not None and st.journal_dest == d:
                st.journal_dest = min(st.copies) if st.copies else None
                if st.journal_dest is not None:
                    self.journal.log_run_durable(st.rid, st.journal_dest, st.run)
            if not st.copies and not st.targets:
                self.pending_reemits.setdefault(st.src_host, []).append(key)
        if dropped and self.tracer is not None:
            self.tracer.instant(
                now, "replica", f"lose {dropped} cop(ies) on asu{d}",
                cat="fault",
            )
        return delta

    def on_asu_readmit(self, d: int) -> None:
        """ASU ``d`` rejoined the view: make it a valid target again.

        Physical copies it still holds are *not* trusted here — they were
        written under a dead epoch as far as the survivors know; the caller
        offers them back one by one through :meth:`readopt_copy` with a
        digest, and anything that doesn't verify stays discarded.
        """
        self._dead.discard(d)

    def readopt_copy(self, key, d: int, digest: str) -> tuple[int, bool]:
        """Offer a copy a returning ASU kept through its expulsion.

        Adopts the copy iff the set still exists, ``d`` does not already
        hold it, and ``digest`` matches the authoritative run — a divergent
        copy (the signature of a split-brain write) is counted and refused,
        leaving repair to the anti-entropy loop.  Returns
        ``(durable_delta, adopted)``; the delta is non-zero only when the
        set was stranded and this copy makes it count again.
        """
        from ..recovery.manifest import digest_records

        st = self.sets.get(key)
        if st is None or d in self._dead:
            return 0, False
        if digest_records(st.run) != digest:
            self.n_divergent_copies += 1
            return 0, False
        if d in st.copies:
            return 0, False
        st.targets.discard(d)
        st.copies.add(d)
        self._gv_copies.add(d, 1.0)
        delta = self._recount(st)
        return delta, True

    def on_host_crash(self, h: int) -> int:
        """Drop every set originated by dead host ``h``; returns the delta.

        Mirrors the legacy semantics: the host's fragments replay to
        survivors and re-sort into fresh runs, so its old runs must vanish
        everywhere (the runtime removes the physical copies by source-host
        tag).  Manifest-restored sets (key kind 1) survive — they are
        disk-durable with exact frag lineage, so a *new* crash of their
        original source host has nothing to replay and must not discard
        them.
        """
        delta = 0
        any_run = False
        for key in sorted(self.sets):
            st = self.sets[key]
            if st.src_host != h or key[0] == 1:
                continue
            if st.counted:
                delta -= int(st.run.shape[0])
            any_run = True
            for d in st.copies:
                self._gv_copies.add(d, -1.0)
            del self.sets[key]
        self.pending_reemits.pop(h, None)
        if any_run:
            self.journal.log_purge_host(h)
        return delta

    def retarget(self, key) -> list[int]:
        """Fresh targets for a stranded set (source-host re-emit path)."""
        st = self.sets.get(key)
        if st is None:
            return []
        want = min(self.config.r, self.n_asus - len(self._dead))
        missing = max(0, want - len(st.copies | st.targets))
        if not missing:
            return []
        fresh = list(islice(self._candidates(_shard_key(key), st), missing))
        st.targets.update(fresh)
        self.n_retargeted_copies += len(fresh)
        self._c_retargeted.inc(len(fresh))
        return fresh

    # -- anti-entropy ---------------------------------------------------------
    def under_replicated_keys(self) -> list[tuple]:
        return [k for k in sorted(self.sets) if self._under_replicated(self.sets[k])]

    def next_repair_target(self, key) -> Optional[int]:
        """Next alive placement candidate not already holding/receiving."""
        st = self.sets.get(key)
        if st is None:
            return None
        return next(self._candidates(_shard_key(key), st), None)

    def pick_read_copy(self, st: ReplicaSet) -> Optional[int]:
        """Least-loaded alive copy holder by the read-bytes gauge vector."""
        alive = sorted(c for c in st.copies if c not in self._dead)
        if not alive:
            return None
        return pick_least_loaded(self._gv_read.values, alive)

    def note_read(self, d: int, nbytes: int) -> None:
        self._gv_read.add(d, float(nbytes))

    def read_plan(self) -> list[list[tuple[int, object]]]:
        """One read assignment per logical run for pass 2.

        Physical ``runs_on_asu`` holds up to ``r`` copies of every run; the
        merge must read each run exactly once, from the least-loaded alive
        holder (greedy over the ``repro_replica_read_bytes`` gauge vector —
        the gauge is both the decision input and the decision record, like
        the load manager's routing gauges).
        """
        plan: list[list[tuple[int, object]]] = [[] for _ in range(self.n_asus)]
        for key in sorted(self.sets):
            st = self.sets[key]
            d = self.pick_read_copy(st)
            if d is None:
                continue
            self.note_read(d, int(st.run.shape[0]))
            plan[d].append((st.bucket, st.run))
        return plan


def _shard_key(key: tuple) -> int:
    kind, a, b = key
    return (kind << 48) | ((a & 0xFFFFFF) << 24) | (b & 0xFFFFFF)
