"""r-way replication behind :class:`repro.dsmsort.durability.RunDurability`.

:class:`ReplicatedRuns` drives the pure
:class:`~repro.replica.manager.ReplicationManager` state machine with the
simulated-time effects (NIC charges, posts, disk writes, the repair
process).  ``ReplicaSet`` fields are touched only inside :mod:`repro.replica`.
"""

from __future__ import annotations

from ..dsmsort.durability import RunDurability
from ..faults.errors import StaleEpochError, UnrecoverableJobError
from ..recovery.manifest import digest_records
from .manager import ReplicationConfig, ReplicationManager

__all__ = ["ReplicatedRuns"]


class ReplicatedRuns(RunDurability):
    """Runs written to ``r`` placement-chosen ASUs; loss becomes promotion."""

    def __init__(self, job, config: ReplicationConfig):
        super().__init__(job)
        self.mgr = ReplicationManager(
            config, job.params.n_asus,
            registry=job.metrics,
            journal=job._journal,
            tracer=job.tracer,
            job_labels=job._job_labels,
        )
        self.mgr.members = job._members
        #: per-ASU (key, digest) snapshots taken at expulsion, offered back
        #: through ReplicationManager.readopt_copy on re-admission
        self._readmit_stash: dict[int, list] = {}
        self.n_reconciled_runs = 0

    def adopt(self, rid, h, bucket, dest, run) -> None:
        # The manager takes over re-replication duty (keyed by rid);
        # anti-entropy tops the run back to r.  Tag -1: see StripedRuns.adopt.
        self._store(dest, bucket, run, -1)
        self.mgr.adopt_restored(rid, h, bucket, run, dest)

    def _fanout_cycles(self, nbytes: int) -> float:
        """NIC cost of one fan-out: charged per copy the fleet can take."""
        n_alive = self.job.params.n_asus - len(self.job._dead_asus)
        k = max(1, min(self.mgr.config.r, n_alive))
        return nbytes * self.job.params.cycles_per_net_byte * k

    def _post_copies(self, src_id: str, st, targets) -> None:
        nbytes = self._run_nbytes(st.run)
        for d in targets:
            self.job._net.post(
                src_id, f"asu{d}", ("run", st.bucket, st.run, st.key), nbytes, "run"
            )

    def emit(self, host, h, bucket, run, fkeys):
        """Fan the sorted run out to its placement targets.

        NIC cost is charged per planned copy; the region after the charge is
        yield-free and re-validates the plan against the current dead set
        (:meth:`ReplicationManager.register_emit`), so a fail-stop can only
        land before the whole fan-out or after it — never between the set
        registration and its posts.
        """
        yield from host.cpu.execute(cycles=self._fanout_cycles(self._run_nbytes(run)))
        rid = self.job._journal.new_run(h, bucket, fkeys)
        key, targets = self.mgr.register_emit(h, bucket, run, rid=rid)
        if not targets:
            raise UnrecoverableJobError("no alive ASU to replicate runs onto")
        self._post_copies(host.node_id, self.mgr.sets[key], targets)

    def reemit(self, host, h, keys):
        """Fan fresh copies out for sets fully stranded by an ASU crash.

        Riding the host mailbox serialises this behind in-flight emits; each
        set re-checks its state after the NIC charge, so a set repaired or
        purged meanwhile is skipped rather than double-shipped.
        """
        mgr = self.mgr
        for key in keys:
            st = mgr.sets.get(key)
            if st is None or st.copies or st.targets:
                continue  # repaired, re-planned, or purged meanwhile
            if len(self.job._dead_asus) >= self.job.params.n_asus:
                raise UnrecoverableJobError("no alive ASU to replicate runs onto")
            yield from host.cpu.execute(
                cycles=self._fanout_cycles(self._run_nbytes(st.run))
            )
            # Atomic: fresh targets + posts (see emit).
            st = mgr.sets.get(key)
            if st is None:
                continue
            targets = mgr.retarget(key)
            if not targets:
                continue
            self.n_reemitted_runs += 1
            self._post_copies(host.node_id, st, targets)

    def consume(self, asu, d, msg):
        """Make one replica copy durable; the manager owns the accounting.

        Handles host-emitted fan-out, stranded-set re-emits, and asu->asu
        repair copies alike — the liveness check keys on the *set's* source
        host, never on ``msg.src`` (a repair copy's wire source is an ASU).
        """
        mgr, dead_hosts = self.mgr, self.job._dead_hosts
        bucket, run, key = msg.payload[1], msg.payload[2], msg.payload[3]
        st = mgr.sets.get(key)
        if st is None or (st.src_host >= 0 and st.src_host in dead_hosts):
            return 0  # orphan of a purged set; frag replay covers its records
        t0 = asu.sim.now
        yield from asu.disk_write(self._run_nbytes(run))
        st = mgr.sets.get(key)
        if st is None or (st.src_host >= 0 and st.src_host in dead_hosts):
            return 0  # the set died during our write; its purge already ran
        # Atomic: durability record (the engine's completion check follows).
        # The manager validates this ASU's epoch first: under epoch fencing
        # a copy landing here after our expulsion is the typed split-brain
        # rejection the partition sweep asserts on.
        try:
            delta, fresh = mgr.copy_durable(key, d)
        except StaleEpochError:
            return 0
        if fresh:
            # Manifest-restored sets keep the -1 tag: a new crash of their
            # lineage host must not discard the physical copies.
            self._store(d, bucket, run, -1 if key[0] == 1 else st.src_host)
            sim = asu.sim
            if sim.tracer is not None or sim.metrics is not None:
                self.job._trace_records(
                    sim, f"asu{d}.write", run.shape[0], dt=sim.now - t0
                )
        return delta

    def asu_lost(self, node) -> int:
        """Promotion: surviving copies keep satisfied sets counted, only
        sets that no longer count subtract; the manager also
        rewrites the manifest frontier (purge the dead ASU, re-log promoted
        sets at a survivor).  An expelled-but-alive node's copies are
        snapshotted first, with content digests, so a later re-admission can
        offer them back verified; a crash voids any such snapshot."""
        d = node.index
        if node.alive:
            self._readmit_stash[d] = [
                (key, digest_records(st.run))
                for key, st in sorted(self.mgr.sets.items())
                if d in st.copies
            ]
        else:
            self._readmit_stash.pop(d, None)
        delta = self.mgr.on_asu_crash(d, now=node.sim.now)
        self._wipe_asu(d)
        return delta

    def media_lost(self, node) -> int:
        """Media loss on an alive ASU: its durable copies vanish but the
        node keeps serving.  Promotion keeps satisfied sets counted; the
        anti-entropy loop restores the lost redundancy.  Loss also voids any
        expulsion-time snapshot — a re-admission must not readopt copies
        the media no longer holds."""
        d = node.index
        self._readmit_stash.pop(d, None)
        delta = self.mgr.lose_copies_on(d, now=node.sim.now)
        self._wipe_asu(d)
        return delta

    def host_lost(self, h: int) -> int:
        # Manager-owned accounting and manifest purge; the physical filter
        # removes every copy tagged with the dead host (restored sets carry
        # -1 and survive, matching the striped implementation).
        delta = self.mgr.on_host_crash(h)
        self._drop_copies_from(h)
        return delta

    def detected(self, d: int):
        # Promotion already kept satisfied sets durable at the crash
        # instant; only fully-stranded sets (no copy, no in-flight target)
        # need their source host to fan out fresh copies.
        pending = self.mgr.pending_reemits
        requests = [
            (h, tuple(pending[h]))
            for h in sorted(pending)
            if pending[h] and h >= 0 and h not in self.job._dead_hosts
        ]
        pending.clear()
        return requests

    def asu_readmitted(self, d: int) -> int:
        """Offer back the copies ``d`` kept through its expulsion:
        digest-verified copies are re-adopted (counting toward the durable
        total and pass-2 read steering), divergent ones refused and left to
        anti-entropy."""
        self.mgr.on_asu_readmit(d)
        delta_total = 0
        for key, digest in self._readmit_stash.pop(d, ()):
            delta, adopted = self.mgr.readopt_copy(key, d, digest)
            if adopted:
                st = self.mgr.sets[key]
                # -1: a readopted copy is digest-verified durable state; a
                # later crash of its lineage host must not discard it.
                self._store(d, st.bucket, st.run, -1)
                self.n_reconciled_runs += 1
            delta_total += delta
        return delta_total

    def background(self):
        return (("repair", self._repair_loop()),)

    def _repair_loop(self):
        """Anti-entropy: re-replicate under-replicated sets in the background.

        A simulated-time process tied to no node, so it survives every
        crash.  Each cycle walks the under-replicated sets in deterministic
        key order, reads the least-loaded alive copy (read steering over the
        ``repro_replica_read_bytes`` gauge vector), posts one fresh copy
        asu->asu, and paces itself to the configured bandwidth budget so
        repair traffic shares the fleet with foreground work instead of
        stampeding it.
        """
        mgr, plat = self.mgr, self.job._ft_plat
        cfg = mgr.config
        bw = cfg.repair_bandwidth
        if bw is None:
            # Default budget: a quarter of one disk's streaming rate.
            bw = self.job.params.disk_rate * 0.25
        while True:
            yield plat.sim.timeout(cfg.repair_interval)
            for key in mgr.under_replicated_keys():
                st = mgr.sets.get(key)
                if st is None or not st.copies or st.repair_inflight:
                    continue  # stranded sets take the reemit path instead
                src = mgr.pick_read_copy(st)
                dest = mgr.next_repair_target(key)
                if src is None or dest is None:
                    continue
                nbytes = self._run_nbytes(st.run)
                # Atomic mark: the copy is in flight before any yield, so a
                # concurrent sweep cannot schedule the same repair twice.
                st.targets.add(dest)
                st.repair_inflight.add(dest)
                yield from plat.asus[src].disk.read(nbytes)
                st = mgr.sets.get(key)
                if st is None:
                    continue
                if dest in self.job._dead_asus or src not in st.copies:
                    # Source or destination died during the read: unwind the
                    # in-flight mark and let the next cycle re-plan.
                    st.targets.discard(dest)
                    st.repair_inflight.discard(dest)
                    continue
                mgr.note_read(src, nbytes)
                self._post_copies(f"asu{src}", st, (dest,))
                yield plat.sim.timeout(nbytes / bw)

    def read_plan(self):
        # One read per logical run, from its least-loaded alive holder.
        return self.mgr.read_plan()

    def counters(self) -> dict:
        return {
            "n_reemitted_runs": self.n_reemitted_runs,
            "n_promoted_runs": self.mgr.n_promoted_runs,
            "n_repaired_copies": self.mgr.n_repaired_copies,
            "n_retargeted_copies": self.mgr.n_retargeted_copies,
            "n_underreplicated": len(self.mgr.under_replicated_keys()),
            "n_divergent_copies": self.mgr.n_divergent_copies,
            "n_reconciled_runs": self.n_reconciled_runs,
        }
