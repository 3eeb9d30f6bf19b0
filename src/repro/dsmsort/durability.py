"""The run-durability seam of fault-tolerant run formation.

The pass-1 engine (:mod:`repro.dsmsort.runtime`) forms sorted runs; *how a
run becomes, stays, and is read back durable* — how many copies exist and
which ASUs hold them — is the system's decision (§1), made by whichever
:class:`RunDurability` the job was built with: :class:`StripedRuns` here, or
:class:`repro.replica.durability.ReplicatedRuns`.  The engine never asks
which.  Entry points that move the job's durable-record count return the
delta (the engine owns the count and the completion event); ``(gen)`` ones
run inside the calling host/ASU process, the rest in simulator callbacks:

- ``adopt`` a manifest-restored run; ``emit`` (gen) a freshly sorted run;
  ``consume`` (gen) one delivered copy;
- ``asu_lost`` / ``host_lost``: crash or expulsion, idempotent;
  ``media_lost``: replicated only (``MODE_RULES`` rejects ``lose_replica``
  plans without replication); ``asu_readmitted``;
- ``detected`` -> ``(host, request)`` re-emit requests the engine mails
  after an ASU loss; ``reemit`` (gen): a host serves one;
- ``background`` -> ``(name, gen)`` processes to spawn; ``read_plan`` ->
  per-ASU pass-2 reads; ``counters`` -> :class:`Pass1Result` fields.

See docs/REPLICATION.md, "The durability seam".
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Optional

from ..faults.errors import StaleEpochError, UnrecoverableJobError

__all__ = ["RunDurability", "StripedRuns"]


class RunDurability:
    """Physical bookkeeping both implementations share.

    ``job.runs_on_asu`` holds the physical copies; ``_src`` tags each with
    the host that emitted it (-1: disk-durable state no host crash may
    discard — manifest-restored or digest-reconciled copies).
    """

    def __init__(self, job):
        # Weak: the job owns this object.  A strong back-reference would turn
        # every job into a reference cycle, leaving a finished job's record
        # arrays to the cyclic collector instead of freeing them by refcount.
        self.job = weakref.proxy(job)
        self._src: list[list[int]] = [[] for _ in range(job.params.n_asus)]
        self.n_reemitted_runs = 0

    def _store(self, d: int, bucket: int, run, src_h: int) -> None:
        self.job.runs_on_asu[d].append((bucket, run))
        self._src[d].append(src_h)

    def _wipe_asu(self, d: int) -> None:
        self.job.runs_on_asu[d] = []
        self._src[d] = []

    def _drop_copies_from(self, h: int) -> int:
        """Remove every copy emitted by host ``h``; returns records removed."""
        lost = 0
        runs_on_asu = self.job.runs_on_asu
        for d, tags in enumerate(self._src):
            keep_r, keep_s = [], []
            for entry, src in zip(runs_on_asu[d], tags):
                if src == h:
                    lost += entry[1].shape[0]
                else:
                    keep_r.append(entry)
                    keep_s.append(src)
            runs_on_asu[d], self._src[d] = keep_r, keep_s
        return lost

    def _run_nbytes(self, run) -> int:
        return run.shape[0] * self.job.params.schema.record_size


@dataclass(slots=True)
class _RunEntry:
    """Host-side lineage for one emitted run: the sorted payload plus its
    current destination ASU, so the run can be re-replicated if that ASU
    dies before (or after) the write became durable."""

    bucket: int
    run: object
    dest: int
    #: manifest run id (checkpointed runs only)
    rid: Optional[int] = None


class StripedRuns(RunDurability):
    """Single-copy runs striped across the ASUs, re-emitted from lineage."""

    def __init__(self, job):
        super().__init__(job)
        self._lineage: list[list[_RunEntry]] = [[] for _ in range(job.params.n_hosts)]
        self._stripe_next: list[int] = list(range(job.params.n_hosts))

    def adopt(self, rid, h, bucket, dest, run) -> None:
        # Source host -1: a restored run is disk-durable with exact frag
        # lineage, so a *new* crash of its original source host must not
        # discard it (no retained frags exist to replay it from).  Its
        # lineage host still re-replicates it if the destination ASU dies —
        # the rid keys the manifest update.
        self._store(dest, bucket, run, -1)
        self._lineage[h].append(_RunEntry(bucket, run, dest, rid))

    def emit(self, host, h, bucket, run, fkeys):
        nbytes = self._run_nbytes(run)
        yield from host.cpu.execute(
            cycles=nbytes * self.job.params.cycles_per_net_byte
        )
        # Atomic: destination choice + lineage entry + post.  (Runs bypass
        # the credit window — the high-volume fragment path is what the
        # window gates; a blocking wait here would break emit atomicity.)
        entry = _RunEntry(
            bucket, run, self._next_alive_stripe(h),
            self.job._journal.new_run(h, bucket, fkeys),
        )
        self._lineage[h].append(entry)
        self._post(host, entry, nbytes)

    def reemit(self, host, h, dead_asu):
        """Re-replicate the runs stranded on ``dead_asu``.

        Riding the host mailbox serialises this after any in-flight emit,
        so every lineage entry bound for the dead ASU exists before the scan.
        """
        for entry in list(self._lineage[h]):
            if entry.dest != dead_asu:
                continue
            nbytes = self._run_nbytes(entry.run)
            yield from host.cpu.execute(
                cycles=nbytes * self.job.params.cycles_per_net_byte
            )
            entry.dest = self._next_alive_stripe(h)
            self.n_reemitted_runs += 1
            self._post(host, entry, nbytes)

    def _post(self, host, entry, nbytes) -> None:
        payload = ("run", entry.bucket, entry.run)
        if entry.rid is not None:
            payload += (entry.rid,)
        self.job._net.post(host.node_id, f"asu{entry.dest}", payload, nbytes, "run")

    def _next_alive_stripe(self, h: int) -> int:
        """Next ASU to stripe a run onto: alive, and with a host->ASU link
        the transport calls healthy.  The second pass relaxes the health
        condition — when every alive link is quarantined, a degraded link
        still beats no link (graceful degradation, not deadlock)."""
        job = self.job
        D = job.params.n_asus
        healthy = job._net.healthy
        host_id = f"host{h}"
        for allow_open in (False, True):
            start = self._stripe_next[h]
            for step in range(D):
                d = (start + step) % D
                if d in job._dead_asus:
                    continue
                if not allow_open and not healthy(host_id, f"asu{d}"):
                    continue
                self._stripe_next[h] = d + 1
                return d
        raise UnrecoverableJobError("no alive ASU to stripe runs onto")

    def consume(self, asu, d, msg):
        job = self.job
        bucket, run = msg.payload[1], msg.payload[2]
        src_h = int(msg.src[4:])  # "hostN"
        if src_h in job._dead_hosts:
            return 0  # orphan of a quarantined host; its frags replay
        t0 = asu.sim.now
        yield from asu.disk_write(self._run_nbytes(run))
        if src_h in job._dead_hosts:
            return 0  # emitter died during our write; the purge ran
        try:
            job._members.validate(asu.node_id, op="run write")
        except StaleEpochError:
            return 0  # fenced: this ASU was expelled while we wrote
        # Atomic: durability record (the engine's completion check follows).
        self._store(d, bucket, run, src_h)
        if len(msg.payload) > 3:
            job._journal.log_run_durable(msg.payload[3], d, run)
        sim = asu.sim
        if sim.tracer is not None or sim.metrics is not None:
            job._trace_records(sim, f"asu{d}.write", run.shape[0], dt=sim.now - t0)
        return run.shape[0]

    def asu_lost(self, node) -> int:
        d = node.index
        runs = self.job.runs_on_asu[d]
        if runs:
            self.job._journal.log_purge_asu(d)
        lost = sum(r.shape[0] for _b, r in runs)
        self._wipe_asu(d)
        return -lost

    def host_lost(self, h: int) -> int:
        lost = self._drop_copies_from(h)
        if lost:
            self.job._journal.log_purge_host(h)
        return -lost

    def detected(self, d: int):
        return [
            (h, d)
            for h in range(self.job.params.n_hosts)
            if h not in self.job._dead_hosts
        ]

    def asu_readmitted(self, d: int) -> int:
        return 0

    def background(self):
        return ()

    def read_plan(self):
        return self.job.runs_on_asu

    def counters(self) -> dict:
        return {"n_reemitted_runs": self.n_reemitted_runs}
