"""Checkpoint/restart for DSM-Sort: kill the coordinator, resume the job.

The paper's platform pushes computation into shared storage; a long sort is
therefore exposed to one more failure domain than the ASUs and hosts the
fault-tolerant runtime already covers — the *coordinating job itself*, killed
by the ``crash_coordinator`` fault kind.  This module provides
:class:`RecoverableSort`, a thin wrapper that re-creates a killed
:class:`~repro.dsmsort.DsmSortJob` from its write-ahead
:class:`~repro.recovery.manifest.RunManifest` and resumes it without
re-reading completed shards or re-merging completed buckets.

Semantics of a coordinator crash:

* every volatile structure dies — host buffers, in-flight messages, ship
  markers, run lineage held in coordinator memory;
* the manifest journal and the run payloads it references survive (they are
  on ASU platters, written through the charged disk path);
* a resumed attempt replays the journal, adopts the durable frontier, and
  only produces/ships/merges what the journal does not already cover.

The proof obligation (tested in ``tests/test_recovery.py``): for *any* kill
instant, the resumed output is byte-identical to an uninterrupted run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..dsmsort.runtime import DsmSortJob, Pass1Result, Pass2Result
from ..faults.injector import FaultPlan, crash_coordinator
from .manifest import RunManifest

__all__ = ["AttemptOutcome", "RecoverableSort"]


# -- one attempt's outcome -----------------------------------------------------
@dataclass
class AttemptOutcome:
    """What one (possibly killed) attempt of the job accomplished."""

    #: phase the attempt ended in: "pass1", "pass2", or "done"
    phase: str
    #: True iff the job finished (sorted output available)
    completed: bool
    #: True iff a coordinator kill ended this attempt
    crashed: bool
    #: virtual time this attempt consumed (both passes, as run)
    makespan: float
    #: the kill instant this attempt was run under (None = uninterrupted)
    crash_at: Optional[float] = None
    #: True iff pass 1 was adopted from the manifest instead of re-run
    restored_pass1: bool = False
    pass1: Optional[Pass1Result] = None
    pass2: Optional[Pass2Result] = None

    def __repr__(self) -> str:
        tag = "done" if self.completed else f"crashed in {self.phase}"
        return f"<AttemptOutcome {tag} makespan={self.makespan:.4f}>"


# -- the recoverable job -------------------------------------------------------
class RecoverableSort:
    """A DSM-Sort that survives coordinator kills via its manifest.

    Each :meth:`attempt` builds a *fresh* :class:`DsmSortJob` (same workload
    seed, so the regenerated input is identical) sharing one
    :class:`RunManifest`; the job's fault-tolerant path replays the journal
    before doing any work, so attempt N+1 starts from attempt N's durable
    frontier.  ``crash_at`` is an absolute virtual instant within the
    attempt: landing in pass 1 it fires a ``crash_coordinator`` fault,
    landing in pass 2 it becomes the merge deadline, and landing past the
    attempt's completion it is a no-op.
    """

    def __init__(
        self,
        params,
        config,
        *,
        seed: int = 0,
        policy: str = "sr",
        workload: str = "uniform",
        base_faults: Optional[FaultPlan] = None,
        metrics_factory=None,
        job_kwargs: Optional[dict] = None,
        job_id: Optional[str] = None,
    ):
        self.params = params
        self.config = config
        self.seed = int(seed)
        self.policy = policy
        self.workload = workload
        self._base_faults = tuple(base_faults) if base_faults is not None else ()
        self._metrics_factory = metrics_factory
        self._job_kwargs = dict(job_kwargs or {})
        #: scheduler namespace: every attempt's DsmSortJob carries this id,
        #: so two supervised jobs can share one MetricsRegistry (their
        #: instruments get distinct ``job=<id>`` labels)
        self.job_id = job_id
        if job_id is not None:
            self._job_kwargs.setdefault("job_id", job_id)
        #: the shared journal — the only state that survives a kill
        self.manifest = RunManifest()
        #: per-attempt outcomes, in order
        self.attempts: list[AttemptOutcome] = []
        #: virtual time consumed across all attempts (excludes backoff —
        #: the supervisor accounts for that)
        self.total_virtual_time = 0.0
        #: the most recent job (holds final_buckets once completed)
        self.job: Optional[DsmSortJob] = None

    # -- plumbing -----------------------------------------------------------
    def _make_job(
        self, crash_at: Optional[float], routing_seed: Optional[int]
    ) -> DsmSortJob:
        faults = list(self._base_faults)
        if crash_at is not None:
            faults.append(crash_coordinator(crash_at))
        metrics = (
            self._metrics_factory() if self._metrics_factory is not None else None
        )
        return DsmSortJob(
            self.params,
            self.config,
            policy=self.policy,
            workload=self.workload,
            seed=self.seed,
            faults=FaultPlan(faults),
            manifest=self.manifest,
            routing_seed=routing_seed,
            metrics=metrics,
            **self._job_kwargs,
        )

    # -- one attempt --------------------------------------------------------
    def attempt(
        self,
        crash_at: Optional[float] = None,
        routing_seed: Optional[int] = None,
    ) -> AttemptOutcome:
        """Run (or resume) the job, optionally killing it at ``crash_at``."""
        job = self._make_job(crash_at, routing_seed)
        self.job = job
        restored = False
        if self.manifest.pass1_complete():
            # A predecessor finished pass 1; adopt it rather than re-run.
            job.restore_pass1()
            r1, mk1, restored = None, 0.0, True
        else:
            r1 = job.run_pass1()
            mk1 = r1.makespan
            if not r1.completed:
                return self._record(
                    AttemptOutcome(
                        phase="pass1", completed=False,
                        crashed=bool(r1.coordinator_crashed),
                        makespan=mk1, crash_at=crash_at, pass1=r1,
                    )
                )
        deadline = None
        if crash_at is not None:
            deadline = crash_at - mk1
            if deadline <= 0:
                # Pass 1 finished exactly at/after the kill instant (tie won
                # by the completion event): the kill lands before pass 2 can
                # start, so nothing of the merge happens this attempt.
                return self._record(
                    AttemptOutcome(
                        phase="pass2", completed=False, crashed=True,
                        makespan=mk1, crash_at=crash_at, pass1=r1,
                        restored_pass1=restored,
                    )
                )
        r2 = job.run_pass2(deadline=deadline)
        return self._record(
            AttemptOutcome(
                phase="done" if r2.completed else "pass2",
                completed=r2.completed,
                crashed=not r2.completed,
                makespan=mk1 + r2.makespan,
                crash_at=crash_at,
                pass1=r1, pass2=r2, restored_pass1=restored,
            )
        )

    def _record(self, out: AttemptOutcome) -> AttemptOutcome:
        self.attempts.append(out)
        self.total_virtual_time += out.makespan
        return out

    # -- results ------------------------------------------------------------
    @property
    def completed(self) -> bool:
        return bool(self.attempts) and self.attempts[-1].completed

    def output(self) -> np.ndarray:
        """The final sorted output (completed attempts only)."""
        if not self.completed or self.job is None:
            raise RuntimeError("job has not completed; call attempt() until done")
        return self.job.collected_output()

    def verify(self) -> None:
        """Assert sortedness + exact multiset match against the input."""
        if self.job is None:
            raise RuntimeError("no attempt has run")
        self.job.verify()

    def run_supervised(self, crashes=(), budget=None):
        """Drive attempts to completion under a :class:`JobSupervisor`.

        ``crashes[i]`` kills attempt ``i`` at that virtual instant; attempts
        past the schedule run uninterrupted.  Returns the supervisor's
        :class:`~repro.recovery.supervisor.SupervisorReport`.
        """
        from .supervisor import JobSupervisor

        return JobSupervisor(self, budget=budget).run(crashes=crashes)
