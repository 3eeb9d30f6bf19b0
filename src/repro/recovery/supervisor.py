"""The job supervisor: restart budgets, backoff, and an escalation ladder.

A :class:`~repro.recovery.checkpoint.RecoverableSort` knows *how* to resume;
the :class:`JobSupervisor` decides *whether and with what* — the policy layer
a production scheduler would sit in.  Each failed attempt climbs one rung of
:data:`ESCALATION_LADDER`:

1. **retry** — resume from the manifest with everything else unchanged
   (the failure was probably transient);
2. **replace** — resume with a *fresh routing seed*: the load manager makes
   different placement decisions, steering the resumed work away from
   whatever placement pattern kept failing (re-placement without moving
   application objects, §3.3);
3. **restore** — strict checkpoint hygiene: the manifest is serialised to
   its canonical JSON form and reloaded (:meth:`RunManifest.to_json` /
   :meth:`~RunManifest.from_json`) before resuming, so the attempt runs
   from exactly what a cold process would read off the platters — if
   in-memory journal state was corrupt, this rung sheds it;
4. **abort** — the restart budget is exhausted; give up and return a
   :class:`SupervisorReport` with the full attempt history and the
   manifest's durable-frontier summary for post-mortem.

Each restart also pays an exponential-backoff delay (virtual time, charged
to the report's total) so a crash-looping job backs off instead of spinning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..faults.errors import UnrecoverableJobError
from ..util.rng import derive_seed
from .manifest import RunManifest

__all__ = ["ESCALATION_LADDER", "JobSupervisor", "RestartBudget", "SupervisorReport"]

#: rungs climbed on consecutive failures (1st, 2nd, 3rd+; then abort)
ESCALATION_LADDER = ("retry", "replace", "restore", "abort")


@dataclass(frozen=True)
class RestartBudget:
    """How many restarts a job gets, and how hard it backs off."""

    #: restarts allowed after the initial attempt (total attempts = 1 + this)
    max_restarts: int = 5
    #: backoff before the first restart (virtual seconds)
    backoff0: float = 0.05
    #: multiplier per consecutive failure
    backoff_factor: float = 2.0
    #: backoff ceiling
    backoff_cap: float = 1.0

    def __post_init__(self):
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be nonnegative")
        if self.backoff0 < 0 or self.backoff_cap < 0:
            raise ValueError("backoff must be nonnegative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")

    def backoff(self, n_consecutive_failures: int) -> float:
        if n_consecutive_failures <= 0:
            return 0.0
        return min(
            self.backoff0 * self.backoff_factor ** (n_consecutive_failures - 1),
            self.backoff_cap,
        )


@dataclass
class SupervisorReport:
    """Terminal outcome of a supervised job."""

    completed: bool
    aborted: bool
    n_attempts: int
    n_crashes: int
    #: (attempt_index, ladder rung taken before it, backoff paid) — the
    #: initial attempt takes no rung and appears only in ``outcomes``
    actions: list = field(default_factory=list)
    #: virtual time across all attempts plus backoff
    total_virtual_time: float = 0.0
    total_backoff: float = 0.0
    #: per-attempt outcomes (``AttemptOutcome``), in order
    outcomes: list = field(default_factory=list)
    #: human-readable abort reason ("" on success)
    reason: str = ""
    #: manifest durable-frontier summary at exit (for post-mortem)
    manifest_report: Optional[dict] = None

    def __repr__(self) -> str:
        tag = "completed" if self.completed else ("aborted" if self.aborted else "?")
        return (
            f"<SupervisorReport {tag} attempts={self.n_attempts} "
            f"crashes={self.n_crashes} t={self.total_virtual_time:.4f}>"
        )


class JobSupervisor:
    """Drives a :class:`RecoverableSort` to completion or abort.

    Pass ``registry`` to meter the supervision itself
    (``repro_supervisor_*`` counters).  When several supervised jobs share
    one registry — the multi-tenant scheduler does exactly this — each
    sort MUST carry a distinct ``job_id``: the supervisor takes it, so its
    counters (and the job's own stage/routing instruments) are then
    labelled ``job=<id>`` instead of assuming exclusive ownership of the
    registry namespace.
    """

    def __init__(
        self,
        sort,
        budget: Optional[RestartBudget] = None,
        *,
        registry=None,
    ):
        self.sort = sort
        self.budget = budget if budget is not None else RestartBudget()
        self.registry = registry
        self.job_id = getattr(sort, "job_id", None)
        self._job_labels = {"job": self.job_id} if self.job_id is not None else {}

    def _count(self, name: str, dv: float = 1.0, **labels) -> None:
        if self.registry is not None:
            self.registry.counter(name, **labels, **self._job_labels).inc(dv)

    def run(self, crashes=()) -> SupervisorReport:
        """Attempt the job until done, escalating per failure.

        ``crashes`` is the kill schedule: attempt ``i`` is killed at virtual
        instant ``crashes[i]`` when the schedule covers it; attempts beyond
        the schedule run uninterrupted.  (The schedule exists for tests and
        chaos drills — production failures would arrive via the fault plan.)
        """
        crashes = list(crashes)
        budget = self.budget
        actions: list[tuple[int, str, float]] = []
        total_backoff = 0.0
        consecutive = 0
        attempt_no = 0
        while True:
            routing_seed = None
            if attempt_no > 0:
                rung = ESCALATION_LADDER[min(consecutive, 3) - 1]
                if rung in ("replace", "restore"):
                    # Fresh placement decisions for the resumed work.
                    routing_seed = derive_seed(
                        self.sort.seed, f"replace{consecutive}"
                    )
                if rung == "restore":
                    # Cold-restore hygiene: resume from the serialised
                    # journal, not the in-memory object.
                    self.sort.manifest = RunManifest.from_json(
                        self.sort.manifest.to_json()
                    )
                pause = budget.backoff(consecutive)
                total_backoff += pause
                actions.append((attempt_no, rung, pause))
                self._count("repro_supervisor_escalations_total", rung=rung)
                self._count("repro_supervisor_backoff_seconds_total", pause)
            crash_at = crashes[attempt_no] if attempt_no < len(crashes) else None
            try:
                out = self.sort.attempt(crash_at=crash_at, routing_seed=routing_seed)
            except UnrecoverableJobError as exc:
                # The fleet itself is gone (nothing to replay from / stripe
                # onto / take a shard over): no ladder rung can help, so
                # convert the dead end into a clean abort instead of letting
                # the typed RuntimeError crash the caller.
                self._count("repro_supervisor_attempts_total")
                self._count("repro_supervisor_unrecoverable_total")
                return self._report(
                    completed=False, aborted=True, actions=actions,
                    total_backoff=total_backoff,
                    reason=f"unrecoverable: {exc}",
                )
            attempt_no += 1
            self._count("repro_supervisor_attempts_total")
            if out.crashed:
                self._count("repro_supervisor_crashes_total")
            if out.completed:
                return self._report(
                    completed=True, aborted=False, actions=actions,
                    total_backoff=total_backoff, reason="",
                )
            consecutive += 1
            if consecutive > budget.max_restarts:
                return self._report(
                    completed=False, aborted=True, actions=actions,
                    total_backoff=total_backoff,
                    reason=(
                        f"restart budget exhausted: {consecutive} consecutive "
                        f"failures > max_restarts={budget.max_restarts}"
                    ),
                )

    def _report(
        self, *, completed, aborted, actions, total_backoff, reason
    ) -> SupervisorReport:
        outcomes = list(self.sort.attempts)
        return SupervisorReport(
            completed=completed,
            aborted=aborted,
            n_attempts=len(outcomes),
            n_crashes=sum(1 for o in outcomes if o.crashed),
            actions=actions,
            total_virtual_time=self.sort.total_virtual_time + total_backoff,
            total_backoff=total_backoff,
            outcomes=outcomes,
            reason=reason,
            manifest_report=self.sort.manifest.report(),
        )
