"""repro.recovery — job-level durability for the emulated platform.

The resilience layer (PR 4) makes *messages* survive faults; this package
makes *jobs* survive them:

* :mod:`~repro.recovery.manifest` — a write-ahead run manifest durably
  logging DSM-Sort progress (distribute-block/shard completion, emitted runs
  with content digests, the pass-2 merge frontier) with its I/O charged
  simulated time through the emulated disk layer;
* :mod:`~repro.recovery.checkpoint` — :class:`RecoverableSort`, which
  survives the ``crash_coordinator`` fault kind: it re-creates a killed
  :class:`~repro.dsmsort.DsmSortJob` from the manifest and resumes it
  without re-reading completed shards;
* :mod:`~repro.recovery.speculate` — a straggler speculator that watches
  per-replica progress rates in the metrics registry and hedges stage
  laggards with duplicate functor replicas (first-finisher-wins,
  byte-compared, exactly-once);
* :mod:`~repro.recovery.supervisor` — :class:`JobSupervisor`: restart
  budgets with exponential backoff and the retry → re-place →
  checkpoint-restore → abort escalation ladder.

See docs/RECOVERY.md for the manifest format and restart semantics.
"""

from ..faults.injector import crash_coordinator
from .checkpoint import AttemptOutcome, RecoverableSort
from .manifest import CheckpointError, RestoredState, RunManifest, digest_records
from .speculate import SpeculationPolicy, Speculator, StragglerSignal
from .supervisor import (
    ESCALATION_LADDER,
    JobSupervisor,
    RestartBudget,
    SupervisorReport,
)

__all__ = [
    "RunManifest",
    "RestoredState",
    "CheckpointError",
    "digest_records",
    "RecoverableSort",
    "AttemptOutcome",
    "crash_coordinator",
    "SpeculationPolicy",
    "Speculator",
    "StragglerSignal",
    "JobSupervisor",
    "RestartBudget",
    "SupervisorReport",
    "ESCALATION_LADDER",
]
