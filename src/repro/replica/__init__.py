"""repro.replica — deterministic placement and r-way run replication.

- :mod:`~repro.replica.placement` — ASURA-style deterministic shard ->
  ordered-replica-set mapping: uniform within sampling noise, and resizing
  the fleet N -> N±1 relocates only ~1/N of assignments;
- :mod:`~repro.replica.manager` — the :class:`ReplicationManager` state
  machine: write fan-out to every planned replica, promotion on
  ASU crash (zero run re-emission when r >= 2), gauge-steered read plans;
- :mod:`~repro.replica.durability` — ``ReplicatedRuns``, which drives the
  manager (and the anti-entropy repair loop) behind the fault-tolerant
  DSM-Sort pass's run-durability seam.

See ``docs/REPLICATION.md`` for the design and the promotion-vs-replay
decision table.
"""

from .manager import ReplicaSet, ReplicationConfig, ReplicationManager
from .placement import SEGMENT, ReplicaPlacement

__all__ = [
    "ReplicaPlacement",
    "ReplicaSet",
    "ReplicationConfig",
    "ReplicationManager",
    "SEGMENT",
]
