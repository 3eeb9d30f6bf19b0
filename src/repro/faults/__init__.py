"""repro.faults — fault injection and failure recovery for the emulation.

The paper evaluates load management under healthy hardware; this package
exercises the same machinery under failure.  It provides:

- :mod:`~repro.faults.injector` — deterministic scheduled faults
  (fail-stops, degraded clocks, link flaps, message drop/dup/delay/corrupt
  windows, transient disk errors) plus a seeded random model;
- :mod:`~repro.faults.detector` — heartbeat/timeout failure detection with
  a configurable latency bound;
- :mod:`~repro.faults.report` — injected / detected / recovered accounting.

Recovery itself lives with the components that own the state: routing
policies quarantine dead instances (:mod:`repro.core.routing`), the placement
solver re-places functors off dead nodes (:mod:`repro.core.placement`), and
the DSM-Sort runtime re-runs lost run-formation work
(:mod:`repro.dsmsort.runtime`, ``faults=`` mode).
"""

from .detector import FailureDetector
from .errors import UnrecoverableJobError
from .injector import (
    CRASH_FAULT_KINDS,
    FAULT_KINDS,
    LOSSY_FAULT_KINDS,
    MESSAGE_FAULT_KINDS,
    Fault,
    FaultKind,
    FaultPlan,
    Injector,
    RandomFaultModel,
    corrupt_msg,
    crash_asu,
    crash_coordinator,
    crash_host,
    degrade_asu,
    degrade_host,
    delay_msg,
    disk_fault,
    drop_msg,
    dup_msg,
    heal,
    indices_of,
    link_flap,
    lose_replica,
    mask_of,
    partition,
)
from .report import FaultReport

__all__ = [
    "Fault",
    "FaultKind",
    "FaultPlan",
    "Injector",
    "RandomFaultModel",
    "FailureDetector",
    "FaultReport",
    "UnrecoverableJobError",
    "FAULT_KINDS",
    "MESSAGE_FAULT_KINDS",
    "CRASH_FAULT_KINDS",
    "LOSSY_FAULT_KINDS",
    "crash_asu",
    "crash_host",
    "crash_coordinator",
    "degrade_asu",
    "degrade_host",
    "link_flap",
    "drop_msg",
    "dup_msg",
    "delay_msg",
    "corrupt_msg",
    "disk_fault",
    "lose_replica",
    "partition",
    "heal",
    "mask_of",
    "indices_of",
]
