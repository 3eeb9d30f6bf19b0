"""Deterministic fault injection for the emulated platform.

A :class:`FaultPlan` is an ordered schedule of :class:`Fault` events — ASU or
host fail-stops, degraded clocks, link flaps, message-level faults, transient
disk errors — and an :class:`Injector` arms the plan against an
:class:`~repro.emulator.platform.ActivePlatform`'s event loop.  Faults fire as
simulator callbacks at their scheduled virtual times, so the same plan against
the same workload and seed reproduces bit-identical runs.

Fault kinds form one closed table (:data:`FAULT_KINDS`): each row says what
the kind targets, how it is checked and described, and whether it is a
fail-stop or lossy.  Every other list of kinds is derived from that table.

:class:`RandomFaultModel` draws a plan stochastically (exponential
inter-arrival, MTTF per device class) from a seeded generator, for soak-style
testing where the fault schedule itself is part of the experiment seed.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Optional

import numpy as np

from ..emulator.params import SystemParams
from ..emulator.platform import ActivePlatform

__all__ = [
    "Fault",
    "FaultKind",
    "FaultPlan",
    "RandomFaultModel",
    "Injector",
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

#: kinds that perturb individual host<->ASU messages (the network's four
#: per-link fault windows)
MESSAGE_FAULT_KINDS = ("drop_msg", "dup_msg", "delay_msg", "corrupt_msg")

#: ``factor`` encoding for partition asymmetry (the Fault dataclass is frozen,
#: so the cut direction rides in an existing numeric field)
PARTITION_MODES = {0.0: "both", 1.0: "out", 2.0: "in"}


@dataclass(frozen=True, order=True)
class Fault:
    """One scheduled fault.  Ordered by time so plans sort chronologically.

    ``index`` picks the target device (ASU or host index; for ``link_flap``
    and the message kinds the host index, with ``peer`` the ASU index).
    ``duration`` applies to degradations, flaps, and fault windows; ``factor``
    is the degraded-clock multiplier; ``extra`` carries a kind-specific scalar
    (the added latency for ``delay_msg``).
    """

    t: float
    kind: str = field(compare=False)
    index: int = field(compare=False)
    duration: float = field(default=0.0, compare=False)
    factor: float = field(default=1.0, compare=False)
    peer: int = field(default=-1, compare=False)
    extra: float = field(default=0.0, compare=False)

    def __post_init__(self):
        row = FAULT_KINDS.get(self.kind)
        if row is None:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known kinds: "
                f"{', '.join(sorted(FAULT_KINDS))}"
            )
        try:
            operator.index(self.index), operator.index(self.peer)
        except TypeError:
            raise ValueError(f"{self.kind} index and peer must be integers, got "
                             f"{self.index!r} and {self.peer!r}") from None
        if not (all(map(math.isfinite, (self.t, self.duration, self.extra))) and self.t >= 0):
            raise ValueError(f"{self.kind} needs a finite nonnegative time and a finite "
                             f"duration and extra, got t={self.t!r}, "
                             f"duration={self.duration!r}, extra={self.extra!r}")
        row.check(self)
        if self.duration < 0:
            # Kinds with their own duration rule reject this above; this
            # catches windowless kinds handed an end-before-start window.
            raise ValueError(
                f"{self.kind} window ends before it starts: start t={self.t:g}, "
                f"duration {self.duration:g} < 0"
            )

    def describe(self) -> str:
        return FAULT_KINDS[self.kind].describe(self)


def mask_of(indices: Iterable[int]) -> int:
    """Pack device indices into the bitmask carried by a partition fault."""
    m = 0
    for i in indices:
        if i < 0:
            raise ValueError(f"negative device index {i} in partition group")
        m |= 1 << int(i)
    return m


def indices_of(mask: int) -> tuple[int, ...]:
    """Unpack a partition bitmask back into sorted device indices."""
    out, i, m = [], 0, int(mask)
    while m:
        if m & 1:
            out.append(i)
        m >>= 1
        i += 1
    return tuple(out)


# -- per-kind checks and descriptions -------------------------------------------
def _check_duration(f: Fault) -> None:
    if f.duration <= 0:
        raise ValueError(f"{f.kind} needs a positive duration")


def _check_degrade(f: Fault) -> None:
    _check_duration(f)
    if not (0 < f.factor < 1):
        raise ValueError("degrade factor must be in (0, 1)")


def _check_peered(f: Fault) -> None:
    _check_duration(f)
    if f.peer < 0:
        raise ValueError(f"{f.kind} needs a peer (ASU index)")


def _check_delay(f: Fault) -> None:
    _check_peered(f)
    if f.extra <= 0:
        raise ValueError("delay_msg needs a positive extra delay")


def _check_partition(f: Fault) -> None:
    _check_duration(f)
    if f.index < 0 or f.peer < 0:
        raise ValueError("partition masks must be nonnegative (index=ASU mask, "
                         "peer=host mask)")
    if f.index == 0 and f.peer == 0:
        raise ValueError("partition needs a nonempty minority group")
    if f.factor not in PARTITION_MODES:
        raise ValueError(
            f"partition factor {f.factor} must encode an asymmetry mode: "
            f"{PARTITION_MODES}"
        )


def _check_heal(f: Fault) -> None:
    if f.index != 0 or f.peer not in (-1, 0):
        raise ValueError("heal takes no target (it ends every active cut)")


def _check_coordinator(f: Fault) -> None:
    if f.index != 0:
        raise ValueError(
            "crash_coordinator targets the (single) job coordinator; index "
            f"must be 0, got {f.index}"
        )


def _describe_degrade(dev: str) -> Callable[[Fault], str]:
    return lambda f: (
        f"t={f.t:.3f} degrade {dev}{f.index} x{f.factor:.2f} "
        f"for {f.duration:.3f}s"
    )


def _describe_msg(verb: str) -> Callable[[Fault], str]:
    return lambda f: (
        f"t={f.t:.3f} {verb} host{f.index}<->asu{f.peer} for {f.duration:.3f}s"
    )


def _describe_partition(f: Fault) -> str:
    group = [f"asu{d}" for d in indices_of(f.index)]
    group += [f"host{h}" for h in indices_of(f.peer)]
    mode = PARTITION_MODES[f.factor]
    return (f"t={f.t:.3f} partition {{{','.join(group)}}} ({mode}) "
            f"for {f.duration:.3f}s")


# -- the table -----------------------------------------------------------------
@dataclass(frozen=True)
class FaultKind:
    """One row of :data:`FAULT_KINDS`: everything the code knows about a kind.

    ``target`` names what ``index``/``peer`` address: ``"asu"`` / ``"host"``
    (a device index), ``"link"`` (host index, ASU ``peer``), ``"cut"`` (ASU
    mask, host mask) or ``"job"`` (the coordinator; no platform device).
    ``check(fault)`` rejects bad fields at construction; ``describe(fault)``
    renders the summary used in traces and errors.  ``crash`` marks a
    permanent fail-stop; ``lossy`` marks a kind that loses data in flight or
    at rest, which only the reliable transport can mask.
    """

    target: str
    describe: Callable[[Fault], str]
    check: Callable[[Fault], None] = lambda f: None
    crash: bool = False
    lossy: bool = False


#: the closed table of fault kinds, keyed by name; read-only
FAULT_KINDS: Mapping[str, FaultKind] = MappingProxyType({
    "crash_asu": FaultKind("asu", lambda f: f"t={f.t:.3f} crash asu{f.index}", crash=True),
    "crash_host": FaultKind("host", lambda f: f"t={f.t:.3f} crash host{f.index}", crash=True),
    "crash_coordinator": FaultKind(
        "job", lambda f: f"t={f.t:.3f} crash_coordinator", _check_coordinator, crash=True),
    "degrade_asu": FaultKind("asu", _describe_degrade("asu"), _check_degrade),
    "degrade_host": FaultKind("host", _describe_degrade("host"), _check_degrade),
    "link_flap": FaultKind("link", _describe_msg("flap"), _check_peered),
    "drop_msg": FaultKind("link", _describe_msg("drop-msgs"), _check_peered, lossy=True),
    "dup_msg": FaultKind("link", _describe_msg("dup-msgs"), _check_peered, lossy=True),
    "delay_msg": FaultKind(
        "link",
        lambda f: (f"t={f.t:.3f} delay-msgs host{f.index}<->asu{f.peer} "
                   f"+{f.extra:.4f}s for {f.duration:.3f}s"),
        _check_delay, lossy=True),
    "corrupt_msg": FaultKind("link", _describe_msg("corrupt-msgs"), _check_peered, lossy=True),
    "disk_fault": FaultKind(
        "asu", lambda f: f"t={f.t:.3f} disk-fault asu{f.index} for {f.duration:.3f}s",
        _check_duration, lossy=True),
    "lose_replica": FaultKind("asu", lambda f: f"t={f.t:.3f} lose-replica asu{f.index}"),
    "partition": FaultKind("cut", _describe_partition, _check_partition, lossy=True),
    "heal": FaultKind("cut", lambda f: f"t={f.t:.3f} heal (end all partitions)", _check_heal),
})

#: kinds that permanently fail-stop their target; two of these against the
#: same device can never both fire (the first leaves nothing to kill), so a
#: plan containing such a pair is a scheduling bug, not a harsher schedule.
CRASH_FAULT_KINDS = frozenset(k for k, row in FAULT_KINDS.items() if row.crash)

#: kinds whose loss only the reliable transport can mask
LOSSY_FAULT_KINDS = frozenset(k for k, row in FAULT_KINDS.items() if row.lossy)


def _check_targets(f: Fault, p: SystemParams) -> None:
    """Reject a fault whose target does not exist on ``p``'s platform."""
    target = FAULT_KINDS[f.kind].target
    if target in ("host", "link") and not 0 <= f.index < p.n_hosts:
        raise ValueError(f"{f.describe()}: no such host (H={p.n_hosts})")
    if target == "asu" and not 0 <= f.index < p.n_asus:
        raise ValueError(f"{f.describe()}: no such ASU (D={p.n_asus})")
    if target == "link" and not 0 <= f.peer < p.n_asus:
        raise ValueError(f"{f.describe()}: no such ASU (D={p.n_asus})")
    if target == "cut" and f.kind == "partition":  # heal's masks are empty
        if f.index >> p.n_asus:
            raise ValueError(f"{f.describe()}: ASU mask exceeds D={p.n_asus}")
        if f.peer >> p.n_hosts:
            raise ValueError(f"{f.describe()}: host mask exceeds H={p.n_hosts}")
        if f.index == (1 << p.n_asus) - 1 and f.peer == (1 << p.n_hosts) - 1:
            raise ValueError(f"{f.describe()}: the minority group is the whole "
                             f"platform — nothing is on the other side of the cut")


# -- constructors --------------------------------------------------------------
def crash_asu(t: float, index: int) -> Fault:
    """Fail-stop ASU ``index`` at time ``t`` (permanent)."""
    return Fault(t=t, kind="crash_asu", index=index)


def crash_host(t: float, index: int) -> Fault:
    """Fail-stop host ``index`` at time ``t`` (permanent)."""
    return Fault(t=t, kind="crash_host", index=index)


def crash_coordinator(t: float) -> Fault:
    """Fail-stop the whole job at simulated instant ``t``.

    No platform node dies: the job's fault hook stops the simulation clock,
    modelling the coordinating process being killed with all its volatile
    state (see :mod:`repro.recovery.checkpoint`).
    """
    return Fault(t=t, kind="crash_coordinator", index=0)


def degrade_asu(t: float, index: int, factor: float, duration: float) -> Fault:
    """Scale asu ``index``'s clock by ``factor`` over ``[t, t + duration)``."""
    return Fault(t=t, kind="degrade_asu", index=index, factor=factor, duration=duration)


def degrade_host(t: float, index: int, factor: float, duration: float) -> Fault:
    """Scale host ``index``'s clock by ``factor`` over ``[t, t + duration)``."""
    return Fault(t=t, kind="degrade_host", index=index, factor=factor, duration=duration)


def link_flap(t: float, host: int, asu: int, duration: float) -> Fault:
    """Take the host<->ASU link down over ``[t, t + duration)``.

    The transport is assumed reliable: in-flight messages are delayed past
    the outage, not lost (see :meth:`repro.emulator.net.Network.set_link_down`).
    """
    return Fault(t=t, kind="link_flap", index=host, duration=duration, peer=asu)


def drop_msg(t: float, host: int, asu: int, duration: float) -> Fault:
    """Silently drop every host<->ASU message sent in ``[t, t + duration)``.

    Unlike :func:`link_flap`, dropped messages are *lost*, not deferred —
    surviving this requires the reliable transport in
    :mod:`repro.resilience.channel`.
    """
    return Fault(t=t, kind="drop_msg", index=host, duration=duration, peer=asu)


def dup_msg(t: float, host: int, asu: int, duration: float) -> Fault:
    """Deliver every host<->ASU message twice in ``[t, t + duration)``."""
    return Fault(t=t, kind="dup_msg", index=host, duration=duration, peer=asu)


def delay_msg(t: float, host: int, asu: int, duration: float, delay: float) -> Fault:
    """Add ``delay`` seconds to every host<->ASU delivery in the window."""
    return Fault(
        t=t, kind="delay_msg", index=host, duration=duration, peer=asu, extra=delay
    )


def corrupt_msg(t: float, host: int, asu: int, duration: float) -> Fault:
    """Flag every host<->ASU message sent in the window as corrupted.

    Corruption is detectable (a checksum mismatch): receivers see
    ``Message.corrupted`` and a reliable channel rejects the payload without
    acknowledging it, forcing a retransmission.
    """
    return Fault(t=t, kind="corrupt_msg", index=host, duration=duration, peer=asu)


def disk_fault(t: float, asu: int, duration: float) -> Fault:
    """Make ASU ``asu``'s disk reads fail transiently over ``[t, t + duration)``.

    Reads started inside the window raise
    :class:`~repro.emulator.disk.DiskFault`; writes are unaffected (the
    write-behind cache absorbs them).
    """
    return Fault(t=t, kind="disk_fault", index=asu, duration=duration)


def lose_replica(t: float, asu: int) -> Fault:
    """Silently discard every replica copy stored on ASU ``asu`` at ``t``.

    Models media loss (a scrubbed-out disk) on an otherwise healthy node:
    the ASU keeps serving, but the :class:`~repro.replica.ReplicationManager`
    must detect the under-replication and re-replicate in the background.
    A no-op for jobs that do not replicate (the ASU's own state is intact);
    the injector only reports it through ``on_fault``.
    """
    return Fault(t=t, kind="lose_replica", index=asu)


def partition(t: float, asus: Iterable[int], hosts: Iterable[int] = (),
              duration: float = 0.25, asymmetry: str = "both") -> Fault:
    """Cut the network between a minority group and the rest of the platform.

    ``asus``/``hosts`` name the minority side; every path that crosses the
    cut silently loses its messages (no dead-letter — the destination is
    alive, the *route* is gone) over ``[t, t + duration)``.  Paths within
    the minority and within the majority are untouched.  ``asymmetry``
    picks the severed direction relative to the minority:

    * ``"both"`` — symmetric cut, neither direction crosses;
    * ``"out"``  — minority→majority severed, inbound still delivered
      (the classic zombie case: the node hears the world but cannot ack);
    * ``"in"``   — majority→minority severed, outbound still delivered
      (heartbeats keep flowing, so a network-borne detector stays quiet).

    Nodes keep running throughout — partitions never kill processes, which
    is exactly what makes them dangerous to a fail-stop takeover protocol.
    """
    factor = {mode: code for code, mode in PARTITION_MODES.items()}.get(asymmetry)
    if factor is None:
        raise ValueError(
            f"partition asymmetry {asymmetry!r} must be 'both', 'out' or 'in'"
        )
    return Fault(
        t=t, kind="partition", index=mask_of(asus), peer=mask_of(hosts),
        duration=duration, factor=factor,
    )


def heal(t: float) -> Fault:
    """End every partition window still active at ``t``.

    Truncates each open cut to ``t`` (windows already closed are untouched)
    so a seeded plan can model repair crews arriving early.  Re-admission of
    expelled nodes is *not* automatic: it happens when their heartbeats
    resume through the healed network (see docs/PARTITIONS.md).
    """
    return Fault(t=t, kind="heal", index=0, peer=0)


class FaultPlan:
    """An immutable-ish, chronologically sorted fault schedule.

    Construction validates the schedule's internal consistency: every entry
    must be a :class:`Fault` (so of a kind in :data:`FAULT_KINDS`), windows
    must not end before they start (checked at :class:`Fault` construction),
    and no two permanent crash faults may target the same device.
    """

    def __init__(self, faults: Iterable[Fault] = ()):
        self.faults: list[Fault] = sorted(faults)
        self._check_consistency()

    def add(self, fault: Fault) -> "FaultPlan":
        self.faults.append(fault)
        self.faults.sort()
        self._check_consistency()
        return self

    def _check_consistency(self) -> None:
        crashed: dict[tuple[str, int], Fault] = {}
        for f in self.faults:
            if not isinstance(f, Fault):
                raise TypeError(
                    f"FaultPlan entries must be Fault instances, got {f!r}"
                )
            if f.kind in CRASH_FAULT_KINDS:
                key = (f.kind, f.index)
                prev = crashed.get(key)
                if prev is not None:
                    raise ValueError(
                        f"overlapping crash windows for the same target: "
                        f"[{prev.describe()}] and [{f.describe()}] — a "
                        f"crashed device never restarts, so the second "
                        f"fault could never fire"
                    )
                crashed[key] = f

    def __iter__(self) -> Iterator[Fault]:
        return iter(self.faults)

    def __len__(self) -> int:
        return len(self.faults)

    def __repr__(self) -> str:
        return f"<FaultPlan {len(self.faults)} fault(s)>"

    def horizon(self) -> float:
        """Latest instant at which any fault is still active."""
        return max((f.t + f.duration for f in self.faults), default=0.0)

    def kinds(self) -> set[str]:
        """The set of fault kinds present in the plan."""
        return {f.kind for f in self.faults}

    def validate(self, params: SystemParams) -> "FaultPlan":
        """Check every fault targets a device that exists; returns self."""
        for f in self.faults:
            _check_targets(f, params)
        return self

    def scaled(self, time_factor: float) -> "FaultPlan":
        """A copy with every fault time (and duration) scaled — for re-using
        one schedule across workloads of different lengths."""
        return FaultPlan(
            replace(f, t=f.t * time_factor, duration=f.duration * time_factor)
            for f in self.faults
        )


class RandomFaultModel:
    """Seeded stochastic fault schedule: exponential inter-arrival per device.

    Each device class gets a mean-time-to-failure; crash faults are drawn as a
    Poisson process per device, degradations, message faults, and disk faults
    likewise with their own MTTFs.  ``None`` disables a fault class.  The same
    ``seed`` always yields the same plan for the same parameters and horizon;
    the classes draw in a fixed order, so a committed seeded plan never moves.
    """

    def __init__(
        self,
        seed: int,
        mttf_asu: Optional[float] = None,
        mttf_host: Optional[float] = None,
        mtt_degrade: Optional[float] = None,
        degrade_duration: float = 1.0,
        mtt_drop: Optional[float] = None,
        mtt_dup: Optional[float] = None,
        mtt_delay: Optional[float] = None,
        mtt_corrupt: Optional[float] = None,
        mtt_disk_fault: Optional[float] = None,
        msg_fault_duration: float = 0.02,
        msg_delay: float = 0.002,
        disk_fault_duration: float = 0.05,
    ):
        self.seed = int(seed)
        self.mttf_asu = mttf_asu
        self.mttf_host = mttf_host
        self.mtt_degrade = mtt_degrade
        self.degrade_duration = float(degrade_duration)
        self.mtt_drop = mtt_drop
        self.mtt_dup = mtt_dup
        self.mtt_delay = mtt_delay
        self.mtt_corrupt = mtt_corrupt
        self.mtt_disk_fault = mtt_disk_fault
        self.msg_fault_duration = float(msg_fault_duration)
        self.msg_delay = float(msg_delay)
        self.disk_fault_duration = float(disk_fault_duration)

    def _arrivals(self, rng: np.random.Generator, mttf: float, horizon: float) -> list[float]:
        times, t = [], 0.0
        while True:
            t += float(rng.exponential(mttf))
            if t >= horizon:
                return times
            times.append(t)

    def plan(self, params: SystemParams, horizon: float) -> FaultPlan:
        """Draw the fault schedule over ``[0, horizon)``."""
        rng = np.random.default_rng(self.seed)
        faults: list[Fault] = []
        # Crashes: one Poisson stream per device, truncated to the earliest
        # crash per class so the run keeps a quorum of survivors (recovery
        # needs at least one).
        if self.mttf_asu is not None:
            crashes = []
            for d in range(params.n_asus):
                crashes += [(t, d) for t in self._arrivals(rng, self.mttf_asu, horizon)]
            for t, d in sorted(crashes)[:1]:
                faults.append(crash_asu(t, d))
        if self.mttf_host is not None:
            crashes = []
            for h in range(params.n_hosts):
                crashes += [(t, h) for t in self._arrivals(rng, self.mttf_host, horizon)]
            for t, h in sorted(crashes)[:1]:
                faults.append(crash_host(t, h))
        if self.mtt_degrade is not None:
            for d in range(params.n_asus):
                for t in self._arrivals(rng, self.mtt_degrade, horizon):
                    faults.append(degrade_asu(t, d, factor=0.5, duration=self.degrade_duration))
        # Message-fault windows per (host, asu) pair.
        msg_classes = (
            (self.mtt_drop, "drop_msg", 0.0),
            (self.mtt_dup, "dup_msg", 0.0),
            (self.mtt_delay, "delay_msg", self.msg_delay),
            (self.mtt_corrupt, "corrupt_msg", 0.0),
        )
        for mtt, kind, extra in msg_classes:
            if mtt is None:
                continue
            for h in range(params.n_hosts):
                for d in range(params.n_asus):
                    for t in self._arrivals(rng, mtt, horizon):
                        faults.append(Fault(
                            t=t, kind=kind, index=h, peer=d,
                            duration=self.msg_fault_duration, extra=extra,
                        ))
        if self.mtt_disk_fault is not None:
            for d in range(params.n_asus):
                for t in self._arrivals(rng, self.mtt_disk_fault, horizon):
                    faults.append(disk_fault(t, d, self.disk_fault_duration))
        return FaultPlan(faults).validate(params)


class Injector:
    """Arms a :class:`FaultPlan` against a platform's event loop.

    Crash faults fail-stop the node through
    :meth:`~repro.emulator.platform.ActivePlatform.fail_node` (processes
    interrupted, traffic dead-lettered).  Degradations scale the target CPU's
    clock and schedule the restore.  Link flaps register a downtime window
    with the network; message faults register drop/dup/delay/corrupt windows;
    disk faults register transient read-error windows on the target ASU's
    disk.  Faults against already-dead nodes are recorded in :attr:`skipped`
    rather than fired.
    """

    def __init__(
        self,
        plat: ActivePlatform,
        plan: FaultPlan,
        on_fault: Optional[Callable[[Fault], None]] = None,
    ):
        self.plat = plat
        self.plan = plan.validate(plat.params)
        #: callback invoked after each fault is applied (recovery hook)
        self.on_fault = on_fault
        #: faults actually applied, in firing order
        self.injected: list[Fault] = []
        #: faults skipped because their target was already dead
        self.skipped: list[Fault] = []
        self._armed = False

    def arm(self) -> None:
        """Schedule every fault in the plan.  Call once, before ``run()``."""
        if self._armed:
            raise RuntimeError("injector already armed")
        self._armed = True
        now = self.plat.sim.now
        for f in self.plan:
            self.plat.sim.schedule(
                lambda _ev, fault=f: self._fire(fault), delay=max(0.0, f.t - now)
            )

    # -- firing ---------------------------------------------------------------
    def _fire(self, f: Fault) -> None:
        t = self.plat.sim.now
        kind = FAULT_KINDS[f.kind]
        if kind.target == "link":
            host_id = self.plat.hosts[f.index].node_id
            asu_id = self.plat.asus[f.peer].node_id
            if f.kind == "link_flap":
                self.plat.network.set_link_down(host_id, asu_id, t, t + f.duration)
            else:
                self.plat.network.set_msg_fault(
                    host_id, asu_id, f.kind, t, t + f.duration, extra=f.extra
                )
        elif kind.target == "cut":
            if f.kind == "heal":
                self.plat.network.heal_partitions(t)
            else:
                group = [self.plat.asus[d].node_id for d in indices_of(f.index)]
                group += [self.plat.hosts[h].node_id for h in indices_of(f.peer)]
                self.plat.network.set_partition(
                    group, t, t + f.duration, mode=PARTITION_MODES[f.factor]
                )
        elif f.kind in ("lose_replica", "crash_coordinator"):
            pass  # no platform semantics: the job acts on these via on_fault
        else:
            devices = self.plat.asus if kind.target == "asu" else self.plat.hosts
            node = devices[f.index]
            if not node.alive:
                self.skipped.append(f)
                return
            if kind.crash:
                self.plat.fail_node(node)
            elif f.kind == "disk_fault":
                node.disk.set_fault_window(t, t + f.duration)
            else:  # degrade
                node.cpu.set_speed(f.factor)
                self.plat.sim.schedule(
                    lambda _ev, cpu=node.cpu: cpu.set_speed(1.0), delay=f.duration
                )
        self.injected.append(f)
        tracer = self.plat.sim.tracer
        if tracer is not None:
            tracer.instant(
                self.plat.sim.now, "faults", f"inject {f.describe()}", cat="fault"
            )
        m = self.plat.sim.metrics
        if m is not None:
            m.counter("repro_faults_injected_total", kind=f.kind).inc()
        if self.on_fault is not None:
            self.on_fault(f)
