"""The dynamic load manager: runtime feedback driving routing decisions.

"Dynamic changes in load at different points of the system can cause
imbalances ... the load distribution is difficult to determine statically
when ASUs are shared by multiple applications or if nodes have heterogeneous
performance characteristics.  Moreover, many data-intensive applications are
data-dependent; static partitioning of work does not yield a predictably
balanced distribution." (§3.3)

The :class:`LoadManager` ties the pieces together: it owns a
:class:`~repro.core.routing.Router`, keeps per-instance progress counters fed
by the runtime, exposes imbalance metrics, and (between runs) consults the
:class:`~repro.core.config.ConfigSolver` to re-pick the DSM configuration —
the two adaptation axes the paper demonstrates (Figures 9 and 10).

All feedback lives in a :class:`~repro.metrics.MetricsRegistry`: the queue
depths and progress counts the router decides from ARE the registry's gauge
vectors (shared float64 storage, see :meth:`Router.attach_feedback`), so the
load-management signal path and the observability export are one and the
same — the paper's "dynamic load conditions visible to the system" as
first-class metrics.  Pass a shared registry to surface them in a metered
run; by default the manager owns a private one.
"""

from __future__ import annotations

import weakref
from typing import Optional

import numpy as np

from ..emulator.params import SystemParams
from ..metrics.registry import MetricsRegistry
from .config import ConfigSolver, DSMConfig
from .routing import Router, make_router

__all__ = ["LoadManager", "InstanceStats"]


class InstanceStats:
    """Progress counters for one functor instance.

    A read-only view over the load manager's registry-backed gauge vectors —
    the numbers here are literally the routing feedback signal, not a copy.
    """

    __slots__ = ("_lm", "_i")

    def __init__(self, lm: "LoadManager", i: int):
        self._lm = weakref.proxy(lm)  # the manager owns its stats views
        self._i = i

    @property
    def records_routed(self) -> int:
        return int(self._lm._gv_routed.values[self._i])

    @property
    def records_completed(self) -> int:
        return int(
            self._lm._gv_routed.values[self._i]
            - self._lm._gv_backlog.values[self._i]
        )

    @property
    def busy_cycles(self) -> float:
        return float(self._lm._gv_busy.values[self._i])

    @property
    def quarantined(self) -> bool:
        """Set when a detected failure removed this instance from routing."""
        return not bool(self._lm.router.alive[self._i])

    @property
    def backlog(self) -> int:
        return int(self._lm._gv_backlog.values[self._i])

    @property
    def backpressure(self) -> int:
        """Records currently stalled behind this instance's send window."""
        return int(self._lm._gv_bp.values[self._i])

    def __repr__(self) -> str:
        return (
            f"<InstanceStats #{self._i} routed={self.records_routed} "
            f"backlog={self.backlog}{' quarantined' if self.quarantined else ''}>"
        )


class LoadManager:
    """Routing + reconfiguration authority for one application run."""

    def __init__(
        self,
        params: SystemParams,
        n_instances: int,
        n_buckets: int,
        policy: str = "sr",
        rng: Optional[np.random.Generator] = None,
        weights=None,
        registry: Optional[MetricsRegistry] = None,
        job_id: Optional[str] = None,
    ):
        self.params = params
        self.policy = policy
        self.router: Router = make_router(
            policy, n_instances, n_buckets=n_buckets, rng=rng, weights=weights
        )
        #: the feedback registry (shared with the platform when metering a
        #: run, private otherwise — routing always reads registry signals)
        self.registry = registry if registry is not None else MetricsRegistry()
        #: scheduler namespace: when several jobs share one registry (the
        #: multi-tenant scheduler), each job's feedback vectors carry a
        #: ``job=<id>`` label so they never alias.  None adds no label, so
        #: single-job registry exports are byte-identical to before.
        self.job_id = job_id
        self._job_labels = {"job": job_id} if job_id is not None else {}
        self._gv_backlog = self.registry.gauge_vector(
            "repro_lm_queue_depth_records", n_instances, **self._job_labels
        )
        self._gv_routed = self.registry.gauge_vector(
            "repro_lm_routed_records_total", n_instances, **self._job_labels
        )
        self._gv_busy = self.registry.gauge_vector(
            "repro_lm_busy_cycles_total", n_instances, **self._job_labels
        )
        self._gv_bp = self.registry.gauge_vector(
            "repro_lm_backpressure_records", n_instances, **self._job_labels
        )
        # A job may rebuild its LoadManager against the same registry (e.g.
        # on a pass re-run): get-or-create returns the existing vectors, so
        # start each manager's life with clean counters.
        for gv in (self._gv_backlog, self._gv_routed, self._gv_busy, self._gv_bp):
            if gv.n != n_instances:
                raise ValueError(
                    f"registry metric {gv.key!r} sized for {gv.n} instances, "
                    f"need {n_instances}"
                )
            gv.values[:] = 0.0
            gv.element_dead[:] = False
        # The router's decision arrays ARE the registry vectors from here on.
        self.router.attach_feedback(self._gv_backlog.values, self._gv_routed.values)
        self.router.attach_backpressure(self._gv_bp.values)
        self.instances = [InstanceStats(self, i) for i in range(n_instances)]
        self.n_buckets = n_buckets
        #: simulator whose tracer receives routing-decision counters (optional)
        self._sim = None
        # Speculation signal (see repro.recovery.speculate): instances the
        # straggler speculator currently considers slow.  Folded into every
        # route() as a soft steer-around set, exactly like backpressure and
        # breaker-open links.  Empty unless a speculator is attached, so
        # fault-free routing decisions are untouched; the backing gauge
        # vector is allocated lazily for the same reason (keeps unmetered
        # and pre-speculation registry exports byte-identical).
        self._spec_slow: set[int] = set()
        self._gv_spec = None

    def attach_sim(self, sim) -> None:
        """Attach the simulator so routing decisions land in its trace."""
        self._sim = sim

    # -- routing path --------------------------------------------------------
    def route(self, bucket: int, n_records: int, avoid=()) -> int:
        """Pick the instance for a fragment and record the decision.

        Never routes to a quarantined instance: the router's policy choice is
        masked/remapped onto survivors (see :meth:`Router.pick`).  ``avoid``
        passes through as the soft steer-around set (breaker-open links),
        merged with any instances the speculator has flagged slow.
        """
        if self._spec_slow:
            avoid = tuple(avoid) + tuple(
                i for i in sorted(self._spec_slow) if i not in avoid
            )
        inst = self.router.pick(bucket, n_records, avoid=avoid)
        self.router.on_sent(inst, n_records)
        sim = self._sim
        if sim is not None and sim.tracer is not None:
            # Not named "records": routing counts are decisions, not stage
            # throughput, and must not feed the profile's records column.
            sim.tracer.counter(
                sim.now, "router", f"inst{inst}",
                float(self._gv_routed.values[inst]),
            )
        return inst

    # -- failure handling ------------------------------------------------------
    def quarantine(self, instance: int) -> None:
        """Remove an instance from routing after a detected failure (§3.3).

        Streams already routed stay pinned — the runtime decides what to do
        with records the dead instance had accepted (see the recovery path in
        :mod:`repro.dsmsort.runtime`); the load manager only guarantees no
        *new* fragment lands there.
        """
        self.router.quarantine(instance)
        # Exported feedback for a quarantined instance reads absent (NaN),
        # not frozen: its queue depth is no longer a meaningful signal.
        self._gv_backlog.mark_element_dead(instance)

    def alive_instances(self) -> list[int]:
        return [i for i in range(len(self.instances)) if self.router.alive[i]]

    def complete(self, instance: int, n_records: int, busy_cycles: float = 0.0) -> None:
        """Runtime feedback: an instance finished processing records."""
        self.router.on_completed(instance, n_records)
        if busy_cycles:
            self._gv_busy.add(instance, busy_cycles)

    # -- speculation feedback --------------------------------------------------
    def mark_speculative(self, instance: int) -> None:
        """Flag ``instance`` as a suspected straggler (soft steer-around).

        Unlike :meth:`quarantine` this is advisory and reversible: the
        instance keeps its routed streams and can still receive fragments
        when every alternative is worse, but new routing decisions prefer
        its peers until :meth:`clear_speculative` is called.
        """
        if self._gv_spec is None:
            self._gv_spec = self.registry.gauge_vector(
                "repro_lm_speculative_slow", len(self.instances), **self._job_labels
            )
        self._spec_slow.add(instance)
        self._gv_spec.set(instance, 1.0)

    def clear_speculative(self, instance: int) -> None:
        """The suspected straggler caught up; stop steering around it."""
        self._spec_slow.discard(instance)
        if self._gv_spec is not None:
            self._gv_spec.set(instance, 0.0)

    @property
    def speculative_slow(self) -> tuple[int, ...]:
        return tuple(sorted(self._spec_slow))

    # -- backpressure feedback -------------------------------------------------
    def backpressure_begin(self, instance: int, n_records: int) -> None:
        """A sender started waiting on ``instance``'s send window."""
        self._gv_bp.add(instance, float(n_records))

    def backpressure_end(self, instance: int, n_records: int, waited: float = 0.0) -> None:
        """The window wait on ``instance`` resolved after ``waited`` seconds."""
        self._gv_bp.add(instance, -float(n_records))
        if waited and self.registry is not None:
            self.registry.counter(
                "repro_lm_backpressure_seconds_total", **self._job_labels
            ).inc(waited)

    # -- diagnostics ---------------------------------------------------------
    def imbalance(self) -> float:
        """max/mean of records routed (1.0 = perfect balance)."""
        routed = self._gv_routed.values
        total = routed.sum()
        if total == 0:
            return 1.0
        return float(routed.max() / (total / len(routed)))

    def backlogs(self) -> list[int]:
        return [s.backlog for s in self.instances]

    # -- reconfiguration -----------------------------------------------------
    def reconfigure(self, n_records: int, gamma: int = 64) -> DSMConfig:
        """Pick the DSM configuration for the *next* run on this platform.

        This is the between-runs adaptation of Figure 9 ("adaptive" series):
        functors themselves are reparameterised — compute migrates without
        moving application objects (§3.3).
        """
        return ConfigSolver(self.params, gamma=gamma).choose(n_records)
