"""What the optional layers may cost, counted rather than timed.

DESIGN.md decision 7: an optional layer pays per series or shard, not per
event, and a finished pass leaves no reference cycle — collaborators hold the
job weakly, and every pass closes its platform when it returns.  Three
consequences are checked here with the cycle collector switched off, so each
is a property of reference counting alone:

- a finished job is freed the moment its last reference goes, on every rung
  of the overhead ladder (``benchmarks/perf/ladder.py``) built on the
  ledger's ``guarded@2^12`` cell, on the ``guarded_sort`` form of it (every
  layer under a message-drop window and an ASU crash) and on a bare
  ``frag_cell``-style job;
- trace rows are stored as floats and strs, so a traced pass leaves ~0
  objects the collector must track per record;
- the metrics registry builds a label key per series, not per observation.
"""

import gc
import weakref

import pytest

from repro.dsmsort.runtime import DsmSortJob
from repro.faults import FaultPlan, crash_asu, degrade_asu, drop_msg
from repro.metrics import MetricsRegistry
from repro.metrics import registry as registry_mod
from repro.recovery import RunManifest
from repro.recovery.speculate import SpeculationPolicy
from repro.replica import ReplicationConfig
from repro.resilience.channel import RetryPolicy
from repro.trace import Tracer

from .test_ledger_counters import SEED, _cell, _guarded


@pytest.fixture(scope="module")
def t_bare():
    """Fault-free bare makespan of the cell: sizes the retry policy and the
    fault instants, as the ladder and the ``guarded_sort`` workload do."""
    return _guarded()().run_pass1().makespan


def _retry(t0):
    return RetryPolicy(timeout=t0 / 50, max_backoff=t0 / 10, window=64)


def _all_layers(t0, faults=None):
    return dict(
        faults=faults if faults is not None else FaultPlan(),
        transport="reliable", retry_policy=_retry(t0),
        manifest=RunManifest(), replication=ReplicationConfig(r=2),
        metrics=MetricsRegistry(), tracer=Tracer(),
    )


#: the ladder's rungs: name -> t_bare -> job kwargs (fresh per job)
RUNGS = {
    "bare": lambda t0: {},
    "metrics": lambda t0: {"metrics": MetricsRegistry()},
    "tracer": lambda t0: {"tracer": Tracer()},
    "ft": lambda t0: {"faults": FaultPlan()},
    "reliable": lambda t0: {"faults": FaultPlan(), "transport": "reliable",
                            "retry_policy": _retry(t0)},
    "manifest": lambda t0: {"faults": FaultPlan(), "manifest": RunManifest()},
    "r2": lambda t0: {"faults": FaultPlan(), "replication": ReplicationConfig(r=2)},
    "all": _all_layers,
    "guarded_sort": lambda t0: _all_layers(t0, FaultPlan(
        [drop_msg(0.2 * t0, 0, 5, t0 / 8), crash_asu(0.4 * t0, 3)]
    )),
}


def _whole_sort(job) -> None:
    job.run_pass1()
    job.run_pass2()
    job.verify()


def _freed_on_del(make, run=_whole_sort) -> bool:
    """Run a job (by default both passes and ``verify``) with the cycle
    collector off; True when dropping the one reference frees it."""
    gc.collect()
    gc.disable()
    try:
        job = make()
        run(job)
        ref = weakref.ref(job)
        del job
        return ref() is None
    finally:
        gc.enable()


class TestFinishedJobIsFreed:
    @pytest.mark.parametrize("rung", list(RUNGS))
    def test_guarded_rungs(self, rung, t_bare):
        assert _freed_on_del(lambda: _guarded(**RUNGS[rung](t_bare))())

    def test_bare_frag_job(self):
        assert _freed_on_del(lambda: DsmSortJob(
            *_cell(64, 1, 1 << 12, 256), policy="static", active=True, seed=SEED
        ))

    def test_pass_cut_by_its_deadline(self, t_bare):
        # Detection sized to fire mid-run, so a takeover process (whose
        # completion callback closes over the job) is still running when
        # the deadline stops the clock.
        def make():
            return _guarded(
                heartbeat_interval=t_bare / 40, heartbeat_timeout=t_bare / 10,
                **RUNGS["guarded_sort"](t_bare),
            )()

        def run(job):
            assert not job.run_pass1(deadline=0.6 * t_bare).completed

        assert _freed_on_del(make, run)

    def test_speculating_job(self, t_bare):
        # The straggler speculator is the one collaborator outside the
        # ladder; a degraded ASU makes it run.
        assert _freed_on_del(lambda: _guarded(
            faults=FaultPlan([degrade_asu(0.1 * t_bare, 1, 0.2, t_bare)]),
            speculation=SpeculationPolicy(interval=t_bare / 20, warmup=t_bare / 10),
        )())

    def test_closed_platform_keeps_its_counters(self, t_bare):
        job = _guarded(**RUNGS["guarded_sort"](t_bare))()
        job.run_pass1()
        plat = job.platform
        assert plat.sim.peek() == float("inf")  # nothing left queued
        assert plat.sim.tracer is None and plat.sim.metrics is None
        assert plat.network.dead_letter_hook is None
        assert plat.sim.n_events_processed > 10_000
        assert sum(n.cpu.n_segments for n in plat.nodes) > 0


def _tracked_reachable(root) -> int:
    """Objects the cycle collector tracks that are reachable from ``root``
    (classes, and so the modules behind them, excluded)."""
    seen, stack = {id(root)}, [root]
    while stack:
        for r in gc.get_referents(stack.pop()):
            if id(r) not in seen and gc.is_tracked(r) and not isinstance(r, type):
                seen.add(id(r))
                stack.append(r)
    return len(seen) - 1


def test_trace_rows_are_not_collector_tracked():
    tracer = Tracer()
    gc.disable()
    try:
        _guarded(tracer=tracer, replication=ReplicationConfig(r=2))().run_pass1()
        tracked = _tracked_reachable(tracer)
    finally:
        gc.enable()
    assert tracer.n_events() > 20_000
    # Per-track bookkeeping only (the running-count keys, the span-id side
    # table: 63 objects for 35,199 records); a tuple per record would be one
    # tracked object per record.
    assert tracked <= tracer.n_events() // 100
    assert tracer.spans[0] == tuple(tracer._spans[:5])  # rows still read as tuples


def test_label_keys_per_series_not_per_event(monkeypatch, t_bare):
    # ``_label_key`` calls over the all-layers guarded@2^12 pass 1 (4,945
    # when every observation built its sorted key; 260 instruments, 15,956
    # events): one per instrument built, per first spelling of a counter,
    # histogram or rate series, and per gauge registration; the registry's
    # memo answers every repeat.  A hot path that goes back to a canonical
    # key per observation moves this count with the events.
    calls = [0]
    label_key = registry_mod._label_key

    def counted(labels):
        calls[0] += 1
        return label_key(labels)

    monkeypatch.setattr(registry_mod, "_label_key", counted)
    job = _guarded(**RUNGS["all"](t_bare))()
    job.run_pass1()
    assert len(job.metrics) == 260
    assert job.platform.sim.n_events_processed == 15_956
    assert calls[0] == 564
