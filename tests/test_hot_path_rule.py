"""The hot-path rule at its edges (DESIGN.md §4, decision 7).

*A hook that is off costs one attribute test at the call site, never a call*
— and the test reads ``sim.tracer`` / ``sim.metrics`` live, because both may
be attached after the platform is built.  Two things can go wrong with such a
guard and neither shows in a makespan: it can be cached (a tracer attached
late records nothing), or it can be forgotten at one site (the bare run pays
for the call again).  The shared tail grant, the rule's other half, is tested
with the resource it belongs to (``test_sim_store_resource.py``).
"""

from collections import Counter

import pytest

from repro.core import ConfigSolver
from repro.dsmsort import DsmSortJob, runtime
from repro.emulator.disk import Disk
from repro.emulator.node import Node
from repro.emulator.params import SystemParams
from repro.faults import FaultPlan
from repro.metrics import MetricsRegistry
from repro.replica import ReplicationConfig
from repro.sim.monitor import BusyTracker
from repro.sim.store import Store
from repro.trace import Tracer, chrome_dumps

N = 1 << 12

#: the two pass-1 engines, and the FT engine on its replicated durability
ENGINES = {
    "bare": dict,
    "ft": lambda: {"faults": FaultPlan()},
    "ft-r2": lambda: {"replication": ReplicationConfig(r=2)},
}


def _job(**kw) -> DsmSortJob:
    params = SystemParams(
        n_hosts=2, n_asus=4, cycles_per_compare=100.0, cycles_per_record=300.0,
        cycles_per_net_byte=1.5, cycles_per_io_byte=0.5, block_records=1024,
    )
    cfg = ConfigSolver(params).config_for_alpha(N, 8)
    return DsmSortJob(params, cfg, policy="sr", seed=3, **kw)


@pytest.fixture
def attach_late(monkeypatch):
    """Build every platform on a bare simulator, then attach the job's tracer
    and registry — so no constructor ever saw them."""
    real = runtime.ActivePlatform

    def late(params, tracer=None, metrics=None, **kw):
        plat = real(params, **kw)
        plat.sim.tracer, plat.sim.metrics = tracer, metrics
        return plat

    monkeypatch.setattr(runtime, "ActivePlatform", late)


class TestLiveGuards:
    @pytest.mark.parametrize("engine", ["bare", "ft"])
    def test_tracer_attached_after_construction_records_the_same_trace(
        self, engine, attach_late, monkeypatch
    ):
        late = Tracer()
        _job(tracer=late, **ENGINES[engine]()).run_pass1()
        monkeypatch.undo()  # back to attaching at construction
        early = Tracer()
        _job(tracer=early, **ENGINES[engine]()).run_pass1()

        assert late.n_events() == early.n_events() > 0
        assert chrome_dumps(late) == chrome_dumps(early)
        # ... which holds every kind of hook the rule moved to the call site:
        assert {"cpu", "disk"} <= {s[4] for s in late.spans}
        sampled = {c[2] for c in late.counters}
        assert {"bytes_in", "depth", "records", "bytes"} <= sampled
        assert "bytes_out" in sampled or engine == "ft"  # FT posts on its own
        stages = {c[1].split(".")[-1] for c in late.counters if c[2] == "records"}
        assert {"distribute", "sort", "write"} <= stages

    @pytest.mark.parametrize("engine", ENGINES)
    def test_registry_attached_after_construction_records_stage_records(
        self, engine, attach_late
    ):
        reg = MetricsRegistry()
        _job(metrics=reg, **ENGINES[engine]()).run_pass1()
        totals = Counter()
        for inst in reg.instruments():
            if inst.name == "repro_stage_records":
                totals[inst.labels["stage"]] += inst.total
        assert totals["distribute"] == totals["sort"] == N
        assert totals["write"] == (2 * N if engine == "ft-r2" else N)


HOOKS = [
    (Node, "_trace_net"),
    (DsmSortJob, "_trace_records"),
    (Store, "_trace_depth"),
    (Disk, "_trace_bytes"),
    (BusyTracker, "_trace"),
]


@pytest.fixture
def entered(monkeypatch):
    """How often each observability helper was entered."""
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kw):
            calls[name] += 1
            return fn(*args, **kw)

        return wrapper

    for cls, name in HOOKS:
        monkeypatch.setattr(cls, name, counting(name, getattr(cls, name)))
    return calls


class TestOffPath:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_a_bare_run_enters_no_hook(self, engine, entered):
        job = _job(**ENGINES[engine]())
        job.run_pass1()
        # The job attaches no observer (the platform unhooks its observers
        # when the pass closes, so the simulator's own fields prove nothing).
        assert job.tracer is None and job.metrics is None
        assert job.platform.sim.n_events_processed > 1000  # a real pass 1 ran
        assert not entered

    def test_a_traced_run_enters_every_hook(self, entered):
        # Positive control: the counters above do see the hooks fire.
        _job(tracer=Tracer()).run_pass1()
        assert all(entered[name] > 0 for _cls, name in HOOKS)
