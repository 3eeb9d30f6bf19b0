"""Tests for repro.trace: tracer API, Chrome export, per-stage profile, and
the zero-perturbation guarantee of the traced emulator."""

import json

import pytest

from repro.core import ConfigSolver
from repro.dsmsort import DsmSortJob
from repro.emulator.params import SystemParams
from repro.emulator.platform import ActivePlatform
from repro.trace import ProfileReport, Tracer, chrome_dumps, to_chrome


def _params(n_asus=4, n_hosts=2):
    return SystemParams(
        n_hosts=n_hosts,
        n_asus=n_asus,
        cycles_per_compare=100.0,
        cycles_per_record=300.0,
        cycles_per_net_byte=1.5,
        cycles_per_io_byte=0.5,
        block_records=1024,
    )


def _traced_sort(n=1 << 13, seed=3, tracer=None):
    params = _params()
    config = ConfigSolver(params).config_for_alpha(n, 8)
    job = DsmSortJob(params, config, policy="sr", seed=seed, tracer=tracer)
    r1 = job.run_pass1()
    r2 = job.run_pass2()
    job.verify()
    return job, r1, r2


class TestTracer:
    def test_span_instant_counter_recorded(self):
        tr = Tracer()
        tr.span(0.0, 1.5, "asu0.cpu", "cpu", cat="cpu")
        tr.instant(2.0, "faults", "inject", cat="fault")
        tr.counter(2.5, "mbox:host0", "depth", 3.0)
        assert tr.n_events() == 3
        assert tr.tracks() == ["asu0.cpu", "faults", "mbox:host0"]
        assert tr.t_max() == 2.5

    def test_count_accumulates(self):
        tr = Tracer()
        assert tr.count(0.0, "host0.sort", "records", 10.0) == 10.0
        assert tr.count(1.0, "host0.sort", "records", 5.0) == 15.0
        assert tr.counters[-1] == (1.0, "host0.sort", "records", 15.0)

    def test_offset_stitches_phases(self):
        tr = Tracer()
        tr.span(0.0, 1.0, "a", "x")
        tr.offset = 1.0  # phase 2 clock restarts at 0
        tr.span(0.0, 0.5, "a", "y")
        tr.instant(0.25, "a", "z")
        assert tr.spans[1][:2] == (1.0, 1.5)
        assert tr.instants[0][0] == 1.25
        assert tr.t_max() == 1.5

    def test_clear_resets_everything(self):
        tr = Tracer()
        tr.count(0.0, "a", "records", 1.0)
        tr.offset = 2.0
        tr.clear()
        assert tr.n_events() == 0
        assert tr.offset == 0.0
        assert tr.count(0.0, "a", "records", 1.0) == 1.0


class TestChromeExport:
    def test_format_shape(self):
        tr = Tracer()
        tr.span(0.0, 0.001, "asu0.disk", "xfer", cat="disk")
        tr.instant(0.002, "faults", "inject crash", cat="fault")
        tr.counter(0.003, "net", "bytes", 42.0)
        doc = to_chrome(tr)
        assert doc["displayTimeUnit"] == "ms"
        by_ph = {e["ph"]: e for e in doc["traceEvents"]}
        assert by_ph["M"]["name"] == "thread_name"
        assert by_ph["X"]["ts"] == 0.0 and by_ph["X"]["dur"] == 1000.0
        assert by_ph["i"]["s"] == "t"
        assert by_ph["C"]["args"] == {"bytes": 42.0}
        # tids assigned by sorted track name, starting at 1
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        names = [e["args"]["name"] for e in meta]
        assert names == sorted(names)
        assert [e["tid"] for e in meta] == [1, 2, 3]

    def test_dumps_is_valid_json_and_stable(self):
        tr = Tracer()
        tr.span(0.0, 0.5, "b", "x")
        tr.span(0.5, 0.75, "a", "y")
        s1 = chrome_dumps(tr)
        s2 = chrome_dumps(tr)
        assert s1 == s2
        json.loads(s1)


class TestProfileReport:
    def test_busy_records_rate_stall(self):
        tr = Tracer()
        tr.span(0.0, 2.0, "host0.cpu", "cpu", cat="cpu")
        tr.span(3.0, 4.0, "host0.cpu", "cpu", cat="cpu")
        tr.count(1.0, "host0.sort", "records", 100.0)
        tr.count(4.0, "host0.sort", "records", 100.0)
        rep = ProfileReport.from_tracer(tr, makespan=5.0)
        cpu = rep.row("host0.cpu")
        assert cpu.busy == pytest.approx(3.0)
        assert cpu.n_spans == 2
        assert cpu.stall == pytest.approx(2.0)
        sort = rep.row("host0.sort")
        assert sort.records == 200.0
        assert sort.rate == pytest.approx(40.0)
        json.loads(rep.to_json())
        assert "host0.cpu" in rep.render()

    def test_missing_row_raises(self):
        rep = ProfileReport.from_tracer(Tracer())
        with pytest.raises(KeyError):
            rep.row("nope")


class TestTracedRun:
    def test_traced_sort_covers_every_device(self):
        tracer = Tracer()
        job, r1, r2 = _traced_sort(tracer=tracer)
        tracks = set(tracer.tracks())
        params = job.params
        for d in range(params.n_asus):
            assert f"asu{d}.cpu" in tracks
            assert f"asu{d}.disk" in tracks
            assert f"asu{d}.distribute" in tracks
            assert f"asu{d}.write" in tracks
        for h in range(params.n_hosts):
            assert f"host{h}.cpu" in tracks
            assert f"host{h}.sort" in tracks
        assert any(t.startswith("link:") for t in tracks)
        assert "router" in tracks
        # pass-2 events sit after pass 1 on the stitched timeline
        assert tracer.t_max() == pytest.approx(r1.makespan + r2.makespan, rel=0.2)

    def test_trace_records_match_sorted_input(self):
        tracer = Tracer()
        job, _r1, _r2 = _traced_sort(tracer=tracer)
        rep = ProfileReport.from_tracer(tracer)
        n = sum(a.shape[0] for a in job.asu_data)
        distributed = sum(
            rep.row(f"asu{d}.distribute").records for d in range(job.params.n_asus)
        )
        sorted_ = sum(
            rep.row(f"host{h}.sort").records for h in range(job.params.n_hosts)
        )
        written = sum(
            rep.row(f"asu{d}.write").records for d in range(job.params.n_asus)
        )
        assert distributed == sorted_ == written == n

    def test_tracing_does_not_perturb_the_simulation(self):
        # The acceptance bar: a traced run and an untraced run of the same
        # job are the same simulation — identical makespans and event counts.
        _job0, a1, a2 = _traced_sort(seed=11, tracer=None)
        _job1, b1, b2 = _traced_sort(seed=11, tracer=Tracer())
        assert a1.makespan == b1.makespan
        assert a2.makespan == b2.makespan
        assert a1.net_bytes == b1.net_bytes
        assert a1.host_util == b1.host_util

    def test_platform_run_report_to_json(self):
        plat = ActivePlatform(_params())

        def main(p):
            yield from p.asus[0].disk_read(1 << 20)

        rep = plat.run(wait_for=[plat.spawn(main(plat))])
        payload = json.loads(rep.to_json())
        assert payload["makespan"] == rep.makespan
        assert rep.to_json() == rep.to_json()


class TestFlows:
    def test_flow_recorded_and_offset_applied(self):
        tr = Tracer()
        tr.flow(0.0, "a", 1.0, "b", "msg", cat="net")
        tr.offset = 10.0
        tr.flow(0.0, "b", 0.5, "c", "msg2", cat="queue")
        assert tr.flows[0] == (0.0, "a", 1.0, "b", "msg", "net")
        assert tr.flows[1] == (10.0, "b", 10.5, "c", "msg2", "queue")
        assert tr.n_events() == 2
        assert tr.t_max() == 10.5
        assert tr.tracks() == ["a", "b", "c"]
        tr.clear()
        assert tr.flows == []

    def test_chrome_flow_pairs(self):
        tr = Tracer()
        tr.span(0.0, 1.0, "a", "x")
        tr.span(2.0, 3.0, "b", "y")
        tr.flow(1.0, "a", 2.0, "b", "msg", cat="net")
        events = to_chrome(tr)["traceEvents"]
        start = [e for e in events if e["ph"] == "s"]
        finish = [e for e in events if e["ph"] == "f"]
        assert len(start) == len(finish) == 1
        assert start[0]["id"] == finish[0]["id"] == 1
        assert start[0]["name"] == finish[0]["name"] == "msg"
        assert start[0]["cat"] == "net"
        assert finish[0]["bp"] == "e"
        assert start[0]["ts"] == 1.0 * 1e6 and finish[0]["ts"] == 2.0 * 1e6

    def test_chrome_span_sid_parent_args(self):
        tr = Tracer()
        tr.span(0.0, 1.0, "a", "anon")
        tr.span(1.0, 2.0, "a", "child", sid="c1", parent="p0")
        events = [e for e in to_chrome(tr)["traceEvents"] if e["ph"] == "X"]
        anon = next(e for e in events if e["name"] == "anon")
        child = next(e for e in events if e["name"] == "child")
        assert "args" not in anon or "sid" not in anon.get("args", {})
        assert child["args"] == {"sid": "c1", "parent": "p0"}

    def test_offset_stitching_with_flows_byte_identical(self):
        # pass-1 + pass-2 recorded via offset stitching must serialise
        # identically to the same events recorded on one continuous clock
        stitched = Tracer()
        stitched.span(0.0, 1.0, "a", "p1", sid="s1")
        stitched.flow(1.0, "a", 1.0, "b", "hand-off", cat="queue")
        stitched.offset = 1.0
        stitched.span(0.0, 0.5, "b", "p2", sid="s2", parent="s1")
        stitched.flow(0.25, "b", 0.5, "a", "ack", cat="net")

        flat = Tracer()
        flat.span(0.0, 1.0, "a", "p1", sid="s1")
        flat.flow(1.0, "a", 1.0, "b", "hand-off", cat="queue")
        flat.span(1.0, 1.5, "b", "p2", sid="s2", parent="s1")
        flat.flow(1.25, "b", 1.5, "a", "ack", cat="net")

        assert chrome_dumps(stitched) == chrome_dumps(flat)

    def test_traced_sort_emits_flows(self):
        tracer = Tracer()
        _traced_sort(n=1 << 12, tracer=tracer)
        cats = {f[5] for f in tracer.flows}
        assert "queue" in cats  # disk issue/completion + mailbox edges
        # pass-1 -> pass-2 stitching leaves flows in both halves
        p1_end = tracer.spans[-1][0]
        assert any(f[0] < p1_end for f in tracer.flows)
        assert any(f[0] > 0 for f in tracer.flows)


class TestProfileRender:
    def test_render_sorted_busy_desc_with_stall_pct(self):
        tr = Tracer()
        tr.span(0.0, 1.0, "cold", "x", cat="cpu")
        tr.span(0.0, 3.0, "hot", "y", cat="disk")
        tr.span(3.0, 4.0, "warm", "z", cat="cpu")
        rep = ProfileReport.from_tracer(tr)
        text = rep.render()
        assert "stall%" in text
        lines = [ln for ln in text.splitlines()
                 if ln.lstrip().startswith(("hot", "warm", "cold"))]
        first_cols = [ln.split()[0] for ln in lines]
        assert first_cols == ["hot", "cold", "warm"]  # busy desc, ties by name
        # cold is idle 3 of 4 seconds -> 75.0% stall
        assert "75.0" in lines[1]
