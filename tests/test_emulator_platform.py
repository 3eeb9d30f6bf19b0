"""Tests for node wiring and the ActivePlatform."""

import pytest

from repro.emulator import ActivePlatform, SystemParams


@pytest.fixture
def platform():
    return ActivePlatform(SystemParams(n_hosts=2, n_asus=4))


class TestTopology:
    def test_node_population(self, platform):
        assert len(platform.hosts) == 2
        assert len(platform.asus) == 4
        assert len(platform.nodes) == 6

    def test_node_ids_unique(self, platform):
        ids = [n.node_id for n in platform.nodes]
        assert len(set(ids)) == len(ids)

    def test_node_lookup(self, platform):
        assert platform.node("host0") is platform.hosts[0]
        assert platform.node("asu3") is platform.asus[3]
        with pytest.raises(KeyError):
            platform.node("asu99")

    def test_host_faster_than_asu(self, platform):
        assert platform.hosts[0].cpu.clock_hz == pytest.approx(
            platform.asus[0].cpu.clock_hz * platform.params.asu_ratio
        )

    def test_asu_has_disk_host_does_not(self, platform):
        assert hasattr(platform.asus[0], "disk")
        assert not hasattr(platform.hosts[0], "disk")


class TestMessaging:
    def test_host_asu_roundtrip(self, platform):
        host, asu = platform.hosts[0], platform.asus[0]

        def host_proc():
            yield from host.send(asu, payload="request", nbytes=64, tag="req")
            reply = yield from host.recv()
            return reply.payload

        def asu_proc():
            msg = yield from asu.recv()
            assert msg.payload == "request"
            yield from asu.send(host, payload="reply", nbytes=64, tag="rep")

        p = platform.spawn(host_proc())
        platform.spawn(asu_proc())
        platform.sim.run()
        assert p.value == "reply"

    def test_send_charges_sender_cpu(self, platform):
        host, asu = platform.hosts[0], platform.asus[0]

        def host_proc():
            yield from host.send(asu, None, nbytes=1 << 20)

        platform.spawn(host_proc())
        platform.sim.run()
        expected = (1 << 20) * platform.params.cycles_per_net_byte
        assert host.cpu.cycles_charged == pytest.approx(expected)


class TestRunReport:
    def test_run_to_completion(self, platform):
        asu = platform.asus[0]

        def main(_plat):
            yield from asu.disk_read(platform.params.disk_rate)  # exactly 1s of I/O
            return "ok"

        p = platform.spawn(main(platform))
        report = platform.run(wait_for=[p])
        assert p.value == "ok"
        assert report.makespan == pytest.approx(1.0, rel=0.05)
        assert len(report.host_util) == 2
        assert len(report.asu_cpu_util) == 4
        assert report.asu_disk_util[0] > 0.9

    def test_deadlock_detected(self, platform):
        def main(_plat):
            # Wait on a message that never comes.
            msg = yield from platform.hosts[0].recv()
            return msg

        p = platform.spawn(main(platform))
        with pytest.raises(RuntimeError, match="never finished"):
            platform.run(wait_for=[p])

    def test_report_as_dict(self, platform):
        def main(_plat):
            yield platform.sim.timeout(1.0)

        report = platform.run(wait_for=[platform.spawn(main(platform))])
        d = report.as_dict()
        assert d["makespan"] == pytest.approx(1.0)
        assert "host_util" in d and "net_bytes" in d

    def test_wait_for_unfinished_raises(self, platform):
        def stuck():
            yield platform.hosts[0].mailbox.get()

        p = platform.spawn(stuck())
        with pytest.raises(RuntimeError, match="never finished"):
            platform.run(wait_for=[p])

    def test_wait_for_stops_the_clock_when_the_awaited_processes_finish(self, platform):
        def ticker():
            while True:
                yield platform.sim.timeout(0.3)

        platform.spawn(ticker())
        p = platform.spawn(platform.asus[0].disk_read(platform.params.disk_rate))
        report = platform.run(wait_for=[p])
        assert report.makespan == platform.sim.now == pytest.approx(1.0, rel=0.05)

    def test_wait_for_reraises_a_failed_process(self, platform):
        def broken():
            yield platform.sim.timeout(0.1)
            raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            platform.run(wait_for=[platform.spawn(broken())])

    def test_until_returns_a_partial_report_instead_of_raising(self, platform):
        p = platform.spawn(platform.hosts[0].recv())
        report = platform.run(wait_for=[p], until=0.5)
        assert report.makespan == 0.5 and not p.triggered

    def test_determinism_across_platforms(self):
        def build():
            plat = ActivePlatform(SystemParams(n_hosts=1, n_asus=2))

            def main(_p):
                a0, a1 = plat.asus
                r0 = plat.spawn(a0.disk_read(1 << 20))
                r1 = plat.spawn(a1.disk_read(1 << 20))
                yield plat.sim.all_of([r0, r1])
                return plat.sim.now

            return plat.run(wait_for=[plat.spawn(main(plat))]).makespan

        assert build() == build()
