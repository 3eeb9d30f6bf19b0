"""The transport seam (repro.dsmsort.transport / repro.resilience.transport).

Two things are pinned here.  *Every way a message can die has exactly one
owner*: a dead sender's unacknowledged transfers come back from
``peer_lost``, a transfer to a dead receiver reaches ``undeliverable`` — and
neither shows up in the other's channel.  *The seam is closed*: the FT engine
and its durability layers name no transport internals, and the two transports
answer the same calls.
"""

import inspect
import re
from pathlib import Path

from repro.core.load_manager import LoadManager
from repro.dsmsort.transport import DirectTransport
from repro.emulator.params import SystemParams
from repro.emulator.platform import ActivePlatform
from repro.resilience import RetryPolicy
from repro.resilience.transport import ReliableTransport

POLICY = RetryPolicy(timeout=0.002, max_backoff=0.02)


def _mesh(transport=ReliableTransport):
    """(platform, transport, undeliverable reports) on 2 hosts / 4 ASUs."""
    plat = ActivePlatform(SystemParams(n_hosts=2, n_asus=4))
    dead = []
    report = lambda dst, tag, payload: dead.append((dst, tag, payload))
    if transport is ReliableTransport:
        return plat, ReliableTransport(plat, POLICY, 7, report), dead
    return plat, DirectTransport(plat, report), dead


def _received(plat, net, node):
    got = []

    def loop():
        while True:
            msg = yield from net.recv(node)
            got.append(msg.payload)

    plat.spawn(loop(), name=f"recv.{node.node_id}", node=node)
    return got


class TestInDoubt:
    def test_a_dead_senders_dropped_transfer_is_in_peer_lost_and_nowhere_else(self):
        plat, net, dead = _mesh()
        got = _received(plat, net, plat.hosts[0])
        plat.network.set_msg_fault("asu3", "host0", "drop_msg", 0.0, 1.0, 0.0)
        net.post("asu3", "host0", "lost", 64, "frags")
        # The sender fails before its first retransmit timer (>= 1.5 ms) ...
        plat.sim.schedule(lambda _ev: plat.fail_node("asu3"), delay=0.001)
        plat.sim.run(until=0.5)
        # ... which finds the node dead: nothing is resent, nobody is told.
        assert got == [] and dead == []
        assert net.counters()["channel_stats"]["n_retransmits"] == 0
        assert net.peer_lost("asu3") == [("host0", "frags", "lost")]
        assert dead == []

    def test_a_transfer_still_awaiting_its_ack_is_in_doubt_too(self):
        plat, net, _dead = _mesh()
        net.post("asu3", "host0", "unacked", 64, "eof")
        plat.fail_node("asu3")  # the timer has not fired yet
        assert net.peer_lost("asu3") == [("host0", "eof", "unacked")]

    def test_an_acknowledged_transfer_is_not_in_doubt(self):
        plat, net, dead = _mesh()
        got = _received(plat, net, plat.hosts[0])
        net.post("asu3", "host0", "fine", 64, "frags")
        plat.sim.run(until=0.5)
        plat.fail_node("asu3")
        assert got == ["fine"]
        assert net.peer_lost("asu3") == [] and dead == []


class TestUndeliverable:
    def test_every_copy_dropped_to_a_dead_peer_is_reported_once(self):
        plat, net, dead = _mesh()
        plat.fail_node("host0")
        assert net.peer_lost("host0") == []  # declared dead; held nothing
        plat.network.set_msg_fault("asu1", "host0", "drop_msg", 0.0, 1.0, 0.0)
        net.post("asu1", "host0", "late", 64, "frags")  # routed before, posted after
        plat.sim.run(until=0.5)
        assert dead == [("host0", "frags", "late")]
        assert plat.network.dead_letters == []  # no copy ever got there
        assert net.peer_lost("asu1") == []  # the sender lives: nothing in doubt

    def test_a_copy_that_reached_the_dead_node_is_the_dead_letter_paths(self):
        plat, net, dead = _mesh()
        plat.fail_node("host0")
        net.post("asu1", "host0", "late", 64, "frags")  # peer not yet declared dead
        plat.sim.run(until=0.001)  # delivered to the corpse, unwrapped, reported
        assert dead == [("host0", "frags", "late")]
        assert len(plat.network.dead_letters) == 1
        net.peer_lost("host0")  # detection cancels the pending transfer ...
        plat.sim.run(until=0.5)
        assert dead == [("host0", "frags", "late")]  # ... so no second report

    def test_exhausted_attempts_are_reported_and_lost_acks_are_not(self):
        plat = ActivePlatform(SystemParams(n_hosts=2, n_asus=4))
        dead = []
        net = ReliableTransport(
            plat, RetryPolicy(timeout=0.002, max_backoff=0.02, max_attempts=2), 7,
            lambda *report: dead.append(report),
        )
        plat.network.set_msg_fault("asu1", "host0", "drop_msg", 0.0, 1.0, 0.0)
        net.post("asu1", "host0", "x", 64, "frags")
        # An ack addressed to a node that died meanwhile dead-letters; that is
        # protocol traffic, not a message anybody posted.
        got = _received(plat, net, plat.hosts[1])
        net.post("asu2", "host1", "y", 64, "frags")
        plat.fail_node("asu2")
        plat.sim.run(until=0.5)
        assert got == ["y"]
        assert [m.tag for m in plat.network.dead_letters] == ["rel-ack"]
        assert dead == [("host0", "frags", "x")]

    def test_direct_reports_what_reached_a_dead_node(self):
        plat, net, dead = _mesh(DirectTransport)
        plat.fail_node("host0")
        net.post("asu1", "host0", ("frags", 1), 64, "frags")
        plat.sim.run(until=0.5)
        assert dead == [("host0", "frags", ("frags", 1))]


class TestFlowControlAndHealth:
    def test_nothing_in_doubt_no_wait_no_backpressure_report(self):
        plat, net, _dead = _mesh(DirectTransport)
        net.post("asu3", "host0", "x", 64, "frags")
        plat.fail_node("asu3")
        assert net.peer_lost("asu3") == []
        assert net.sender_for("asu3", lambda nid: False) == "asu3"
        assert net.healthy("asu3", "host0")
        assert net.counters() == {"channel_stats": None, "n_breaker_trips": 0}

        class Untouchable:
            def __getattr__(self, name):
                raise AssertionError(f"direct transport touched load_manager.{name}")

        assert list(net.wait_window("asu0", "host0", Untouchable(), 0, 512)) == []

    def test_reliable_reports_the_stall_it_causes(self):
        plat = ActivePlatform(SystemParams(n_hosts=2, n_asus=4))
        net = ReliableTransport(
            plat, RetryPolicy(timeout=0.002, max_backoff=0.02, window=1), 7
        )
        lm = LoadManager(plat.params, n_instances=2, n_buckets=8)
        plat.network.set_msg_fault("asu0", "host1", "drop_msg", 0.0, 1.0, 0.0)
        net.post("asu0", "host1", "fills the window", 64, "frags")  # never acked
        stalled = []

        def sender():
            yield from net.wait_window("asu0", "host1", lm, 1, 512)
            stalled.append(plat.sim.now)

        plat.spawn(sender(), name="sender", node=plat.asus[0])
        plat.sim.schedule(
            lambda _ev: stalled.append(lm.instances[1].backpressure), delay=0.05
        )
        plat.sim.schedule(lambda _ev: net.peer_lost("host1"), delay=0.1)
        plat.sim.run(until=0.5)
        assert stalled == [512, 0.1]  # reported while waiting, released by the cancel
        assert lm.instances[1].backpressure == 0

    def test_sender_for_skips_dead_and_ineligible_nodes(self):
        plat, net, _dead = _mesh()
        assert net.sender_for("asu2", lambda nid: True) == "asu2"
        plat.fail_node("asu2")
        assert net.sender_for("asu2", lambda nid: True) == "asu0"
        assert net.sender_for("asu2", lambda nid: nid != "asu0") == "asu1"


# -- the seam is closed ------------------------------------------------------
SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
ENGINE_SIDE = ["dsmsort/runtime.py", "dsmsort/durability.py", "replica/durability.py"]
TRANSPORT_INTERNALS = re.compile(
    r"_endpoints|breaker_board|\bREL\b|ReliableEndpoint|BreakerBoard|read_resilient"
)


def _public_callables(cls) -> dict:
    return {
        name: list(inspect.signature(fn).parameters)
        for name, fn in inspect.getmembers(cls, inspect.isfunction)
        if not name.startswith("_")
    }


class TestSeamRule:
    def test_the_engine_names_no_transport_internals(self):
        for rel in ENGINE_SIDE:
            hits = [
                f"{rel}:{i}: {line.strip()}"
                for i, line in enumerate((SRC / rel).read_text().splitlines(), 1)
                if TRANSPORT_INTERNALS.search(line)
            ]
            assert not hits, "\n".join(hits)

    def test_the_engine_asks_which_transport_exactly_once(self):
        runtime = (SRC / "dsmsort/runtime.py").read_text()
        assert runtime.count("self.transport ==") == 1

    def test_both_transports_answer_the_same_calls(self):
        direct = _public_callables(DirectTransport)
        assert direct == _public_callables(ReliableTransport)
        assert set(direct) == {
            "recv", "send", "post", "wait_window", "reader", "healthy",
            "peer_lost", "peer_back", "fence", "sender_for", "counters",
        }

    def test_both_readers_answer_the_same_calls(self):
        plat = ActivePlatform(SystemParams(n_hosts=1, n_asus=1))
        readers = [
            T(plat).reader(plat.asus[0], [4096]) for T in (DirectTransport, ReliableTransport)
        ]
        assert _public_callables(type(readers[0])) == _public_callables(type(readers[1]))
        assert set(_public_callables(type(readers[0]))) == {"arrive", "fetch"}
