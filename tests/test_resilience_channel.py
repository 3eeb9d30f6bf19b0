"""Tests for repro.resilience.channel: exactly-once over a lossy network.

Each scenario runs a ReliableEndpoint pair over a message-fault window
(drop/dup/delay/corrupt) and checks the end-to-end contract: every payload
delivered exactly once, in spite of the schedule — plus the negative case
(retries disabled ⇒ demonstrable loss) and the flow-control semantics.
"""

import numpy as np
import pytest

from repro.emulator.net import Message
from repro.emulator.params import SystemParams
from repro.emulator.platform import ActivePlatform
from repro.resilience import BreakerBoard, ReliableEndpoint, RetryPolicy
from repro.util import RngRegistry


def small_params(**over):
    base = dict(n_hosts=2, n_asus=4)
    base.update(over)
    return SystemParams(**base)


def run_exchange(
    window_faults=(),
    n_msgs=32,
    policy=None,
    until=5.0,
    board=None,
):
    """Send ``n_msgs`` payloads asu0 -> host0 through ReliableEndpoints.

    ``window_faults`` is a list of (kind, t0, t1, extra) applied to the
    asu0<->host0 pair.  Returns (plat, endpoints-by-node-id, received ids).
    """
    plat = ActivePlatform(small_params())
    src, dst = plat.asus[0], plat.hosts[0]
    rngs = RngRegistry(7)
    policy = policy or RetryPolicy(timeout=0.002, max_backoff=0.02)
    eps = {
        n.node_id: ReliableEndpoint(
            plat, n, rng=rngs.get(f"rel.{n.node_id}"), policy=policy,
            board=board,
        )
        for n in (src, dst)
    }
    for kind, t0, t1, extra in window_faults:
        plat.network.set_msg_fault(src.node_id, dst.node_id, kind, t0, t1, extra)
    got = []

    def sender():
        for i in range(n_msgs):
            yield from eps[src.node_id].send(dst.node_id, ("m", i), 256, tag="m")

    def receiver():
        while True:
            msg = yield from eps[dst.node_id].recv()
            got.append(msg.payload[1])

    plat.spawn(sender(), name="sender", node=src)
    plat.spawn(receiver(), name="receiver", node=dst)
    plat.sim.run(until=until)
    return plat, eps, got


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="timeout must be positive"):
            RetryPolicy(timeout=0.0)
        with pytest.raises(ValueError, match="backoff must be at least 1"):
            RetryPolicy(backoff=0.5)
        with pytest.raises(ValueError, match="max_backoff"):
            RetryPolicy(timeout=0.1, max_backoff=0.05)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="window"):
            RetryPolicy(window=0)

    def test_grace_backoff_caps(self):
        p = RetryPolicy(timeout=0.01, backoff=2.0, max_backoff=0.05, jitter=0.0)
        assert p.grace(0, None) == 0.01
        assert p.grace(1, None) == 0.02
        assert p.grace(10, None) == 0.05  # capped

    def test_grace_jitter_is_seeded_and_bounded(self):
        p = RetryPolicy(timeout=0.01, jitter=0.25, max_backoff=0.1)
        rng = np.random.default_rng(3)
        draws = [p.grace(0, rng) for _ in range(50)]
        assert all(0.0075 <= g <= 0.0125 for g in draws)
        rng2 = np.random.default_rng(3)
        assert draws == [p.grace(0, rng2) for _ in range(50)]


class TestMessageValidation:
    def test_negative_nbytes_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Message("a", "b", None, -1)

    def test_unhashable_endpoint_rejected(self):
        with pytest.raises(TypeError, match="src must be hashable"):
            Message(["a"], "b", None, 0)
        with pytest.raises(TypeError, match="dst must be hashable"):
            Message("a", {}, None, 0)


class TestExactlyOnce:
    def test_fault_free_no_retransmits(self):
        _, eps, got = run_exchange()
        assert sorted(got) == list(range(32))
        s = eps["asu0"].stats
        # The adaptive deadline (delivery instant + grace) must not fire
        # spuriously on a healthy link.
        assert s.n_retransmits == 0 and s.amplification() == 1.0

    def test_exactly_once_under_drop_window(self):
        _, eps, got = run_exchange([("drop_msg", 0.0, 0.05, 0.0)], until=8.0)
        assert sorted(got) == list(range(32))
        assert eps["asu0"].stats.n_retransmits > 0

    def test_exactly_once_under_dup_window(self):
        _, eps, got = run_exchange([("dup_msg", 0.0, 10.0, 0.0)])
        assert sorted(got) == list(range(32))
        assert eps["host0"].stats.n_dup_dropped > 0

    def test_exactly_once_under_delay_window(self):
        _, eps, got = run_exchange([("delay_msg", 0.0, 10.0, 0.004)], until=8.0)
        assert sorted(got) == list(range(32))

    def test_exactly_once_under_corrupt_window(self):
        _, eps, got = run_exchange([("corrupt_msg", 0.0, 0.05, 0.0)], until=8.0)
        assert sorted(got) == list(range(32))
        # Corrupted copies were rejected without ack and later retransmitted.
        assert eps["host0"].stats.n_corrupt_dropped > 0
        assert eps["asu0"].stats.n_retransmits > 0

    def test_exactly_once_under_combined_windows(self):
        _, eps, got = run_exchange(
            [
                ("drop_msg", 0.00, 0.03, 0.0),
                ("dup_msg", 0.02, 0.08, 0.0),
                ("corrupt_msg", 0.05, 0.09, 0.0),
                ("delay_msg", 0.01, 0.10, 0.003),
            ],
            until=10.0,
        )
        assert sorted(got) == list(range(32))

    def test_retries_disabled_loses_messages(self):
        # Negative control: max_attempts=1 under a drop window must lose
        # payloads — this is what proves the retransmission layer is doing
        # the work in the positive cases above.
        _, eps, got = run_exchange(
            [("drop_msg", 0.0, 1.0, 0.0)],
            policy=RetryPolicy(timeout=0.002, max_backoff=0.02, max_attempts=1),
            until=8.0,
        )
        s = eps["asu0"].stats
        assert s.n_gave_up > 0
        assert len(got) < 32 and len(set(got)) == len(got)

    def test_determinism(self):
        spec = dict(window_faults=[("drop_msg", 0.0, 0.05, 0.0)], until=8.0)
        _, eps_a, got_a = run_exchange(**spec)
        _, eps_b, got_b = run_exchange(**spec)
        assert got_a == got_b
        assert eps_a["asu0"].stats.as_dict() == eps_b["asu0"].stats.as_dict()


class TestFlowControl:
    def test_window_blocks_sender(self):
        # A one-credit window serialises sends behind acks: the sender spends
        # simulated time blocked in wait_window, visible in the stats.
        _, eps, got = run_exchange(
            policy=RetryPolicy(timeout=0.002, max_backoff=0.02, window=1),
        )
        assert sorted(got) == list(range(32))
        assert eps["asu0"].stats.window_wait_time > 0.0

    def test_cancel_peer_releases_window(self):
        plat = ActivePlatform(small_params())
        src, dst = plat.asus[0], plat.hosts[0]
        ep = ReliableEndpoint(
            plat, src, policy=RetryPolicy(timeout=0.002, max_backoff=0.02, window=2)
        )
        # Fill the window with posts that can never be acked (no endpoint on
        # the far side consumes protocol messages -> no acks).
        ep.post(dst.node_id, "x", 64)
        ep.post(dst.node_id, "y", 64)
        assert ep.inflight(dst.node_id) == 2
        waited = []

        def blocked():
            w = yield from ep.wait_window(dst.node_id)
            waited.append(w)

        plat.spawn(blocked(), name="blocked", node=src)
        plat.sim.schedule(lambda _ev: ep.cancel_peer(dst.node_id), delay=0.1)
        plat.sim.run(until=1.0)
        assert waited and waited[0] > 0.0
        assert ep.inflight(dst.node_id) == 0

    def test_passthrough_preserves_direct_messages(self):
        # Non-protocol messages (direct mailbox puts / plain network posts)
        # surface through recv untouched.
        plat = ActivePlatform(small_params())
        dst = plat.hosts[0]
        ep = ReliableEndpoint(plat, dst)
        got = []

        def receiver():
            msg = yield from ep.recv()
            got.append(msg)

        plat.spawn(receiver(), name="receiver", node=dst)
        plat.network.post(plat.asus[1].node_id, dst.node_id, ("plain", 7), 64, tag="ctl")
        plat.sim.run(until=1.0)
        assert got and got[0].payload == ("plain", 7)
        assert ep.stats.n_passthrough == 1


class TestBreakerIntegration:
    def test_drop_storm_trips_breaker(self):
        plat = ActivePlatform(small_params())
        board = BreakerBoard(plat.sim, cooldown=0.5)
        src, dst = plat.asus[0], plat.hosts[0]
        ep = ReliableEndpoint(
            plat, src, policy=RetryPolicy(timeout=0.002, max_backoff=0.004),
            board=board,
        )
        ReliableEndpoint(plat, dst, board=board)
        plat.network.set_msg_fault(src.node_id, dst.node_id, "drop_msg", 0.0, 0.2, 0.0)

        def sender():
            for i in range(4):
                yield from ep.send(dst.node_id, ("m", i), 128)

        plat.spawn(sender(), name="sender", node=src)
        plat.sim.run(until=0.1)
        # Repeated delivery timeouts during the storm open the breaker ...
        assert not board.healthy(src.node_id, dst.node_id)
        assert board.n_trips() >= 1
        # Advance past the cooldown (a no-op event keeps the clock moving
        # once the protocol traffic has drained).
        plat.sim.schedule(lambda _ev: None, delay=2.0)
        plat.sim.run(until=2.5)
        # ... but retransmission continues regardless and eventually lands a
        # success; after the cooldown the breaker leaves quarantine
        # (half-open) and the link reads healthy again.
        assert board.healthy(src.node_id, dst.node_id)
        assert ep.stats.n_gave_up == 0


class TestDedupCheckpointRestore:
    def test_dedup_set_survives_endpoint_restart(self):
        """A receiver endpoint restarted from a dedup snapshot drops a full
        replay of already-delivered messages instead of re-delivering —
        exactly-once holds across a checkpoint restore."""
        plat = ActivePlatform(small_params())
        src, dst = plat.asus[0], plat.hosts[0]
        rngs = RngRegistry(7)
        policy = RetryPolicy(timeout=0.002, max_backoff=0.02)
        got = []

        def sender(ep):
            for i in range(8):
                yield from ep.send(dst.node_id, ("m", i), 256, tag="m")

        def receiver(ep):
            while True:
                msg = yield from ep.recv()
                got.append(msg.payload[1])

        ep_src = ReliableEndpoint(plat, src, rng=rngs.get("a"), policy=policy)
        ep_dst = ReliableEndpoint(plat, dst, rng=rngs.get("b"), policy=policy)
        plat.spawn(sender(ep_src), name="s", node=src)
        plat.spawn(receiver(ep_dst), name="r", node=dst)
        plat.sim.run(until=1.0)
        assert sorted(got) == list(range(8))

        snap = ep_dst.dedup_snapshot()
        assert len(snap) == 8
        # Snapshot is a copy: later traffic must not leak into it.
        ep_dst.shutdown()
        ep_src.shutdown()

        # Restart both sides.  The sender's send log survived the crash but
        # its acks did not, so it replays the same sequence numbers; the
        # restored dedup set must absorb every one of them.
        ep_src2 = ReliableEndpoint(plat, src, rng=rngs.get("a2"), policy=policy)
        ep_dst2 = ReliableEndpoint(plat, dst, rng=rngs.get("b2"), policy=policy)
        ep_dst2.restore_dedup(snap)
        plat.spawn(sender(ep_src2), name="s2", node=src)
        plat.spawn(receiver(ep_dst2), name="r2", node=dst)
        plat.sim.schedule(lambda _ev: None, delay=2.0)
        plat.sim.run(until=2.0)
        assert sorted(got) == list(range(8))  # no second delivery
        # every replayed message (plus any retransmissions) was dropped
        assert ep_dst2.stats.n_dup_dropped >= 8
        assert ep_dst2.stats.n_delivered == 0
        assert len(snap) == 8  # the endpoint never mutates the snapshot

    def test_restart_without_restore_would_redeliver(self):
        """Negative control: dropping the snapshot re-delivers the replayed
        messages — the restored dedup set is what earns exactly-once."""
        plat = ActivePlatform(small_params())
        src, dst = plat.asus[0], plat.hosts[0]
        rngs = RngRegistry(7)
        policy = RetryPolicy(timeout=0.002, max_backoff=0.02)
        got = []

        def sender(ep):
            for i in range(4):
                yield from ep.send(dst.node_id, ("m", i), 256, tag="m")

        def receiver(ep):
            while True:
                msg = yield from ep.recv()
                got.append(msg.payload[1])

        ep_src = ReliableEndpoint(plat, src, rng=rngs.get("a"), policy=policy)
        ep_dst = ReliableEndpoint(plat, dst, rng=rngs.get("b"), policy=policy)
        plat.spawn(sender(ep_src), name="s", node=src)
        plat.spawn(receiver(ep_dst), name="r", node=dst)
        plat.sim.run(until=1.0)
        assert sorted(got) == list(range(4))
        ep_dst.shutdown()
        ep_src.shutdown()

        ep_src2 = ReliableEndpoint(plat, src, rng=rngs.get("a2"), policy=policy)
        ep_dst2 = ReliableEndpoint(plat, dst, rng=rngs.get("b2"), policy=policy)
        plat.spawn(sender(ep_src2), name="s2", node=src)
        plat.spawn(receiver(ep_dst2), name="r2", node=dst)
        plat.sim.schedule(lambda _ev: None, delay=2.0)
        plat.sim.run(until=2.0)
        assert sorted(got) == sorted(list(range(4)) * 2)  # duplicates!
        assert ep_dst2.stats.n_delivered == 4  # all replays re-delivered


class TestPartitionLengthDelays:
    """Partition-scale outages against the reliable channel: dedup must hold
    across a breaker open/re-close cycle, and epoch-fenced cancellations must
    leak no flow-control credits (docs/PARTITIONS.md)."""

    def test_exactly_once_across_partition_window(self):
        # A symmetric cut outliving many retry timeouts: every in-flight
        # message is silently lost to the route for the whole window, yet
        # retransmission outlives the cut and exactly-once holds.
        plat = ActivePlatform(small_params())
        src, dst = plat.asus[0], plat.hosts[0]
        rngs = RngRegistry(7)
        policy = RetryPolicy(timeout=0.002, max_backoff=0.02)
        eps = {
            n.node_id: ReliableEndpoint(
                plat, n, rng=rngs.get(f"rel.{n.node_id}"), policy=policy
            )
            for n in (src, dst)
        }
        plat.network.set_partition({src.node_id}, 0.0, 0.2)
        got = []

        def sender():
            for i in range(16):
                yield from eps[src.node_id].send(dst.node_id, ("m", i), 256, tag="m")

        def receiver():
            while True:
                msg = yield from eps[dst.node_id].recv()
                got.append(msg.payload[1])

        plat.spawn(sender(), name="sender", node=src)
        plat.spawn(receiver(), name="receiver", node=dst)
        plat.sim.run(until=5.0)
        assert sorted(got) == list(range(16))
        assert plat.network.n_partition_dropped > 0
        assert eps[src.node_id].stats.n_retransmits > 0

    def test_dedup_holds_across_breaker_open_and_reclose(self):
        # A partition-length delay window: originals arrive long after the
        # sender presumed them lost, so the receiver sees original+retransmit
        # pairs.  The storm trips the breaker; after the window it re-closes.
        # The dedup filter must absorb every late copy through both phases.
        plat = ActivePlatform(small_params())
        board = BreakerBoard(plat.sim, cooldown=0.1)
        src, dst = plat.asus[0], plat.hosts[0]
        rngs = RngRegistry(7)
        policy = RetryPolicy(timeout=0.002, max_backoff=0.01)
        ep_src = ReliableEndpoint(
            plat, src, rng=rngs.get("a"), policy=policy, board=board
        )
        ep_dst = ReliableEndpoint(plat, dst, rng=rngs.get("b"), policy=policy,
                                  board=board)
        plat.network.set_msg_fault(
            src.node_id, dst.node_id, "delay_msg", 0.0, 0.2, 0.05
        )
        got = []

        def sender():
            for i in range(16):
                yield from ep_src.send(dst.node_id, ("m", i), 256, tag="m")

        def receiver():
            while True:
                msg = yield from ep_dst.recv()
                got.append(msg.payload[1])

        plat.spawn(sender(), name="sender", node=src)
        plat.spawn(receiver(), name="receiver", node=dst)
        plat.sim.run(until=0.15)
        assert board.n_trips() >= 1  # the delay storm opened the breaker
        plat.sim.schedule(lambda _ev: None, delay=3.0)
        plat.sim.run(until=3.5)
        assert sorted(got) == list(range(16))  # exactly once, no replays
        assert ep_dst.stats.n_dup_dropped > 0  # late copies were absorbed
        assert board.healthy(src.node_id, dst.node_id)  # breaker re-closed

    def test_fenced_deliveries_leak_no_credits(self):
        # fence_outbound releases the credit of every cancelled transfer:
        # a sender blocked on the window at fencing time must wake, and the
        # window must be fully available afterwards.
        plat = ActivePlatform(small_params())
        src, dst = plat.asus[0], plat.hosts[0]
        ep = ReliableEndpoint(
            plat, src, policy=RetryPolicy(timeout=0.002, max_backoff=0.02, window=2)
        )
        # Posts into a cut: never acked (the partition swallows them).
        plat.network.set_partition({src.node_id}, 0.0, 10.0)
        ep.post(dst.node_id, "x", 64, tag="frags")
        ep.post(dst.node_id, "y", 64, tag="eof")
        assert ep.inflight(dst.node_id) == 2
        woke = []

        def blocked():
            w = yield from ep.wait_window(dst.node_id)
            woke.append(w)

        plat.spawn(blocked(), name="blocked", node=src)
        fenced = []
        plat.sim.schedule(
            lambda _ev: fenced.extend(ep.fence_outbound(tags=("frags", "eof"))),
            delay=0.05,
        )
        plat.sim.run(until=1.0)
        assert [e.payload for e in fenced] == ["x", "y"]
        assert all(e.cancelled and not e.acked for e in fenced)
        assert woke and woke[0] > 0.0  # the waiter was released...
        assert ep.inflight(dst.node_id) == 0  # ...and no credit leaked

    def test_fence_outbound_filters_by_tag(self):
        plat = ActivePlatform(small_params())
        src, dst = plat.asus[0], plat.hosts[0]
        ep = ReliableEndpoint(plat, src, policy=RetryPolicy(timeout=0.002,
                                                            max_backoff=0.02))
        plat.network.set_partition({src.node_id}, 0.0, 10.0)
        ep.post(dst.node_id, "data", 64, tag="frags")
        ep.post(dst.node_id, "ctl", 64, tag="lease")
        fenced = ep.fence_outbound(tags=("frags",))
        assert [e.payload for e in fenced] == ["data"]
        assert ep.inflight(dst.node_id) == 1  # the untagged transfer stands

    def test_revive_peer_resumes_delivery_without_resurrecting_cancels(self):
        # cancel_peer (expulsion) stops retransmission; revive_peer (heal +
        # re-admission) resumes delivery for *new* traffic only — transfers
        # cancelled while the peer was out stay cancelled.
        plat = ActivePlatform(small_params())
        src, dst = plat.asus[0], plat.hosts[0]
        rngs = RngRegistry(7)
        policy = RetryPolicy(timeout=0.002, max_backoff=0.02)
        ep_src = ReliableEndpoint(plat, src, rng=rngs.get("a"), policy=policy)
        ep_dst = ReliableEndpoint(plat, dst, rng=rngs.get("b"), policy=policy)
        plat.network.set_partition({src.node_id}, 0.0, 0.2)
        got = []

        def receiver():
            while True:
                msg = yield from ep_dst.recv()
                got.append(msg.payload)

        plat.spawn(receiver(), name="receiver", node=dst)
        old = ep_src.post(dst.node_id, "stale", 64, tag="m")
        plat.sim.schedule(lambda _ev: ep_src.cancel_peer(dst.node_id), delay=0.05)
        plat.sim.schedule(lambda _ev: ep_src.revive_peer(dst.node_id), delay=0.3)
        plat.sim.schedule(
            lambda _ev: ep_src.post(dst.node_id, "fresh", 64, tag="m"), delay=0.4
        )
        plat.sim.run(until=2.0)
        assert got == ["fresh"]  # delivery resumed for post-revive traffic
        assert old.cancelled  # the pre-expulsion transfer stayed dead
