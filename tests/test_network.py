"""Tests for the simulated network and failure detection."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError, SimulationError
from repro.sim.message import Message
from repro.sim.monitor import DISSEMINATION, STABILIZATION

from repro.experiments.bootstrap import synthesize_topology_arrays
from repro.sim.rng import derive
from tests.helpers import DictLinks, Ping, RecorderNode, make_network


def test_send_delivers_with_latency():
    sim, net, (a, b) = make_network(2, delay=0.01)
    net.send(a.node_id, b.node_id, Ping(7))
    sim.run()
    assert len(b.received) == 1
    t, src, msg = b.received[0]
    assert t == pytest.approx(0.01)
    assert src == a.node_id
    assert msg.payload == 7


def test_bytes_accounted_on_both_ends():
    sim, net, (a, b) = make_network(2)
    net.send(a.node_id, b.node_id, Ping())
    sim.run()
    size = Ping().size_bytes()
    assert net.metrics.node_bytes(a.node_id, STABILIZATION) == size
    assert net.metrics.node_bytes(b.node_id, STABILIZATION, "received") == size


def test_send_to_self_rejected():
    sim, net, (a,) = make_network(1)
    with pytest.raises(SimulationError):
        net.send(a.node_id, a.node_id, Ping())


def test_dead_sender_sends_nothing():
    sim, net, (a, b) = make_network(2)
    net.crash(a.node_id)
    net.send(a.node_id, b.node_id, Ping())
    sim.run()
    assert b.received == []


def test_message_to_crashed_node_dropped():
    sim, net, (a, b) = make_network(2)
    net.send(a.node_id, b.node_id, Ping())
    net.crash(b.node_id)
    sim.run()
    assert b.received == []
    # Received bytes were never accounted for the dead node.
    assert net.metrics.node_bytes(b.node_id, STABILIZATION, "received") == 0


def test_crash_notifies_linked_peers_after_detection_delay():
    sim, net, (a, b, c) = make_network(3)
    net.register_link(a.node_id, b.node_id)
    net.crash(b.node_id)
    sim.run()
    assert len(a.link_failures) == 1
    t, failed = a.link_failures[0]
    assert failed == b.node_id
    # Detection delay in U(0.5, 1.5) x keepalive period (default 1 s).
    assert 0.5 <= t <= 1.5
    # c was not linked to b: no notification.
    assert c.link_failures == []


def test_unregistered_link_not_notified():
    sim, net, (a, b) = make_network(2)
    net.register_link(a.node_id, b.node_id)
    net.unregister_link(a.node_id, b.node_id)
    net.crash(b.node_id)
    sim.run()
    assert a.link_failures == []


def test_send_failure_on_registered_link_triggers_notice():
    sim, net, (a, b) = make_network(2)
    net.register_link(a.node_id, b.node_id)
    net.crash(b.node_id)  # schedules one notice
    # In-flight message to the dead node must not produce a duplicate notice.
    net.send(a.node_id, b.node_id, Ping())
    sim.run()
    assert len(a.link_failures) == 1


def test_in_flight_message_to_node_that_dies_mid_flight():
    sim, net, (a, b) = make_network(2, delay=1.0)
    net.register_link(a.node_id, b.node_id)
    net.send(a.node_id, b.node_id, Ping())
    sim.schedule(0.5, net.crash, b.node_id)
    sim.run()
    assert b.received == []
    assert len(a.link_failures) == 1


def test_crash_is_idempotent():
    sim, net, (a, b) = make_network(2)
    net.register_link(a.node_id, b.node_id)
    net.crash(b.node_id)
    net.crash(b.node_id)
    sim.run()
    assert len(a.link_failures) == 1
    assert net.metrics.counters["crashes"] == 1


def test_crash_listener_invoked():
    sim, net, (a, b) = make_network(2)
    crashed = []
    net.crash_listeners.append(crashed.append)
    net.crash(a.node_id)
    assert crashed == [a.node_id]


def test_self_link_rejected():
    sim, net, (a,) = make_network(1)
    with pytest.raises(SimulationError):
        net.register_link(a.node_id, a.node_id)


def test_alive_ids_excludes_crashed():
    sim, net, nodes = make_network(4)
    net.crash(nodes[1].node_id)
    assert net.alive_ids() == [nodes[0].node_id, nodes[2].node_id, nodes[3].node_id]


def test_spawn_allocates_monotonic_ids():
    sim, net, nodes = make_network(3)
    assert [n.node_id for n in nodes] == [0, 1, 2]


def test_unknown_message_kind_raises():
    sim, net, (a, b) = make_network(2)

    class Weird(Message):
        kind = "weird"

    net.send(a.node_id, b.node_id, Weird())
    with pytest.raises(ProtocolError):
        sim.run()


def test_capacity_is_deterministic_and_positive():
    _, net1, _ = make_network(1, seed=9)
    _, net2, _ = make_network(1, seed=9)
    assert net1.capacity(0) == net2.capacity(0)
    assert net1.capacity(0) > 0
    assert net1.capacity(0) != net1.capacity(1)


def test_rtt_symmetric_for_constant_latency():
    sim, net, (a, b) = make_network(2, delay=0.004)
    assert net.rtt(a.node_id, b.node_id) == pytest.approx(0.008)


def test_keepalive_accounting_charges_linked_nodes():
    sim, net, (a, b, c) = make_network(3)
    net.register_link(a.node_id, b.node_id)
    net.account_keepalives(DISSEMINATION, duration=10.0, ka_bytes=48)
    expected = int(round(10.0 / 1.0 * 48))
    assert net.metrics.node_bytes(a.node_id, DISSEMINATION) == expected
    assert net.metrics.node_bytes(b.node_id, DISSEMINATION, "received") == expected
    assert net.metrics.node_bytes(c.node_id, DISSEMINATION) == 0

    # A CSR-wired bed (DESIGN.md §8): rows built by a new link, a lost
    # link, a crash and a node that lost every link and got one back
    # (its key moves to the end), the rest read from the arrays.  The
    # books equal a walk over the dict of sets, node order included.
    _, net, _ = make_network(40)
    topo = synthesize_topology_arrays(40, degree=5, max_degree=8, rng=derive(3, "ka"))
    ids = list(range(40))
    net.register_links_csr(ids, topo.offsets, topo.neighbors)
    ref = DictLinks()
    ref.install(ids, topo.offsets, topo.neighbors)

    def link(a, b):
        net.register_link(a, b)
        ref.add(a, b)
        ref.add(b, a)

    def unlink(a, b):
        net.unregister_link(a, b)
        ref.discard(a, b)
        ref.discard(b, a)

    link(1, next(p for p in range(3, 40) if not net.linked(1, p)))
    unlink(5, next(iter(ref[5])))
    for peer in list(ref[2]):
        unlink(2, peer)
    link(2, 1)
    net.crash(7)
    ref.crash(7)
    assert list(net.links)[-1] == 2
    net.account_keepalives(DISSEMINATION, duration=10.0, ka_bytes=48)
    walk = [(nid, expected * len(peers)) for nid, peers in ref.items()]
    assert list(net.metrics.sent_by_phase[DISSEMINATION].items()) == walk
    assert list(net.metrics.received_by_phase[DISSEMINATION].items()) == walk
    assert 7 not in net.metrics.sent_by_phase[DISSEMINATION]


def test_dead_nodes_send_no_keepalives():
    sim, net, (a, b) = make_network(2)
    net.register_link(a.node_id, b.node_id)
    # crash() clears the links, so no keepalive accounting either way
    net.crash(a.node_id)
    net.account_keepalives(DISSEMINATION, duration=10.0)
    assert net.metrics.node_bytes(a.node_id, DISSEMINATION) == 0


# ----------------------------------------------------------------------
# Fan-out sends (send_many)
# ----------------------------------------------------------------------
class TestSendMany:
    def test_delivers_to_every_destination(self):
        sim, net, (a, b, c, d) = make_network(4, delay=0.01)
        sent = net.send_many(a.node_id, [b.node_id, c.node_id, d.node_id], Ping(5))
        assert sent == 3
        sim.run()
        for node in (b, c, d):
            assert len(node.received) == 1
            t, src, msg = node.received[0]
            assert t == pytest.approx(0.01)
            assert src == a.node_id
            assert msg.payload == 5

    def test_accounting_matches_per_send_loop(self):
        sim, net, (a, b, c) = make_network(3)
        net.send_many(a.node_id, [b.node_id, c.node_id], Ping())
        sim.run()
        size = Ping().size_bytes()
        assert net.metrics.node_bytes(a.node_id, STABILIZATION) == 2 * size
        assert net.metrics.node_bytes(b.node_id, STABILIZATION, "received") == size
        assert net.metrics.node_bytes(c.node_id, STABILIZATION, "received") == size
        assert net.metrics.msg_counts["ping"]["stabilization"] == 2

    def test_self_destination_rejected(self):
        sim, net, (a, b) = make_network(2)
        with pytest.raises(SimulationError):
            net.send_many(a.node_id, [b.node_id, a.node_id], Ping())

    def test_self_destination_rejected_before_any_side_effect(self):
        """A bad destination anywhere in the fan-out must abort the whole
        batch: nothing scheduled, nothing accounted, no occupancy taken."""
        from repro.sim.engine import Simulator
        from repro.sim.latency import ClusterLatency
        from repro.sim.monitor import Metrics
        from repro.sim.network import Network

        sim = Simulator(seed=2)
        net = Network(sim, ClusterLatency(seed=2), Metrics())
        a, b = net.spawn(RecorderNode), net.spawn(RecorderNode)
        with pytest.raises(SimulationError):
            net.send_many(a.node_id, [b.node_id, a.node_id], Ping())
        assert sim.pending == 0
        assert net._busy == {}
        assert net.metrics.msg_counts.get("ping", {}) in ({}, {"stabilization": 0})
        sim.run()
        assert b.received == []

    def test_dead_sender_sends_nothing(self):
        sim, net, (a, b) = make_network(2)
        net.crash(a.node_id)
        assert net.send_many(a.node_id, [b.node_id], Ping()) == 0
        sim.run()
        assert b.received == []

    def test_empty_fanout_is_noop(self):
        sim, net, (a,) = make_network(1)
        assert net.send_many(a.node_id, [], Ping()) == 0
        assert net.metrics.msg_counts.get("ping", {}) in ({}, {"stabilization": 0})

    def test_dead_destination_mid_fanout_is_dropped_not_fatal(self):
        sim, net, (a, b, c) = make_network(3)
        net.send_many(a.node_id, [b.node_id, c.node_id], Ping())
        net.crash(b.node_id)
        sim.run()
        assert b.received == []
        assert len(c.received) == 1
        assert net.metrics.counters["dropped"] == 1


# ----------------------------------------------------------------------
# Dropped-message accounting
# ----------------------------------------------------------------------
def test_message_to_crashed_node_counts_dropped():
    sim, net, (a, b) = make_network(2)
    net.send(a.node_id, b.node_id, Ping())
    net.crash(b.node_id)
    sim.run()
    assert net.metrics.counters["dropped"] == 1


def test_delivered_messages_are_not_counted_dropped():
    sim, net, (a, b) = make_network(2)
    net.send(a.node_id, b.node_id, Ping())
    sim.run()
    assert net.metrics.counters.get("dropped", 0) == 0


# ----------------------------------------------------------------------
# Per-pair FIFO (one TCP connection per ordered pair, §II-A)
# ----------------------------------------------------------------------
class TestPairFifo:
    @settings(max_examples=60, deadline=None)
    @given(
        model=st.sampled_from(["cluster", "planetlab"]),
        loss=st.sampled_from([0.0, 30.0]),
        seed=st.integers(0, 2**16),
        plan=st.lists(
            st.tuples(st.booleans(), st.floats(0.0, 1.0)), min_size=2, max_size=24
        ),
    )
    def test_interleaved_sends_arrive_in_send_order(self, model, loss, seed, plan):
        """Any interleaving of ``send`` and ``send_many`` from a to b,
        spaced more tightly than the jitter that would reorder the raw
        samples, is received in send order — what keeps a Deactivate
        from being overtaken by the Activate sent after it."""
        from repro.sim.engine import Simulator
        from repro.sim.latency import ClusterLatency, PlanetLabLatency
        from repro.sim.monitor import Metrics
        from repro.sim.network import Network

        latency = {"cluster": ClusterLatency, "planetlab": PlanetLabLatency}[model](seed=seed)
        sim = Simulator(seed=seed)
        net = Network(sim, latency, Metrics(), loss_percent=loss)
        a, b, c = (net.spawn(RecorderNode) for _ in range(3))
        t = 0.0
        for seq, (fan, gap) in enumerate(plan):
            t += gap * latency.jitter_mean
            if fan:
                sim.call_at(t, net.send_many, a.node_id, [c.node_id, b.node_id], Ping(seq))
            else:
                sim.call_at(t, net.send, a.node_id, b.node_id, Ping(seq))
        sim.run_until_idle()
        got = [msg.payload for _, _, msg in b.received]
        assert got == sorted(got)
        lost = net.metrics.counters.get("dropped_loss", 0)
        assert loss or not lost
        fanned = sum(fan for fan, _ in plan)
        assert len(got) + len(c.received) + lost == len(plan) + fanned


# ----------------------------------------------------------------------
# Crash-time state purging (long-churn memory bounds)
# ----------------------------------------------------------------------
class TestCrashPurgesState:
    def test_busy_and_capacity_entries_are_purged(self):
        from repro.sim.engine import Simulator
        from repro.sim.latency import ClusterLatency
        from repro.sim.monitor import Metrics
        from repro.sim.network import Network

        sim = Simulator(seed=1)
        net = Network(sim, ClusterLatency(seed=1), Metrics())
        a, b = net.spawn(RecorderNode), net.spawn(RecorderNode)
        net.capacity(a.node_id)  # materialize the lognormal draw
        net.send(a.node_id, b.node_id, Ping())  # occupies a's NIC queue
        assert a.node_id in net._busy
        assert a.node_id in net._capacities
        net.crash(a.node_id)
        assert a.node_id not in net._busy
        assert a.node_id not in net._capacities

    def test_fifo_clamp_entries_are_purged(self):
        from repro.sim.engine import Simulator
        from repro.sim.latency import ClusterLatency
        from repro.sim.monitor import Metrics
        from repro.sim.network import Network

        sim = Simulator(seed=1)
        net = Network(sim, ClusterLatency(seed=1), Metrics())
        a, b, c = (net.spawn(RecorderNode).node_id for _ in range(3))
        net.send(a, b, Ping())
        net.send(b, a, Ping())
        net.send_many(c, [a, b], Ping())
        assert {(a, b), (b, a), (c, a), (c, b)} == set(net._fifo)
        net.crash(a)
        # No entry names the dead node as sender or receiver; pairs
        # among survivors keep their clamp state.
        assert set(net._fifo) == {(c, b)}

    def test_notified_entries_drain_once_notices_fire(self):
        sim, net, (a, b) = make_network(2)
        net.register_link(a.node_id, b.node_id)
        net.crash(b.node_id)
        assert (a.node_id, b.node_id) in net._notified
        sim.run()
        assert len(a.link_failures) == 1
        assert net._notified == set()

    def test_crashed_observers_pending_entries_are_purged(self):
        sim, net, (a, b, c) = make_network(3)
        net.register_link(a.node_id, b.node_id)
        net.crash(b.node_id)  # pending notice for observer a
        net.crash(a.node_id)  # a dies before its notice fires
        assert all(obs != a.node_id for obs, _ in net._notified)
        sim.run()
        assert net._notified == set()
        assert a.link_failures == []

    def test_unlink_prunes_empty_peer_sets(self):
        sim, net, (a, b) = make_network(2)
        net.register_link(a.node_id, b.node_id)
        net.unregister_link(a.node_id, b.node_id)
        assert a.node_id not in net.links
        assert b.node_id not in net.links

    def test_repeated_crash_join_cycles_do_not_grow_state(self):
        sim, net, (anchor,) = make_network(1)
        for cycle in range(40):
            node = net.spawn(RecorderNode)
            net.register_link(anchor.node_id, node.node_id)
            net.capacity(node.node_id)
            net.send(anchor.node_id, node.node_id, Ping())
            net.crash(node.node_id)
            sim.run()
        # Forty generations of churn leave no residue beyond the anchor.
        assert net._notified == set()
        assert net._busy == {}
        assert set(net._capacities) <= {anchor.node_id}
        assert all(peers for peers in net.links.values())
        assert set(net.links) <= {anchor.node_id}
        # Every in-flight message to a dying node was accounted.
        assert net.metrics.counters["dropped"] == 40
        assert net.metrics.counters["crashes"] == 40


# ----------------------------------------------------------------------
# Fast-path selection
# ----------------------------------------------------------------------
class TestFastPathSelection:
    def test_constant_latency_is_zero_cost(self):
        from repro.sim.latency import ClusterLatency, ConstantLatency, PlanetLabLatency

        assert ConstantLatency().zero_cost()
        assert not ClusterLatency().zero_cost()
        assert not PlanetLabLatency().zero_cost()

    def test_occupancy_model_keeps_queueing_chain(self):
        """ClusterLatency charges tx/rx occupancy: the receive-processing
        event must still serialize behind the receiver's queue."""
        from repro.sim.latency import ClusterLatency
        from repro.sim.engine import Simulator
        from repro.sim.monitor import Metrics
        from repro.sim.network import Network

        sim = Simulator(seed=5)
        net = Network(sim, ClusterLatency(seed=5), Metrics())
        assert not net._fused and net._arrive == net._deliver
        a, b = net.spawn(RecorderNode), net.spawn(RecorderNode)
        net.send(a.node_id, b.node_id, Ping())
        net.send(a.node_id, b.node_id, Ping())
        sim.run()
        assert len(b.received) == 2
        t1, t2 = b.received[0][0], b.received[1][0]
        # Second message waits at least one rx_cost behind the first.
        assert t2 >= t1 + net.latency.rx_cost(b.node_id, Ping().size_bytes())
