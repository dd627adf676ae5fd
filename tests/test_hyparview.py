"""Tests for the HyParView peer sampling service."""

import networkx as nx
import pytest

from repro.config import HyParViewConfig
from repro.membership.hyparview import HyParViewNode
from repro.sim.engine import Simulator
from repro.sim.latency import ConstantLatency
from repro.sim.monitor import Metrics
from repro.sim.network import Network


def build_overlay(n, *, cfg=None, seed=1, join_spacing=0.05, settle=30.0, delay=0.001):
    """Bootstrap an n-node HyParView overlay and let it stabilize."""
    cfg = cfg or HyParViewConfig()
    sim = Simulator(seed=seed)
    net = Network(sim, ConstantLatency(delay), Metrics(record_deliveries=False))
    nodes = [net.spawn(lambda network, nid: HyParViewNode(network, nid, cfg))]
    rng = sim.rng("bootstrap")

    def add_one(i):
        node = net.spawn(lambda network, nid: HyParViewNode(network, nid, cfg))
        contact = rng.choice([x.node_id for x in nodes])
        node.join(contact)
        nodes.append(node)

    for i in range(1, n):
        sim.schedule(i * join_spacing, add_one, i)
    sim.run(until=n * join_spacing + settle)
    return sim, net, nodes


def overlay_graph(nodes):
    g = nx.Graph()
    for node in nodes:
        if node.alive:
            g.add_node(node.node_id)
            for peer in node.active:
                g.add_edge(node.node_id, peer)
    return g


class TestJoin:
    def test_two_node_join_is_mutual(self):
        sim, net, nodes = build_overlay(2)
        a, b = nodes
        assert b.node_id in a.active
        assert a.node_id in b.active
        assert net.linked(a.node_id, b.node_id)

    def test_overlay_is_connected(self):
        sim, net, nodes = build_overlay(64)
        g = overlay_graph(nodes)
        assert g.number_of_nodes() == 64
        assert nx.is_connected(g)

    def test_views_are_bidirectional(self):
        sim, net, nodes = build_overlay(48)
        by_id = {n.node_id: n for n in nodes}
        for node in nodes:
            for peer in node.active:
                assert node.node_id in by_id[peer].active, (
                    f"{node.node_id} -> {peer} not mutual"
                )

    def test_every_node_has_a_neighbor(self):
        sim, net, nodes = build_overlay(64)
        assert all(len(n.active) >= 1 for n in nodes)

    def test_degrees_bounded_by_expansion_cap(self):
        cfg = HyParViewConfig(active_size=4, expansion_factor=2.0)
        sim, net, nodes = build_overlay(64, cfg=cfg)
        assert all(len(n.active) <= cfg.max_active for n in nodes)

    def test_degree_concentrates_near_target(self):
        cfg = HyParViewConfig(active_size=4, expansion_factor=2.0)
        sim, net, nodes = build_overlay(96, cfg=cfg)
        mean_degree = sum(len(n.active) for n in nodes) / len(nodes)
        assert 3.0 <= mean_degree <= 8.0


class TestPassiveView:
    def test_shuffles_populate_passive_views(self):
        sim, net, nodes = build_overlay(48, settle=60.0)
        filled = sum(1 for n in nodes if len(n.passive) > 0)
        assert filled >= len(nodes) * 0.9

    def test_passive_respects_capacity(self):
        cfg = HyParViewConfig(passive_size=8)
        sim, net, nodes = build_overlay(48, cfg=cfg, settle=60.0)
        assert all(len(n.passive) <= 8 for n in nodes)

    def test_passive_never_contains_self_or_active(self):
        sim, net, nodes = build_overlay(48, settle=60.0)
        for n in nodes:
            assert n.node_id not in n.passive
            assert not (n.passive & set(n.active))


class TestFailureHandling:
    def test_failed_neighbor_removed_and_replaced(self):
        sim, net, nodes = build_overlay(48, settle=60.0)
        victim = nodes[5]
        peers = [net.nodes[p] for p in victim.active]
        net.crash(victim.node_id)
        sim.run(until=sim.now + 30.0)
        for peer in peers:
            if peer.alive:
                assert victim.node_id not in peer.active
                assert victim.node_id not in peer.passive
                # Replacement from passive keeps the view near target.
                assert len(peer.active) >= 1

    def test_overlay_survives_30pct_failures(self):
        sim, net, nodes = build_overlay(80, settle=60.0)
        rng = sim.rng("killer")
        victims = rng.sample(nodes, 24)
        for v in victims:
            net.crash(v.node_id)
        sim.run(until=sim.now + 60.0)
        survivors = [n for n in nodes if n.alive]
        g = overlay_graph(survivors)
        assert nx.is_connected(g)
        assert all(len(n.active) >= 1 for n in survivors)

    def test_neighbor_down_listener_fired_on_failure(self):
        """A crashed active peer reaches the dissemination layer's
        ``neighbor_down`` hook with ``failure=True``."""
        sim, net, nodes = build_overlay(16, settle=30.0)
        events = []
        observer = nodes[0]
        # An instance attribute shadows the class hook HyParView calls.
        observer.neighbor_down = lambda peer, failure: events.append((peer, failure))
        target = next(iter(observer.active))
        net.crash(target)
        sim.run(until=sim.now + 5.0)
        assert (target, True) in events


class TestEvictionSemantics:
    def test_disconnect_moves_peer_to_passive(self):
        cfg = HyParViewConfig(active_size=1, expansion_factor=1.0)
        sim = Simulator(seed=3)
        net = Network(sim, ConstantLatency(0.001), Metrics())
        a, b, c = (
            net.spawn(lambda network, nid: HyParViewNode(network, nid, cfg))
            for _ in range(3)
        )
        b.join(a.node_id)
        sim.run(until=5.0)
        assert a.active and b.active
        # c joins a: a's active is full (cap 1) -> b evicted to passive.
        c.join(a.node_id)
        sim.run(until=10.0)
        assert len(a.active) <= cfg.max_active

    def test_expansion_factor_allows_growth_past_target(self):
        cfg = HyParViewConfig(active_size=2, expansion_factor=2.0)
        sim, net, nodes = build_overlay(24, cfg=cfg, settle=30.0)
        sizes = [len(n.active) for n in nodes]
        assert max(sizes) <= cfg.max_active == 4
        # Some node actually used the expansion headroom.
        assert any(s > cfg.active_size for s in sizes)


class TestCrashCleansState:
    def test_crash_clears_views_and_timers(self):
        sim, net, nodes = build_overlay(8, settle=20.0)
        victim = nodes[3]
        net.crash(victim.node_id)
        assert victim.active == {} and victim.passive == set()
        assert not victim.alive
