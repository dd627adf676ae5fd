"""Tests for the transient-connection cost helper (TAG's cost model)."""

import pytest

from repro.sim.transport import TransientConnCost

from tests.helpers import make_network


def test_setup_delay_is_rtts_times_factor():
    sim, net, (a, b) = make_network(2, delay=0.01)
    t = TransientConnCost(net, a.node_id, setup_rtts=1.5)
    assert t.setup_delay(b.node_id) == pytest.approx(1.5 * 0.02)


def test_connect_fires_on_ready_after_delay():
    sim, net, (a, b) = make_network(2, delay=0.01)
    t = TransientConnCost(net, a.node_id, setup_rtts=1.5)
    fired = []
    t.connect(b.node_id, on_ready=lambda: fired.append(sim.now))
    sim.run()
    assert fired == [pytest.approx(0.03)]


def test_connect_to_dead_peer_fires_on_fail():
    sim, net, (a, b) = make_network(2)
    net.crash(b.node_id)
    t = TransientConnCost(net, a.node_id)
    outcome = []
    t.connect(b.node_id, on_ready=lambda: outcome.append("ready"),
              on_fail=lambda: outcome.append("fail"))
    sim.run()
    assert outcome == ["fail"]


def test_peer_dying_during_handshake_fails():
    sim, net, (a, b) = make_network(2, delay=1.0)
    t = TransientConnCost(net, a.node_id, setup_rtts=1.0)  # 2 s handshake
    outcome = []
    t.connect(b.node_id, on_ready=lambda: outcome.append("ready"),
              on_fail=lambda: outcome.append("fail"))
    sim.schedule(1.0, net.crash, b.node_id)
    sim.run()
    assert outcome == ["fail"]


def test_failure_without_handler_is_silent():
    sim, net, (a, b) = make_network(2)
    net.crash(b.node_id)
    TransientConnCost(net, a.node_id).connect(b.node_id, on_ready=lambda: (_ for _ in ()).throw(AssertionError))
    sim.run()  # must not raise


def test_zero_setup_cost():
    sim, net, (a, b) = make_network(2, delay=0.01)
    t = TransientConnCost(net, a.node_id, setup_rtts=0.0)
    fired = []
    t.connect(b.node_id, on_ready=lambda: fired.append(sim.now))
    sim.run()
    assert fired == [0.0]
