"""White-box tests for BrisaNode internals: link bookkeeping, depth
updates, retransmissions, repair timeouts and membership edge cases."""

import pytest

from repro.config import BrisaConfig, HyParViewConfig, StreamConfig
from repro.core import messages as bm
from repro.core.brisa import BrisaNode
from repro.experiments.common import build_brisa_testbed
from repro.sim.engine import Simulator
from repro.sim.latency import ConstantLatency
from repro.sim.monitor import Metrics
from repro.sim.network import Network


def tiny_pair(seed=1, config=None):
    """Two directly-linked BRISA nodes with manual wiring (no PSS noise)."""
    sim = Simulator(seed=seed)
    net = Network(sim, ConstantLatency(0.001), Metrics())
    cfg = config or BrisaConfig()
    a = net.spawn(lambda n, i: BrisaNode(n, i, cfg))
    b = net.spawn(lambda n, i: BrisaNode(n, i, cfg))
    b.join(a.node_id)
    sim.run(until=2.0)
    assert b.node_id in a.active and a.node_id in b.active
    return sim, net, a, b


class TestLinkBookkeeping:
    def test_deactivate_marks_both_sides(self):
        sim, net, a, b = tiny_pair()
        a.become_source(0)
        a.inject(0, 0, 100)
        sim.run(until=sim.now + 1.0)
        # b adopted a; now b deactivates a manually and a must stop relaying.
        state_b = b.stream_state(0)
        b._deactivate_link(state_b, a.node_id)
        sim.run(until=sim.now + 1.0)
        assert not state_b.in_active[a.node_id]
        assert b.node_id in a.stream_state(0).out_deactivated

    def test_activate_clears_out_deactivated(self):
        sim, net, a, b = tiny_pair()
        state_a = a.stream_state(0)
        state_a.out_deactivated.add(b.node_id)
        b.send(a.node_id, bm.Activate(0, adopt=False))
        sim.run(until=sim.now + 1.0)
        assert b.node_id not in state_a.out_deactivated

    def test_adopt_ack_carries_position(self):
        sim, net, a, b = tiny_pair()
        a.become_source(0)
        a.inject(0, 0, 10)
        sim.run(until=sim.now + 1.0)
        state_b = b.stream_state(0)
        state_b.repairing = True
        state_b.repair_pending = a.node_id
        b.send(a.node_id, bm.Activate(0, adopt=True))
        sim.run(until=sim.now + 1.0)
        # The ack re-validated and finished the repair.
        assert not state_b.repairing
        assert a.node_id in state_b.parents


class TestRetransmission:
    def test_retransmit_serves_only_buffered_gap(self):
        sim, net, a, b = tiny_pair()
        a.become_source(0)
        for seq in range(5):
            a.inject(0, seq, 64)
        sim.run(until=sim.now + 1.0)
        before = b.delivered_count(0)
        assert before == 5
        b.send(a.node_id, bm.RetransmitRequest(0, 2))
        sim.run(until=sim.now + 1.0)
        # seqs 3..4 re-sent as recovered data; b treats them as duplicates.
        assert b.delivered_count(0) == 5
        assert net.metrics.streams[0].duplicates[b.node_id] >= 2

    def test_recovered_messages_marked(self):
        sim, net, a, b = tiny_pair()
        a.become_source(0)
        a.inject(0, 0, 64)
        sim.run(until=sim.now + 1.0)
        sent = []
        original_send = a.send
        a.send = lambda dst, msg: (sent.append(msg), original_send(dst, msg))
        a.on_brisa_retransmit(b.node_id, bm.RetransmitRequest(0, -1))
        data = [m for m in sent if isinstance(m, bm.Data)]
        assert data and all(m.recovered for m in data)


class TestRepairTimeout:
    def test_timeout_advances_to_next_candidate(self):
        sim, net, a, b = tiny_pair()
        state = b.stream_state(0)
        state.position = (99, b.node_id)  # engaged
        state.repairing = True
        state.repair_allow_hard = False
        state.repair_pending = 12345  # a candidate that will never answer
        state.repair_attempt = 1
        b._repair_timeout(0, 1)
        # Queue empty + no hard allowed -> repair ends quietly.
        assert not state.repairing

    def test_stale_timeout_ignored(self):
        sim, net, a, b = tiny_pair()
        state = b.stream_state(0)
        state.position = (99, b.node_id)
        state.repairing = True
        state.repair_pending = a.node_id
        state.repair_attempt = 5
        b._repair_timeout(0, attempt=3)  # stale
        assert state.repairing and state.repair_pending == a.node_id


class TestMembershipEdges:
    def test_neighbor_up_marks_link_active(self):
        sim, net, a, b = tiny_pair()
        state = a.stream_state(0)
        state.in_active.pop(b.node_id, None)
        a.neighbor_up(b.node_id)
        assert state.in_active[b.node_id] is True

    def test_neighbor_down_of_pending_repair_candidate(self):
        sim, net, a, b = tiny_pair()
        state = b.stream_state(0)
        state.position = (99, b.node_id)
        state.repairing = True
        state.repair_allow_hard = False
        state.repair_pending = a.node_id
        b.neighbor_down(a.node_id, failure=True)
        # Pending candidate died: repair moved on (and ended quietly).
        assert state.repair_pending != a.node_id

    def test_source_never_repairs(self):
        sim, net, a, b = tiny_pair()
        a.become_source(0)
        state = a.stream_state(0)
        a._begin_repair(state, record=True)
        assert not state.repairing


class TestDataEdgeCases:
    def test_data_from_non_neighbor_still_delivers(self):
        sim, net, a, b = tiny_pair()
        stranger_msg = bm.Data(0, 7, 32, path=(99,), sent_at=sim.now)
        b.handle_message(99, stranger_msg)
        assert 7 in b.stream_state(0).delivered
        # But a non-neighbour is never adopted as parent.
        assert 99 not in b.stream_state(0).parents

    def test_duplicate_from_parent_is_maintenance_not_deactivation(self):
        sim, net, a, b = tiny_pair()
        a.become_source(0)
        a.inject(0, 0, 32)
        sim.run(until=sim.now + 1.0)
        state = b.stream_state(0)
        assert a.node_id in state.parents
        dup = bm.Data(0, 0, 32, path=(a.node_id,), sent_at=sim.now)
        b.handle_message(a.node_id, dup)
        assert a.node_id in state.parents
        assert state.in_active[a.node_id]

    def test_gap_triggers_rate_limited_retransmit(self):
        sim, net, a, b = tiny_pair()
        a.become_source(0)
        a.inject(0, 0, 32)
        sim.run(until=sim.now + 1.0)
        sent_before = net.metrics.msg_counts.get("brisa_retransmit", {}).get(
            "dissemination", 0
        ) + net.metrics.msg_counts.get("brisa_retransmit", {}).get("stabilization", 0)
        # Deliver seq 5 directly from the parent: gap 1..4.
        gap = bm.Data(0, 5, 32, path=(a.node_id,), sent_at=sim.now)
        b.handle_message(a.node_id, gap)
        sim.run(until=sim.now + 1.0)
        total = sum(net.metrics.msg_counts.get("brisa_retransmit", {}).values())
        assert total > sent_before


class TestDepthMode:
    def test_depth_update_from_parent_demotes_child(self):
        cfg = BrisaConfig(mode="dag", num_parents=2)
        sim, net, a, b = tiny_pair(config=cfg)
        a.become_source(0)
        a.inject(0, 0, 32)
        sim.run(until=sim.now + 1.0)
        state = b.stream_state(0)
        assert state.position == 1
        b.handle_message(a.node_id, bm.DepthUpdate(0, 1))
        assert state.position == 2

    def test_sources_cannot_be_demoted(self):
        cfg = BrisaConfig(mode="dag", num_parents=2)
        sim, net, a, b = tiny_pair(config=cfg)
        a.become_source(0)
        assert a.stream_state(0).position == 0
        a.handle_message(b.node_id, bm.DepthUpdate(0, 5))
        assert a.stream_state(0).position == 0


class TestConstructionProbeSemantics:
    def test_probe_recorded_once(self):
        bed = build_brisa_testbed(24, seed=3)
        source = bed.choose_source()
        bed.run_stream(source, StreamConfig(count=30, rate=5.0, payload_bytes=64))
        nodes_with_probe = [p.node for p in bed.metrics.construction_probes]
        assert len(nodes_with_probe) == len(set(nodes_with_probe))
