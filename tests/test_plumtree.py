"""Tests for the PlumTree baseline (§V's closest BRISA relative)."""

import pytest

from repro.config import HyParViewConfig, StreamConfig
from repro.baselines.plumtree import PlumTreeNode
from repro.experiments.common import Testbed as _Testbed  # alias: avoid pytest collection


def build_plumtree(n, *, seed=3, settle=30.0, missing_timeout=0.3):
    hpv = HyParViewConfig(active_size=4)
    bed = _Testbed(seed=seed)
    bed.populate(
        n,
        lambda network, nid: PlumTreeNode(
            network, nid, hpv, missing_timeout=missing_timeout
        ),
        settle=settle,
    )
    return bed


def run_stream(bed, count=30, rate=5.0, payload=128, drain=15.0):
    source = bed.choose_source()
    result = bed.run_stream(
        source, StreamConfig(count=count, rate=rate, payload_bytes=payload), drain=drain
    )
    return source, result


class TestDissemination:
    def test_all_messages_delivered(self):
        bed = build_plumtree(48)
        source, result = run_stream(bed)
        assert result.delivered_fraction() == 1.0

    def test_duplicates_pruned_into_tree(self):
        """After the first messages, PRUNEs turn the flood into a spanning
        tree: payload duplicates approach zero, like BRISA."""
        bed = build_plumtree(48, seed=4)
        source, result = run_stream(bed, count=40)
        receivers = len(result.receivers())
        gossip_sends = sum(bed.metrics.msg_counts["pt_gossip"].values())
        # Bounded by flood(first msgs) + ~1 payload per receiver afterwards.
        assert gossip_sends < receivers * 40 * 1.4

    def test_lazy_links_formed(self):
        bed = build_plumtree(48, seed=5)
        source, result = run_stream(bed, count=40)
        with_lazy = [
            n for n in bed.alive_nodes() if n.lazy.get(0) and len(n.lazy[0]) > 0
        ]
        assert len(with_lazy) > len(bed.alive_nodes()) * 0.5

    def test_constant_ihave_overhead(self):
        """The §V trade-off: every pruned link keeps carrying one IHave per
        message, forever — control overhead proportional to the stream."""
        bed = build_plumtree(48, seed=6)
        source, result = run_stream(bed, count=40)
        ihaves = sum(bed.metrics.msg_counts["pt_ihave"].values())
        # At least ~one advertisement per lazy link per late message.
        assert ihaves > 40 * 10


class TestGraftRepair:
    def test_failure_recovers_through_graft(self):
        bed = build_plumtree(48, seed=7, missing_timeout=0.2)
        source = bed.choose_source()
        bed.start_stream(source, StreamConfig(count=120, rate=5.0, payload_bytes=128))
        bed.sim.run(until=bed.sim.now + 5.0)
        # Kill a relay that serves someone eagerly.
        victim = next(
            n for n in bed.alive_nodes()
            if n is not source and any(
                n.node_id not in m.lazy.get(0, set())
                for m in bed.alive_nodes() if m is not n
            )
        )
        bed.network.crash(victim.node_id)
        bed.sim.run(until=bed.sim.now + 30.0)
        injected = set(bed.metrics.streams[0].injections)
        for node in bed.alive_nodes():
            if node is source:
                continue
            missing = injected - node.seqs[0].delivered
            assert not missing, f"node {node.node_id} missing {sorted(missing)[:5]}"
        grafts = sum(bed.metrics.msg_counts.get("pt_graft", {}).values())
        assert grafts > 0

    def test_graft_timer_noop_when_payload_arrived(self):
        bed = build_plumtree(16, seed=8)
        source, result = run_stream(bed, count=10)
        node = next(n for n in bed.alive_nodes() if n is not source)
        # Arm a timer for a message that is already present: no graft sent.
        before = sum(bed.metrics.msg_counts.get("pt_graft", {}).values())
        node._graft_timer(0, 0)
        bed.sim.run(until=bed.sim.now + 1.0)
        after = sum(bed.metrics.msg_counts.get("pt_graft", {}).values())
        assert after == before
