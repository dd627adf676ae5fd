"""Tests for the TAG baseline (§III-D)."""

import pytest

from repro.config import StreamConfig, TagConfig
from repro.experiments import robustness
from repro.experiments.common import build_tag_testbed
from repro.experiments.scale import PAPER, TINY

FAST_TAG = TagConfig(
    pull_period=0.1, pull_batch=8, gossip_pull_period=0.5, min_parent_age=1.0
)


def tag_run(n=24, msgs=20, seed=3, cfg=FAST_TAG, drain=30.0):
    bed, tracker = build_tag_testbed(n, seed=seed, tag_config=cfg)
    root = bed.nodes[0]
    result = bed.run_stream(
        root, StreamConfig(count=msgs, rate=5.0, payload_bytes=128), drain=drain
    )
    return bed, tracker, root, result


class TestListConstruction:
    def test_list_sorted_by_join_time(self):
        bed, tracker, _, _ = tag_run(n=16)
        order = {nid: i for i, nid in enumerate(tracker.members)}
        for node in bed.alive_nodes():
            if node.pred is not None:
                assert order[node.pred] < order[node.node_id]

    def test_pred_succ_symmetry(self):
        bed, tracker, _, _ = tag_run(n=16)
        by_id = {n.node_id: n for n in bed.alive_nodes()}
        for node in bed.alive_nodes():
            if node.succ is not None and node.succ in by_id:
                assert by_id[node.succ].pred == node.node_id

    def test_every_node_settles_with_parent(self):
        bed, tracker, root, _ = tag_run(n=24)
        for node in bed.alive_nodes():
            if node is root:
                continue
            assert node.joined
            assert node.parent is not None

    def test_max_children_respected(self):
        bed, tracker, root, _ = tag_run(n=32, seed=4)
        for node in bed.alive_nodes():
            assert len(node.children) <= FAST_TAG.max_children + 1  # root slack

    def test_construction_probes_recorded(self):
        bed, tracker, _, _ = tag_run(n=24, seed=5)
        probes = bed.metrics.construction_probes
        assert len(probes) >= 20
        assert all(p.duration >= 0 for p in probes)

    def test_gossip_partners_collected(self):
        bed, tracker, _, _ = tag_run(n=32, seed=6)
        with_partners = [n for n in bed.alive_nodes() if n.partners]
        assert len(with_partners) >= len(bed.alive_nodes()) * 0.5


class TestPullDissemination:
    def test_root_stream_reaches_all(self):
        bed, tracker, root, result = tag_run(n=24, msgs=20, seed=7)
        assert result.delivered_fraction() == 1.0

    def test_pull_latency_exceeds_push(self):
        """Pull adds at least ~pull_period/2 per tree hop."""
        bed, tracker, root, result = tag_run(n=24, msgs=10, seed=8)
        delays = []
        for seq in range(10):
            inj = bed.metrics.streams[0].injections[seq]
            for nid, rec in bed.metrics.streams[0].deliveries[seq].items():
                delays.append(rec.time - inj)
        assert max(delays) > FAST_TAG.pull_period  # at least one pull round

    def test_bounded_batch_throttles_throughput(self):
        """With pull capacity below the injection rate, the backlog drains
        only after injections stop — TAG's Table II latency penalty."""
        slow = TagConfig(
            pull_period=0.4, pull_batch=1, gossip_pull_period=2.0, min_parent_age=1.0
        )
        bed, tracker = build_tag_testbed(8, seed=9, tag_config=slow)
        root = bed.nodes[0]
        stream = StreamConfig(count=40, rate=5.0, payload_bytes=64)
        start = bed.sim.now
        result = bed.run_stream(root, stream, drain=90.0)
        assert result.delivered_fraction() == 1.0
        last_delivery = max(
            rec.time
            for seq in range(stream.count)
            for rec in bed.metrics.streams[0].deliveries[seq].values()
        )
        # Injections end after 7.8 s, but the 2.5 msg/s pull capacity needs
        # ~16 s per hop chain to drain 40 messages.
        assert last_delivery - start > stream.duration * 1.5


class TestFailureHandling:
    def test_parent_failure_soft_repair_via_list(self):
        bed, tracker, root, _ = tag_run(n=24, seed=10)
        victim_child = next(
            n for n in bed.alive_nodes()
            if n.parent is not None and n.parent != root.node_id
            and n.pred is not None and n.pred != n.parent
        )
        dead = victim_child.parent
        bed.network.crash(dead)
        bed.sim.run(until=bed.sim.now + 30.0)
        assert victim_child.parent is not None
        assert victim_child.parent != dead
        repairs = [r for r in bed.metrics.repair_events if r.node == victim_child.node_id]
        assert repairs and repairs[0].duration > 0

    def test_broken_list_forces_hard_reinsertion(self):
        bed, tracker, root, _ = tag_run(n=24, seed=11)
        # Find a node and kill parent AND its pred/pred2 simultaneously to
        # break the list around it.
        child = next(
            n for n in bed.alive_nodes()
            if n.parent is not None and n.pred is not None
        )
        victims = {child.parent, child.pred}
        if child.pred2 is not None:
            victims.add(child.pred2)
        victims.discard(child.node_id)
        victims.discard(root.node_id)
        for v in victims:
            bed.network.crash(v)
        bed.sim.run(until=bed.sim.now + 40.0)
        assert child.alive
        # The node recovered some parent eventually.
        if child.parent is not None:
            assert child.parent not in victims

    def test_stream_continues_after_churn(self):
        bed, tracker, root, _ = tag_run(n=24, msgs=40, seed=12, drain=40.0)
        rng = bed.sim.rng("kill")
        victims = rng.sample([n for n in bed.alive_nodes() if n is not root], 4)
        for v in victims:
            bed.network.crash(v.node_id)
        stream2 = StreamConfig(count=20, rate=5.0, payload_bytes=64, stream_id=1)
        result2 = bed.run_stream(root, stream2, drain=60.0)
        # All surviving nodes that are still attached eventually receive;
        # allow stragglers mid-repair.
        assert result2.delivered_fraction() > 0.9


def fig14_tag_leg(n, churn_percent, seed, sc):
    """Fig. 14's TAG leg (``robustness.fig14_recovery``) on ``n`` nodes
    with the churn timing of scale ``sc``."""
    bed, _ = build_tag_testbed(
        n,
        seed=seed,
        tag_config=TagConfig(min_parent_age=min(3.0, sc.settle / 4)),
        join_spacing=sc.join_spacing,
        settle=sc.settle,
        record_deliveries=False,
    )
    robustness._run_churn(
        bed, bed.nodes[0], churn_percent=churn_percent,
        duration=sc.churn_duration, period=sc.churn_period,
    )
    return bed


class TestReinsertionNeverNamesItself:
    """A node that re-inserts at the list tail can land behind its own
    successor, so the tail's list state names the node.  These beds are
    the smallest found that crashed with a self-link or a self-message;
    ``repro run fig14 --scale paper`` (128 nodes, 6 %, seed 7) crashed
    the first way."""

    @staticmethod
    def assert_no_self_reference(bed):
        for node in bed.alive_nodes():
            assert node.node_id not in (node.pred, node.pred2, node.succ, node.succ2)

    def test_promoted_pred2_is_never_the_node(self):
        # The parent crashed here: a failed predecessor promoted a pred2
        # that was the node itself and linked to it.
        self.assert_no_self_reference(fig14_tag_leg(24, 12.0, 8, PAPER))

    def test_traversal_never_steps_onto_the_node(self):
        # The parent crashed here: a probe reply named the traversing
        # node as the replier's predecessor, and the node messaged itself.
        self.assert_no_self_reference(fig14_tag_leg(12, 20.0, 7, TINY))
