"""Tests for the SimpleTree baseline (§III-D)."""

import networkx as nx
import pytest

from repro.config import SimpleTreeConfig, StreamConfig
from repro.experiments.common import build_simpletree_testbed


def tree_graph(bed, coordinator):
    g = nx.DiGraph()
    for node in bed.alive_nodes():
        g.add_node(node.node_id)
        if node.parent is not None:
            g.add_edge(node.parent, node.node_id)
    return g


class TestConstruction:
    def test_every_node_gets_parent_that_joined_earlier(self):
        bed, coord = build_simpletree_testbed(32, seed=3)
        join_order = {nid: i for i, nid in enumerate(coord.members)}
        for node in bed.alive_nodes():
            if node.parent is not None:
                assert join_order[node.parent] < join_order[node.node_id]

    def test_structure_is_a_tree(self):
        bed, coord = build_simpletree_testbed(32, seed=4)
        g = tree_graph(bed, coord)
        root = coord.members[0]
        assert nx.is_directed_acyclic_graph(g)
        reachable = set(nx.descendants(g, root)) | {root}
        assert reachable == set(g.nodes)

    def test_children_lists_match_parents(self):
        bed, coord = build_simpletree_testbed(24, seed=5)
        by_id = {n.node_id: n for n in bed.alive_nodes()}
        for node in bed.alive_nodes():
            if node.parent is not None:
                assert node.node_id in by_id[node.parent].children

    def test_max_children_respected(self):
        cfg = SimpleTreeConfig(max_children=2)
        bed, coord = build_simpletree_testbed(40, seed=6, tree_config=cfg)
        for node in bed.alive_nodes():
            assert len(node.children) <= 2

    def test_single_join_message_per_node(self):
        """§III-D: 'only a single communication step with the centralized
        node is needed' — join traffic is one round trip per node."""
        bed, coord = build_simpletree_testbed(32, seed=7)
        joins = sum(bed.metrics.msg_counts["st_join"].values())
        assert joins == 32


class TestDissemination:
    def test_root_source_reaches_all(self):
        bed, coord = build_simpletree_testbed(32, seed=8)
        root = bed.node(coord.members[0])
        result = bed.run_stream(root, StreamConfig(count=20, rate=5.0, payload_bytes=128))
        assert result.delivered_fraction() == 1.0

    def test_non_root_source_reaches_all(self):
        """The paper picks random sources; pushes travel both down the
        children links and up to the parent."""
        bed, coord = build_simpletree_testbed(32, seed=9)
        source = bed.choose_source()
        result = bed.run_stream(source, StreamConfig(count=20, rate=5.0, payload_bytes=128))
        assert result.delivered_fraction() == 1.0

    def test_zero_duplicates(self):
        """A tree delivers exactly one copy per node per message."""
        bed, coord = build_simpletree_testbed(32, seed=10)
        source = bed.choose_source()
        result = bed.run_stream(source, StreamConfig(count=20, rate=5.0, payload_bytes=128))
        assert sum(result.duplicates_per_node()) == 0

    def test_latency_is_near_ideal(self):
        """Table II: SimpleTree's dissemination span ~= injection span."""
        bed, coord = build_simpletree_testbed(32, seed=11)
        source = bed.choose_source()
        stream = StreamConfig(count=50, rate=10.0, payload_bytes=128)
        result = bed.run_stream(source, stream)
        spans = []
        for node in bed.alive_nodes():
            if node is source:
                continue
            times = [
                bed.metrics.streams[0].deliveries[seq][node.node_id].time
                for seq in range(stream.count)
            ]
            spans.append(max(times) - min(times))
        mean_span = sum(spans) / len(spans)
        assert mean_span == pytest.approx(stream.duration, rel=0.05)
