"""Integration tests: tree emergence from the bootstrap flood (§II-C/D/E)."""

import pytest

from repro.config import BrisaConfig, HyParViewConfig, StreamConfig
from repro.core.structure import (
    extract_structure,
    is_complete_structure,
    parent_counts,
    tree_depths,
)
from repro.experiments.common import build_brisa_testbed
from repro.sim.monitor import DISSEMINATION
from tests.helpers import assert_link_activation_symmetric, assert_positions_consistent


@pytest.fixture(scope="module")
def tree_run():
    """One 64-node tree dissemination shared by the read-only assertions."""
    bed = build_brisa_testbed(64, seed=11)
    source = bed.choose_source()
    result = bed.run_stream(source, StreamConfig(count=40, rate=5.0, payload_bytes=512))
    return bed, source, result


class TestEmergence:
    def test_all_messages_delivered_everywhere(self, tree_run):
        _, _, result = tree_run
        assert result.delivered_fraction() == 1.0

    def test_structure_is_spanning_and_acyclic(self, tree_run):
        bed, source, result = tree_run
        ok, reason = result.structure_ok()
        assert ok, reason

    def test_every_node_has_exactly_one_parent(self, tree_run):
        bed, source, result = tree_run
        g = result.structure()
        counts = parent_counts(g, source.node_id)
        assert set(counts.values()) == {1}

    def test_source_has_no_parent(self, tree_run):
        bed, source, _ = tree_run
        assert source.tree_parents(0) == []

    def test_steady_state_has_no_duplicates(self, tree_run):
        """After emergence, a tree delivers exactly one copy per message:
        the last message must produce zero duplicate receptions."""
        bed, source, result = tree_run
        sent = bed.metrics.msg_counts["brisa_data"][DISSEMINATION]
        n_receivers = len(result.receivers())
        # Total sends bounded by flood(first msgs) + ~1 send per receiver
        # for the remaining messages.
        assert sent < n_receivers * 40 * 1.35

    def test_duplicates_concentrated_in_bootstrap(self, tree_run):
        bed, source, result = tree_run
        dups = sum(result.duplicates_per_node())
        # Bounded by ~sum of degrees (each non-tree link fires O(1) dups
        # before deactivation), far below count * n.
        total_links = sum(len(n.active) for n in bed.alive_nodes())
        assert dups <= total_links * 2.5

    def test_paths_match_tree_structure(self, tree_run):
        """Each node's embedded path must equal the actual structure path."""
        bed, source, result = tree_run
        g = result.structure()
        depth_map = tree_depths(g, source.node_id)
        for node in bed.alive_nodes():
            if node is source:
                continue
            state = node.streams.get(0)
            assert state is not None and state.position is not None
            path = state.position
            assert path[0] == source.node_id
            assert path[-1] == node.node_id
            assert len(path) - 1 == depth_map[node.node_id]

    def test_construction_probes_recorded(self, tree_run):
        bed, _, _ = tree_run
        probes = bed.metrics.construction_probes
        assert len(probes) >= len(bed.nodes) * 0.5
        assert all(p.duration >= 0 for p in probes)

    def test_deactivations_were_sent(self, tree_run):
        bed, _, _ = tree_run
        assert bed.metrics.msg_counts["brisa_deactivate"][DISSEMINATION] > 0

    def test_link_activation_is_symmetric(self, tree_run):
        """No node holds a parent that stopped relaying to it (§II-E's
        silent mute never hits a child)."""
        bed, _, _ = tree_run
        assert_link_activation_symmetric(bed.nodes, 0)

    def test_paths_are_consistent_with_parents(self, tree_run):
        """Every path is its parent's path plus the node (§II-D)."""
        bed, _, _ = tree_run
        assert_positions_consistent(bed.nodes, 0)


class TestSourceBehaviour:
    def test_source_receives_no_data_in_steady_state(self):
        bed = build_brisa_testbed(24, seed=3)
        source = bed.choose_source()
        bed.run_stream(source, StreamConfig(count=30, rate=5.0, payload_bytes=64))
        # Every source neighbour either deactivated its outbound link to
        # the source, or has the source as its parent (in which case the
        # per-message sender exclusion already stops the backflow).
        for peer_id in source.active:
            peer = bed.node(peer_id)
            state = peer.streams.get(0)
            assert state is not None
            assert (
                source.node_id in state.out_deactivated
                or source.node_id in state.parents
            ), f"neighbour {peer_id} may still relay data back to the source"

    def test_source_never_records_deliveries(self):
        bed = build_brisa_testbed(24, seed=4)
        source = bed.choose_source()
        bed.run_stream(source, StreamConfig(count=10, rate=5.0, payload_bytes=64))
        sid = source.node_id
        for seq in range(10):
            assert sid not in bed.metrics.records(0, seq)


class TestPureReads:
    def test_reading_an_untouched_stream_creates_nothing(self):
        """``delivered_count`` and ``tree_parents`` are pure reads: on an
        idle node they neither create the stream nor, with the tail probe
        on, arm its timer (DESIGN.md §15)."""
        bed = build_brisa_testbed(
            8, seed=2, config=BrisaConfig(tail_probe=True), bootstrap="synthesized"
        )
        node = bed.nodes[3]
        pending = bed.sim.pending
        assert node.delivered_count(7) == 0
        assert node.tree_parents(7) == []
        assert 7 not in node.streams
        assert bed.sim.pending == pending


class TestSymmetricDeactivation:
    def test_symmetric_config_reduces_deactivate_traffic(self):
        def run(symmetric):
            cfg = BrisaConfig(symmetric_deactivation=symmetric)
            bed = build_brisa_testbed(48, seed=7, config=cfg)
            source = bed.choose_source()
            bed.run_stream(source, StreamConfig(count=20, rate=5.0, payload_bytes=64))
            counts = bed.metrics.msg_counts["brisa_deactivate"]
            return sum(counts.values())

        # The optimization prunes outgoing links without extra messages, so
        # the deactivate count must not increase.
        assert run(True) <= run(False)


class TestViewSizeEffect:
    def test_larger_views_build_shallower_trees(self):
        """Fig. 6: larger active views allow more children, reducing depth."""

        def max_depth(active_size):
            hpv = HyParViewConfig(active_size=active_size)
            bed = build_brisa_testbed(96, seed=13, hpv_config=hpv)
            source = bed.choose_source()
            result = bed.run_stream(
                source, StreamConfig(count=15, rate=5.0, payload_bytes=64)
            )
            g = result.structure()
            d = tree_depths(g, source.node_id)
            return max(d.values())

        assert max_depth(8) <= max_depth(4)


class TestMultiStream:
    def test_independent_structures_per_stream(self):
        """§IV extension: several sources emerge independent trees over one
        overlay, keyed by stream id."""
        bed = build_brisa_testbed(32, seed=9)
        nodes = bed.alive_nodes()
        src_a, src_b = nodes[0], nodes[1]
        bed.start_stream(src_a, StreamConfig(count=10, rate=5.0, payload_bytes=64, stream_id=1))
        bed.start_stream(src_b, StreamConfig(count=10, rate=5.0, payload_bytes=64, stream_id=2))
        bed.sim.run(until=bed.sim.now + 30.0)
        g1 = extract_structure(bed.alive_nodes(), stream=1)
        g2 = extract_structure(bed.alive_nodes(), stream=2)
        ok1, r1 = is_complete_structure(g1, src_a.node_id, set(bed.alive_ids()))
        ok2, r2 = is_complete_structure(g2, src_b.node_id, set(bed.alive_ids()))
        assert ok1, r1
        assert ok2, r2
        # The two trees are rooted differently and generally differ.
        assert set(g1.edges) != set(g2.edges)
