"""Tests for the large-scale flood scenario (small populations here;
the 2k/10k runs live in benchmarks/test_scale_flood.py)."""

import pytest

from repro.experiments.scale import SCALES, get_scale
from repro.experiments.scale_flood import (
    build_static_flood_overlay,
    run_scale_flood,
)


class TestStaticOverlay:
    def test_views_are_symmetric_and_linked(self):
        sim, net, nodes = build_static_flood_overlay(64, degree=5, seed=2)
        for node in nodes:
            assert node.degree >= 2  # ring minimum
            for peer in node.active:
                assert node.node_id in nodes[peer].active
                assert net.linked(node.node_id, peer)

    def test_overlay_is_connected(self):
        sim, net, nodes = build_static_flood_overlay(97, degree=4, seed=3)
        seen = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for nid in frontier:
                for peer in nodes[nid].active:
                    if peer not in seen:
                        seen.add(peer)
                        nxt.append(peer)
            frontier = nxt
        assert len(seen) == 97

    def test_average_degree_close_to_target(self):
        _, _, nodes = build_static_flood_overlay(200, degree=6, seed=4)
        avg = sum(n.degree for n in nodes) / len(nodes)
        assert 5.0 <= avg <= 6.5

    def test_shuffle_timers_stopped_by_default(self):
        _, _, nodes = build_static_flood_overlay(8, seed=5)
        assert all(not n._shuffle_task.running for n in nodes)
        _, _, nodes = build_static_flood_overlay(8, seed=5, shuffles=True)
        assert all(n._shuffle_task.running for n in nodes)

    def test_too_small_population_rejected(self):
        with pytest.raises(ValueError):
            build_static_flood_overlay(2)
        with pytest.raises(ValueError):
            build_static_flood_overlay(16, degree=1)


class TestRunScaleFlood:
    def test_full_delivery_on_small_population(self):
        result = run_scale_flood(64, 5, seed=6)
        assert result.delivered_fraction == 1.0
        assert result.deliveries == 63 * 5
        assert result.events > 0
        assert result.events_per_sec > 0
        assert result.peak_pending > 0
        assert result.wall_time > 0
        assert result.kernel == "object"
        assert result.receptions > result.deliveries  # flooding duplicates
        assert result.survivors == 63

    def test_slotted_kernel_full_delivery(self):
        result = run_scale_flood(64, 5, seed=6, kernel="slotted")
        assert result.kernel == "slotted"
        assert result.delivered_fraction == 1.0
        assert result.deliveries == 63 * 5
        # Same simulation as the object kernel, draw for draw.
        reference = run_scale_flood(64, 5, seed=6)
        assert result.receptions == reference.receptions
        assert result.events == reference.events
        assert result.sim_time == reference.sim_time

    def test_result_serializes_for_bench_json(self):
        result = run_scale_flood(32, 3, seed=7)
        d = result.to_dict()
        for key in (
            "nodes", "messages", "events_per_sec", "deliveries_per_sec",
            "delivered_fraction", "peak_pending", "handle_pool_size",
        ):
            assert key in d
        assert d["nodes"] == 32
        # Human summary mentions the headline numbers.
        assert "delivered: 100.00%" in result.summary()

    def test_deterministic_for_fixed_seed(self):
        a = run_scale_flood(48, 4, seed=8)
        b = run_scale_flood(48, 4, seed=8)
        assert a.events == b.events
        assert a.deliveries == b.deliveries
        assert a.sim_time == b.sim_time


class TestNewScales:
    def test_large_and_xl_registered(self):
        assert get_scale("large").cluster_nodes == 2048
        assert get_scale("xl").cluster_nodes == 10_000
        assert set(SCALES) >= {"tiny", "fast", "paper", "large", "xl"}
