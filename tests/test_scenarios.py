"""Smoke + shape tests for the per-figure scenarios (tiny scale).

These verify the scenario plumbing end to end and the qualitative shapes
the benches assert at larger scale.
"""

import pytest

from repro.experiments.scale import TINY, get_scale
from repro.experiments.scenarios import (
    fig2_duplicates,
    fig6_fig7_structure,
    fig8_tree_shape,
    fig9_routing_delays,
    fig12_bandwidth_comparison,
    fig13_construction,
    fig14_recovery,
    table1_churn,
    table2_latency,
)
from repro.sim.monitor import DISSEMINATION, STABILIZATION


class TestScale:
    def test_get_scale_known(self):
        assert get_scale("tiny").name == "tiny"
        assert get_scale("paper").cluster_nodes == 512

    def test_get_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        assert get_scale().name == "tiny"

    def test_get_scale_unknown(self):
        with pytest.raises(ValueError):
            get_scale("galactic")


class TestFig2:
    def test_larger_views_more_duplicates(self):
        # At 32 nodes the medians of nearby view sizes can tie (views
        # saturate against the small population); compare means and leave
        # the strong median anchor to the full-scale Fig. 2 bench.
        res = fig2_duplicates(TINY, view_sizes=(4, 8), seed=1)
        assert res.by_view[8].mean > res.by_view[4].mean
        assert res.by_view[4].min >= 0


class TestFig6Fig7:
    @pytest.fixture(scope="class")
    def dists(self):
        return fig6_fig7_structure(TINY, seed=2)

    def test_all_configs_present(self, dists):
        assert len(dists.depth) == 4 and len(dists.degree) == 4

    def test_larger_view_shallower_tree(self, dists):
        # At 32 nodes both trees are shallow; compare means with slack
        # (the full-scale trend is asserted by the Fig. 6 bench).
        assert (
            dists.depth["tree, view=8"].mean
            <= dists.depth["tree, view=4"].mean + 0.5
        )

    def test_dag_at_least_as_deep_as_tree(self, dists):
        assert dists.depth["DAG 2 parents, view=4"].max >= dists.depth["tree, view=4"].max - 1

    def test_dags_have_fewer_leaves(self, dists):
        """Fig. 7: DAGs engage more nodes in relaying (fewer degree-0)."""
        tree_leaves = dists.degree["tree, view=4"].fraction_at_most(0)
        dag_leaves = dists.degree["DAG 2 parents, view=4"].fraction_at_most(0)
        assert dag_leaves <= tree_leaves


class TestFig8:
    def test_dot_and_summary(self):
        res = fig8_tree_shape(n=40, view_sizes=(4,), seed=3)
        assert "digraph" in res.dot[4]
        s = res.summary[4]
        assert s["nodes"] == 40
        assert s["edges"] == 39  # spanning tree


class TestFig9:
    def test_series_and_ordering(self):
        # Note: at tiny scale (24 nodes, ~2 tree levels) the strategy
        # effect is mostly noise; the ordering assertion uses the
        # documented seed.  The Fig. 9 bench re-validates at full scale.
        res = fig9_routing_delays(TINY, seed=24)
        assert set(res.series) == {"point-to-point", "delay-aware", "first-pick", "flood"}
        assert res.series["point-to-point"].median <= res.series["delay-aware"].median
        assert res.series["delay-aware"].median <= res.series["first-pick"].median * 1.3
        assert res.series["flood"].median >= res.series["delay-aware"].median * 0.9


class TestTable1:
    @pytest.fixture(scope="class")
    def table(self):
        # Tiny populations need a higher nominal rate for churn to show up
        # at all (expected kills scale with n * pct * duration).
        return table1_churn(TINY, seed=6, populations=(24,), churn_rates=(20.0,))

    def test_rows_present(self, table):
        assert (24, 20.0, "tree") in table.rows
        assert (24, 20.0, "dag") in table.rows

    def test_churn_applied(self, table):
        assert table.rows[(24, 20.0, "tree")].kills > 0

    def test_dag_orphans_below_tree(self, table):
        tree = table.rows[(24, 20.0, "tree")]
        dag = table.rows[(24, 20.0, "dag")]
        assert dag.orphans_per_min <= tree.orphans_per_min

    def test_repair_percentages_sum(self, table):
        for row in table.rows.values():
            assert row.soft_repair_pct + row.hard_repair_pct == pytest.approx(100.0)


class TestFig12:
    @pytest.fixture(scope="class")
    def res(self):
        return fig12_bandwidth_comparison(TINY, payload_kb=(0, 10), seed=8)

    def test_all_protocols(self, res):
        assert set(res.data) == {"SimpleTree", "BRISA", "SimpleGossip", "TAG"}

    def test_gossip_has_no_stabilization_share(self, res):
        assert res.data["SimpleGossip"][10][STABILIZATION] == 0.0

    def test_gossip_most_expensive_at_large_payloads(self, res):
        """Fig. 12: duplicates make SimpleGossip dominate at 10-20 KB."""
        assert res.total("SimpleGossip", 10) > res.total("BRISA", 10)
        assert res.total("SimpleGossip", 10) > res.total("SimpleTree", 10)

    def test_simpletree_cheapest_management(self, res):
        assert res.data["SimpleTree"][0][STABILIZATION] <= res.data["BRISA"][0][STABILIZATION]


class TestFig13:
    def test_planetlab_hurts_tag_more(self):
        res = fig13_construction(TINY, seed=9)
        brisa_pl = res.series[("BRISA", "PlanetLab")]
        tag_pl = res.series[("TAG", "PlanetLab")]
        assert not brisa_pl.empty and not tag_pl.empty
        # §III-D: TAG's per-hop connection setup dominates on wide-area RTTs.
        assert tag_pl.median > brisa_pl.median


class TestTable2:
    def test_latency_ordering(self):
        res = table2_latency(TINY, seed=10)
        lat = res.latency
        assert lat["SimpleTree"] <= lat["BRISA"] * 1.05
        assert lat["TAG"] > lat["SimpleTree"] * 1.4
        assert res.delivered["BRISA"] == pytest.approx(1.0)
        assert res.overhead("TAG") > 0.3


class TestFig14:
    def test_recovery_delays_collected(self):
        res = fig14_recovery(TINY, seed=7)
        assert res.churn_percent == 6.0
        assert "BRISA tree" in res.hard and "TAG" in res.hard
        # Churn at 6%/min over 60 s should produce at least some repairs.
        total_events = sum(len(c) for c in res.hard.values()) + sum(
            len(c) for c in res.soft.values()
        )
        assert total_events > 0
