"""Tests for the parent-selection strategies (§II-E, §IV)."""

import pytest

from repro.core.strategies import (
    Candidate,
    DelayAwareStrategy,
    FirstComeStrategy,
    GerontocraticStrategy,
    HeterogeneityAwareStrategy,
    LoadBalancingStrategy,
    make_strategy,
)


def test_candidate_keeps_no_instance_dict():
    """``Candidate`` is slotted: a node holds one per in-view peer and
    stream, so an instance ``__dict__`` would cost peak memory on every
    one of them.  No attribute can be hung on it either."""
    c = Candidate(1, 0.0)
    assert not hasattr(c, "__dict__")
    with pytest.raises(AttributeError):
        c.score = 1.0


def cand(peer, arrival=0.0, rtt=0.1, uptime=10.0, load=2, capacity=1.0):
    return Candidate(peer, arrival, rtt, uptime, load, capacity)


class TestFirstCome:
    def setup_method(self):
        self.s = FirstComeStrategy()

    def test_earliest_arrival_wins(self):
        a, b = cand(1, arrival=1.0), cand(2, arrival=2.0)
        assert self.s.best([a, b]) is a

    def test_never_swaps_incumbent(self):
        incumbent = cand(1, arrival=1.0)
        newcomer = cand(2, arrival=5.0, rtt=0.0001)
        assert not self.s.prefers(newcomer, incumbent)

    def test_supports_symmetric_deactivation(self):
        assert self.s.supports_symmetric


class TestDelayAware:
    def setup_method(self):
        self.s = DelayAwareStrategy()

    def test_lowest_rtt_wins(self):
        a, b = cand(1, rtt=0.2), cand(2, rtt=0.05)
        assert self.s.best([a, b]) is b

    def test_swap_needs_margin(self):
        incumbent = cand(1, rtt=0.100)
        barely = cand(2, rtt=0.099)
        clearly = cand(3, rtt=0.050)
        assert not self.s.prefers(barely, incumbent)
        assert self.s.prefers(clearly, incumbent)

    def test_no_symmetric_optimization(self):
        assert not self.s.supports_symmetric


class TestGerontocratic:
    def test_highest_uptime_wins(self):
        s = GerontocraticStrategy()
        young, old = cand(1, uptime=5.0), cand(2, uptime=500.0)
        assert s.best([young, old]) is old

    def test_prefers_older(self):
        s = GerontocraticStrategy()
        assert s.prefers(cand(2, uptime=500.0), cand(1, uptime=5.0))


class TestLoadBalancing:
    def test_fewest_children_wins(self):
        s = LoadBalancingStrategy()
        busy, idle = cand(1, load=7), cand(2, load=0)
        assert s.best([busy, idle]) is idle


class TestHeterogeneity:
    def test_highest_capacity_wins(self):
        s = HeterogeneityAwareStrategy()
        slow, fast = cand(1, capacity=0.5), cand(2, capacity=4.0)
        assert s.best([slow, fast]) is fast


class TestCommonMachinery:
    def test_ties_break_by_arrival_then_id(self):
        s = DelayAwareStrategy()
        a = cand(3, arrival=2.0, rtt=0.1)
        b = cand(1, arrival=1.0, rtt=0.1)
        assert s.best([a, b]) is b
        c = cand(2, arrival=1.0, rtt=0.1)
        assert s.best([b, c]) is b  # same arrival: lower id

    def test_worst_is_opposite_of_best(self):
        s = DelayAwareStrategy()
        cands = [cand(i, rtt=0.01 * i) for i in range(1, 5)]
        assert s.best(cands).peer == 1
        assert s.worst(cands).peer == 4

    def test_sort_orders_by_score(self):
        s = GerontocraticStrategy()
        cands = [cand(1, uptime=10), cand(2, uptime=30), cand(3, uptime=20)]
        assert [c.peer for c in s.sort(cands)] == [2, 3, 1]

    def test_make_strategy_roundtrip(self):
        for name in ("first-come", "delay-aware", "gerontocratic", "load-balancing", "heterogeneity"):
            assert make_strategy(name).name == name

    def test_make_strategy_unknown(self):
        with pytest.raises(ValueError):
            make_strategy("oracle")
