"""Tests for the churn driver."""

import pytest

from repro.sim.churn import ChurnDriver
from repro.sim.trace import parse_trace

from tests.helpers import RecorderNode, make_network


def drive(trace_text, n_initial=0, protected=(), seed=1, run_until=None):
    sim, net, nodes = make_network(n_initial, seed=seed)
    trace = parse_trace(trace_text)

    def join_fn():
        return net.spawn(RecorderNode)

    driver = ChurnDriver(sim, net, trace, join_fn, protected=protected)
    driver.apply()
    sim.run(until=run_until if run_until is not None else trace.end_time + 10)
    return sim, net, driver


def test_join_ramp_creates_nodes_spread_over_window():
    sim, net, driver = drive("from 0 s to 10 s join 10")
    assert driver.stats.joins == 10
    assert len(net.nodes) == 10
    assert driver.stats.join_times == pytest.approx([float(i) for i in range(10)])


def test_const_churn_kills_percentage_each_period():
    sim, net, driver = drive(
        "from 0 s to 1 s join 100\n"
        "from 10 s to 40 s const churn 10% each 10 s\n"
        "at 40 s stop",
    )
    # Three periods of ~10 kills each; replacement default ratio is 1.0.
    assert 25 <= driver.stats.kills <= 35
    assert driver.stats.joins == 100 + driver.stats.kills


def test_replacement_ratio_zero_means_no_replacement_joins():
    sim, net, driver = drive(
        "from 0 s to 1 s join 50\n"
        "at 5 s set replacement ratio to 0%\n"
        "from 10 s to 20 s const churn 10% each 10 s\n",
    )
    assert driver.stats.joins == 50
    assert driver.stats.kills == 5
    assert len(net.alive_ids()) == 45


def test_protected_nodes_never_killed():
    sim, net, driver = drive(
        "from 0 s to 1 s join 20\n"
        "at 1 s set replacement ratio to 0%\n"
        "from 5 s to 65 s const churn 50% each 10 s\n",
        protected={0},
    )
    assert net.alive(0)
    assert driver.stats.kills > 0


def test_stop_halts_further_churn():
    sim, net, driver = drive(
        "from 0 s to 1 s join 100\n"
        "at 2 s stop\n"
        "from 10 s to 100 s const churn 50% each 10 s\n",
    )
    assert driver.stopped
    assert driver.stats.kills == 0
    assert len(net.alive_ids()) == 100


def test_kill_times_fall_inside_churn_window():
    sim, net, driver = drive(
        "from 0 s to 1 s join 60\nfrom 10 s to 30 s const churn 10% each 10 s\n",
    )
    assert driver.stats.kills > 0
    assert all(10.0 <= t <= 30.0 + 1e-9 for t in driver.stats.kill_times)


def test_deterministic_under_same_seed():
    _, _, d1 = drive(
        "from 0 s to 1 s join 50\nfrom 5 s to 25 s const churn 20% each 5 s\n", seed=7
    )
    _, _, d2 = drive(
        "from 0 s to 1 s join 50\nfrom 5 s to 25 s const churn 20% each 5 s\n", seed=7
    )
    assert d1.stats.kill_times == d2.stats.kill_times
    assert d1.stats.join_times == d2.stats.join_times
