"""A first-come tree never swaps its parent (DESIGN.md §7, "Recovery
deadlocks").

Under Table I's churn (128 nodes, view 4, 5 %/min) nine tree beds of
seeds 1–60 used to stall for good: a child that soft-repaired onto a new
parent swapped back to its old one on a *duplicate*, because first-contact
records predate the repair, while its own relay had already reached the
old parent, which answered it with the silent §II-E mute.  The child then
held a parent that would never relay to it again.  These tests build the
beds exactly as ``robustness.table1_churn`` builds them.

Tier-1 runs the nine seeds that stalled; the whole sweep (seeds 1–60 ×
{tree, DAG}) is behind the ``sweep`` marker and runs nightly::

    PYTHONPATH=src python -m pytest -q tests/test_churn_stall.py -m "sweep or not sweep"
"""

from __future__ import annotations

import pytest

from repro.config import BrisaConfig, HyParViewConfig
from repro.core import rules
from repro.core.strategies import Candidate, DelayAwareStrategy, FirstComeStrategy
from repro.experiments import robustness
from repro.experiments.common import build_brisa_testbed
from tests.helpers import assert_brisa_state_consistent, assert_link_activation_symmetric

#: Tree beds that stalled before the fix (2–8 asymmetric parent edges each).
STALLED_TREE_SEEDS = (6, 10, 11, 13, 21, 25, 40, 43, 54)
N = 128


def churn_bed(seed: int, mode: str):
    """``table1_churn``'s bed for ``seed`` at 128 nodes and 5 %/min, over
    its 45 s window; returns (testbed, source)."""
    cfg = BrisaConfig(mode=mode, num_parents=1 if mode == "tree" else 2)
    bed = build_brisa_testbed(
        N,
        seed=seed + N + 5,
        config=cfg,
        hpv_config=HyParViewConfig(active_size=4),
        join_spacing=0.05,
        settle=20.0,
        record_deliveries=False,
    )
    source = bed.choose_source()
    robustness._run_churn(bed, source, churn_percent=5.0, duration=45.0, period=15.0)
    return bed, source


def _sweep_params():
    for seed in range(1, 61):
        for mode in ("tree", "dag"):
            pinned = mode == "tree" and seed in STALLED_TREE_SEEDS
            yield pytest.param(
                seed, mode, id=f"{mode}-{seed}",
                marks=() if pinned else pytest.mark.sweep,
            )


@pytest.mark.parametrize("seed,mode", _sweep_params())
def test_churn_bed_serves_every_surviving_node(seed, mode):
    bed, source = churn_bed(seed, mode)
    injected = len(bed.metrics.streams[0].injections)
    got = {
        node.node_id: node.delivered_count(0)
        for node in bed.nodes[:N]
        if node.alive and node is not source
    }
    short = {nid: count for nid, count in got.items() if count != injected}
    assert not short, f"{len(short)} survivors short of {injected}: {short}"
    assert_link_activation_symmetric(bed.nodes, 0)
    assert assert_brisa_state_consistent(bed, 1) > 0


# ----------------------------------------------------------------------
# The rule itself
# ----------------------------------------------------------------------
def test_first_come_tree_keeps_a_repair_parent_over_a_stale_record():
    """The incumbent was adopted in a repair, so its first-contact record
    is *later* than the newcomer's (heard from before the repair)."""
    strategy = FirstComeStrategy()
    repair_parent = Candidate(36, arrival=52.2)
    stale = Candidate(88, arrival=26.4)
    assert strategy.prefers(stale, repair_parent)  # the raw score would swap
    parents = {36: repair_parent}
    assert rules.contention_action(strategy, stale, parents, first=True) == (
        rules.KEEP_FEED, None,
    )
    assert rules.contention_action(strategy, stale, parents, first=False) == (
        rules.REJECT, None,
    )


def test_first_come_dag_still_ranks_by_first_contact():
    strategy = FirstComeStrategy()
    parents = {36: Candidate(36, arrival=52.2), 7: Candidate(7, arrival=30.0)}
    verdict, worst = rules.contention_action(
        strategy, Candidate(88, arrival=26.4), parents, first=False
    )
    assert (verdict, worst) == (rules.SWAP, 36)


def test_delay_aware_tree_still_swaps():
    """Control: a strategy without symmetric deactivation keeps swapping
    its only parent for a clearly faster one."""
    strategy = DelayAwareStrategy()
    parents = {36: Candidate(36, arrival=52.2, rtt=0.4)}
    newcomer = Candidate(88, arrival=26.4, rtt=0.1)
    assert rules.contention_action(strategy, newcomer, parents, first=False) == (
        rules.SWAP, 36,
    )
