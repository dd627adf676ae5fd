"""Digitized values from the paper's evaluation (§III).

Used by the artifact renderers (``scenarios.ARTIFACTS``) for the paper
columns and by the benches (``benchmarks/test_fig*``, ``test_table*``)
for shape thresholds.  We reproduce *shapes* — who wins, by roughly
what factor, where crossovers fall — not the absolute numbers of the
authors' 2011 testbed.
"""

from __future__ import annotations

#: Table I — impact of churn (active view 4).  Keys: (nodes, churn %,
#: mode); values: (parents lost/min, orphans/min, % soft, % hard).
TABLE1 = {
    (128, 3.0, "tree"): (2.3, 2.3, 87.0, 13.0),
    (128, 3.0, "dag"): (4.0, 0.2, 92.5, 7.5),
    (128, 5.0, "tree"): (3.4, 3.4, 79.4, 20.6),
    (128, 5.0, "dag"): (7.0, 0.3, 90.0, 10.0),
    (512, 3.0, "tree"): (22.2, 22.2, 88.2, 11.8),
    (512, 3.0, "dag"): (36.8, 2.3, 94.0, 6.0),
    (512, 5.0, "tree"): (22.2, 22.2, 87.7, 12.3),
    (512, 5.0, "dag"): (32.3, 1.7, 94.1, 5.9),
}

#: Table II — dissemination latency, 512 nodes, 500 x 1 KB at 5/s.
#: Values: (latency seconds, overhead vs SimpleTree).
TABLE2 = {
    "SimpleTree": (100.025, 0.00),
    "BRISA": (106.587, 0.06),
    "SimpleGossip": (128.23, 0.28),
    "TAG": (200.476, 1.00),
}

#: Fig. 2 anchors — duplicates per node, 512-node flooding, 500 msgs:
#: "half of the nodes receive more than one duplicate with a view size of
#: 4, while they receive more than 7 duplicates with a view size of 10."
FIG2_MEDIAN_DUPLICATES = {4: 1.0, 10: 7.0}  # lower bounds on the median

#: Fig. 6 anchors — depth distribution, 512 nodes, first-come:
#: larger views -> shallower trees; DAG depth >= tree depth.
FIG6_MAX_DEPTH_RANGE = {("tree", 4): (6, 18), ("tree", 8): (4, 12)}

#: Fig. 9 anchor — "40% of the nodes reduce the routing delays to half"
#: with delay-aware selection vs first-pick; flood is the worst series.
FIG9_DELAY_AWARE_GAIN_FRACTION = 0.4

#: Fig. 12 expected ordering of total bandwidth at 20 KB payloads
#: (SimpleGossip's duplicates dominate at large messages).
FIG12_ORDER_AT_20KB = ["SimpleTree", "BRISA", "TAG", "SimpleGossip"]

#: Fig. 13 shape — construction time: TAG comparable-or-faster than BRISA
#: on the cluster, but much slower on PlanetLab (per-hop connection
#: setups on wide-area RTTs).
FIG13_PLANETLAB_TAG_SLOWDOWN_MIN = 2.0

#: Fig. 14 shape — BRISA hard-repair recovery is about twice as fast as
#: TAG re-insertion under 3% churn at 128 nodes.
FIG14_TAG_OVER_BRISA_MIN = 1.5

#: Table I qualitative invariants used by the benches:
#: - DAG loses parents at a higher rate than the tree,
#: - DAG orphan rate is at least ~5x lower than the tree's,
#: - soft repairs dominate (>= ~75%) everywhere.
TABLE1_SOFT_REPAIR_MIN = 75.0
TABLE1_DAG_ORPHAN_REDUCTION_MIN = 3.0
