"""Table I — impact of churn on BRISA trees vs 2-parent DAGs.

Paper anchors (active view 4, 3%/5% churn per minute, Listing 1):
- DAGs lose parents at a *higher* rate than trees (more parents to lose)
  but orphan far more rarely (a single surviving parent keeps service);
- soft repairs dominate everywhere (87–94% in the paper);
- every tree parent loss is an orphan event (one parent per node).
"""

from repro.experiments.paperdata import (
    TABLE1_DAG_ORPHAN_REDUCTION_MIN,
    TABLE1_SOFT_REPAIR_MIN,
)


def test_table1_churn(artifact):
    result = artifact("table1")

    for n in {k[0] for k in result.rows}:
        for pct in {k[1] for k in result.rows}:
            tree = result.rows[(n, pct, "tree")]
            dag = result.rows[(n, pct, "dag")]
            assert tree.kills > 0 and dag.kills > 0, "churn never applied"
            # Trees: every parent loss is a disconnection.
            assert tree.orphans_per_min >= tree.parents_lost_per_min * 0.9
            # DAGs lose parents more often but orphan much more rarely.
            assert dag.parents_lost_per_min >= tree.parents_lost_per_min * 0.9
            if tree.orphans_per_min > 0:
                assert (
                    dag.orphans_per_min
                    <= tree.orphans_per_min / TABLE1_DAG_ORPHAN_REDUCTION_MIN
                    or dag.orphans_per_min < 0.5
                )
            # Soft repairs dominate (paper: 79-94%).
            total_repairs = tree.soft_repair_pct + tree.hard_repair_pct
            if total_repairs:
                assert tree.soft_repair_pct >= TABLE1_SOFT_REPAIR_MIN
