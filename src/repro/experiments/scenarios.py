"""One entry point per paper artifact — the per-experiment index.

========  ==========================================  ==========================
Artifact  Entry point                                 Module
========  ==========================================  ==========================
Fig. 2    :func:`fig2_duplicates`                     experiments.structural
Fig. 6/7  :func:`fig6_fig7_structure`                 experiments.structural
Fig. 8    :func:`fig8_tree_shape`                     experiments.structural
Fig. 9    :func:`fig9_routing_delays`                 experiments.network_props
Fig.10/11 :func:`fig10_fig11_bandwidth`               experiments.network_props
Table I   :func:`table1_churn`                        experiments.robustness
Fig. 12   :func:`fig12_bandwidth_comparison`          experiments.comparison
Fig. 13   :func:`fig13_construction`                  experiments.comparison
Table II  :func:`table2_latency`                      experiments.comparison
Fig. 14   :func:`fig14_recovery`                      experiments.robustness
========  ==========================================  ==========================

Every scenario accepts ``scale`` ('fast' default, 'paper' for published
populations — or set ``REPRO_SCALE=paper``).
"""

from repro.experiments.comparison import (
    Fig12Result,
    Fig13Result,
    Table2Result,
    fig12_bandwidth_comparison,
    fig13_construction,
    table2_latency,
)
from repro.experiments.network_props import (
    BandwidthResult,
    Fig9Result,
    fig9_routing_delays,
    fig10_fig11_bandwidth,
)
from repro.experiments.robustness import (
    Fig14Result,
    Table1Result,
    Table1Row,
    fig14_recovery,
    table1_churn,
)
from repro.experiments.scale import (
    FAST,
    LARGE,
    PAPER,
    SMALL,
    XL,
    XXL,
    XXXL,
    Scale,
    get_scale,
)
from repro.experiments.scale_brisa import run_scale_brisa
from repro.experiments.scale_flood import build_static_flood_overlay, run_scale_flood
from repro.experiments.scale_pull import run_scale_pull
from repro.experiments.scale_runner import (
    STACKS,
    RunSpec,
    ScaleResult,
    ScaleRunner,
    StreamOutcome,
    merge_json,
    run_spec,
    spread_sources,
)
from repro.experiments.structural import (
    Fig2Result,
    Fig8Result,
    RelayLoadSpread,
    StructureDistributions,
    fig2_duplicates,
    fig6_fig7_structure,
    fig8_tree_shape,
    relay_load_spread,
)

__all__ = [
    "BandwidthResult",
    "FAST",
    "Fig12Result",
    "Fig13Result",
    "Fig14Result",
    "Fig2Result",
    "Fig8Result",
    "Fig9Result",
    "LARGE",
    "PAPER",
    "RelayLoadSpread",
    "RunSpec",
    "SMALL",
    "STACKS",
    "Scale",
    "ScaleResult",
    "ScaleRunner",
    "StreamOutcome",
    "XL",
    "XXL",
    "XXXL",
    "StructureDistributions",
    "build_static_flood_overlay",
    "run_scale_brisa",
    "run_scale_flood",
    "run_scale_pull",
    "Table1Result",
    "Table1Row",
    "Table2Result",
    "fig10_fig11_bandwidth",
    "fig12_bandwidth_comparison",
    "fig13_construction",
    "fig14_recovery",
    "fig2_duplicates",
    "fig6_fig7_structure",
    "fig8_tree_shape",
    "fig9_routing_delays",
    "get_scale",
    "merge_json",
    "relay_load_spread",
    "run_spec",
    "spread_sources",
    "table1_churn",
    "table2_latency",
]
