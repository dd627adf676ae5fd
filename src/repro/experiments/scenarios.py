"""One declaration per paper artifact: :data:`ARTIFACTS`, the
per-experiment index (DESIGN.md §4).

Each entry names an artifact's ``repro run`` name, the entry point that
runs it at a :class:`Scale` (``fast`` by default, ``paper`` for the
published populations, or ``REPRO_SCALE``), and the one renderer that
turns its result into the reports ``repro run`` prints and the benches
write to ``benchmarks/run/``.  This module also re-exports the
scale-runner surface (``run_spec``, ``STACKS``) that ``repro scale``
uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

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
from repro.experiments.paperdata import TABLE1, TABLE2
from repro.experiments.report import banner, cdf_rows, overhead_percent, percentile_rows, table
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
# The builders run_spec dispatches to (STACKS names them) are imported
# here, so that importing them is never part of a run's timed set-up.
from repro.experiments import scale_brisa, scale_pull  # noqa: F401
from repro.experiments.scale_flood import build_static_flood_overlay
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
from repro.sim.monitor import DISSEMINATION, STABILIZATION

__all__ = [
    "ARTIFACTS",
    "Artifact",
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


# ----------------------------------------------------------------------
# Renderers: a result -> {file name in benchmarks/out: exact contents}
# ----------------------------------------------------------------------
def _text(title: str, *blocks: str) -> str:
    """A text report: the banner, then each block on its own line."""
    return "\n".join((banner(title), *blocks)) + "\n"


def _fig2_reports(r: Fig2Result) -> dict[str, str]:
    return {"fig02_duplicates.txt": _text(
        f"Fig. 2 — duplicates per message per node "
        f"({r.nodes} nodes, {r.messages} msgs, flooding)",
        cdf_rows(r.per_message()),
    )}


def _fig6_fig7_reports(r: StructureDistributions) -> dict[str, str]:
    return {
        "fig06_depth.txt": _text(
            f"Fig. 6 — depth distribution ({r.nodes} nodes, first-come)",
            cdf_rows(r.depth),
        ),
        "fig07_degree.txt": _text(
            f"Fig. 7 — degree distribution ({r.nodes} nodes, first-come)",
            cdf_rows(r.degree),
        ),
    }


def _fig8_reports(r: Fig8Result) -> dict[str, str]:
    dots = {f"fig08_tree_view{view}.dot": dot for view, dot in sorted(r.dot.items())}
    rows = [
        [f"view={view}", s["nodes"], s["edges"], s["max_depth"],
         round(s["mean_depth"], 2), s["max_degree"], s["leaves"]]
        for view, s in sorted(r.summary.items())
    ]
    summary = _text(
        "Fig. 8 — sample tree shapes (100 nodes, expansion factor 1)",
        table(["config", "nodes", "edges", "max depth", "mean depth",
               "max degree", "leaves"], rows),
        "DOT exports: " + ", ".join(dots),
    )
    return {"fig08_tree_shape.txt": summary, **dots}


def _fig9_reports(r: Fig9Result) -> dict[str, str]:
    return {"fig09_routing_delays.txt": _text(
        f"Fig. 9 — routing delay CDFs, PlanetLab model ({r.nodes} nodes, "
        "tree view 4, 1 KB messages)",
        cdf_rows(r.series),
    )}


def _fig10_fig11_reports(r: BandwidthResult) -> dict[str, str]:
    def rows(data):  # grouped by payload
        return {f"{label}, {kb} KB": data[label, kb]
                for kb, label in sorted((kb, label) for label, kb in data)}

    return {
        "fig10_download.txt": _text(
            f"Fig. 10 — download bandwidth percentiles ({r.nodes} nodes)",
            percentile_rows(rows(r.download)),
        ),
        "fig11_upload.txt": _text(
            f"Fig. 11 — upload bandwidth percentiles ({r.nodes} nodes)",
            percentile_rows(rows(r.upload)),
        ),
    }


def _table1_reports(r: Table1Result) -> dict[str, str]:
    rows = []
    for (n, pct, mode), row in sorted(r.rows.items()):
        paper = TABLE1.get((512 if n >= 256 else 128, pct, mode), ("-",) * 4)
        rows.append([
            n, f"{pct:g}%", mode,
            row.parents_lost_per_min, row.orphans_per_min,
            row.soft_repair_pct, row.hard_repair_pct, *paper[:3],
        ])
    return {"table1_churn.txt": _text(
        f"Table I — impact of churn (view 4, {r.churn_window:.0f}s windows)",
        table([
            "nodes", "churn", "structure",
            "parents lost/min", "orphans/min", "% soft", "% hard",
            "paper lost/min", "paper orphans/min", "paper % soft",
        ], rows),
    )}


def _fig12_reports(r: Fig12Result) -> dict[str, str]:
    payloads = sorted({kb for per in r.data.values() for kb in per})
    rows = []
    for proto, per_payload in r.data.items():
        cells = [proto]
        for kb in payloads:
            d = per_payload[kb]
            cells.append(
                f"{d[STABILIZATION]:.3f}/{d[DISSEMINATION]:.3f}/"
                f"{d[STABILIZATION] + d[DISSEMINATION]:.3f}"
            )
        rows.append(cells)
    return {"fig12_bandwidth_comparison.txt": _text(
        f"Fig. 12 — data transmitted per node ({r.nodes} nodes)",
        table(["protocol"] + [f"{kb} KB stab/diss/total (MB)" for kb in payloads], rows),
    )}


def _fig13_reports(r: Fig13Result) -> dict[str, str]:
    series = {f"{proto}, {env}": cdf for (proto, env), cdf in sorted(r.series.items())}
    return {"fig13_construction.txt": _text(
        "Fig. 13 — construction time (seconds)", cdf_rows(series)
    )}


def _table2_reports(r: Table2Result) -> dict[str, str]:
    rows = []
    for proto, (paper_lat, paper_over) in TABLE2.items():
        rows.append([
            proto, r.latency[proto], overhead_percent(r.overhead(proto)),
            f"{r.delivered[proto] * 100:.1f}%",
            paper_lat, overhead_percent(paper_over),
        ])
    return {"table2_latency.txt": _text(
        f"Table II — dissemination latency (ideal span {r.ideal:.1f}s)",
        table(["protocol", "latency (s)", "overhead", "delivered", "paper (s)",
               "paper overhead"], rows),
    )}


def _fig14_reports(r: Fig14Result) -> dict[str, str]:
    return {"fig14_recovery.txt": _text(
        f"Fig. 14 — parent recovery delays under {r.churn_percent:g}% churn (seconds)",
        "Hard repairs:", cdf_rows(r.hard),
        "Soft repairs:", cdf_rows(r.soft),
        table(["protocol", "hard repairs observed"],
              [[k, v] for k, v in r.hard_repair_counts.items()]),
    )}


@dataclass(frozen=True)
class Artifact:
    """One paper artifact: its ``repro list`` line, the call that runs it
    at a :class:`Scale`, and the renderer that turns the result into
    reports keyed by their file name in ``benchmarks/out/``."""

    description: str
    run: Callable[[Scale], Any]
    render: Callable[[Any], dict[str, str]]

    def produce(self, scale: Scale) -> tuple[Any, dict[str, str]]:
        """Run at ``scale``; return the result and its reports."""
        result = self.run(scale)
        return result, self.render(result)


#: ``repro run`` name -> artifact, in the order ``repro run all`` prints.
ARTIFACTS: dict[str, Artifact] = {
    "fig2": Artifact("Duplicates per node under flooding", fig2_duplicates, _fig2_reports),
    "fig6": Artifact("Depth + degree distributions (also fig7)", fig6_fig7_structure,
                     _fig6_fig7_reports),
    "fig8": Artifact("Sample tree shapes", lambda scale: fig8_tree_shape(), _fig8_reports),
    "fig9": Artifact("Routing delays on PlanetLab", fig9_routing_delays, _fig9_reports),
    "fig10": Artifact("Bandwidth percentiles (also fig11)", fig10_fig11_bandwidth,
                      _fig10_fig11_reports),
    "table1": Artifact("Churn impact", table1_churn, _table1_reports),
    "fig12": Artifact("Cross-protocol bandwidth", fig12_bandwidth_comparison, _fig12_reports),
    "fig13": Artifact("Construction time", fig13_construction, _fig13_reports),
    "table2": Artifact("Dissemination latency", table2_latency, _table2_reports),
    "fig14": Artifact("Recovery delays", fig14_recovery, _fig14_reports),
}
