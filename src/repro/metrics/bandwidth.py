"""Per-node bandwidth aggregation (Figs. 10–12).

Rates are bytes accounted in a phase divided by that phase's duration —
exactly what the paper's per-node KB/s measurements over the
dissemination window report.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from repro.ids import NodeId
from repro.metrics.stats import PAPER_PERCENTILES, percentile_summary
from repro.sim.monitor import DISSEMINATION, STABILIZATION, Metrics


def bandwidth_kbps(
    metrics: Metrics,
    nodes: Iterable[NodeId],
    phase: str = DISSEMINATION,
    direction: str = "received",
    duration: Optional[float] = None,
) -> list[float]:
    """Per-node KB/s over a phase (direction 'sent' = upload,
    'received' = download)."""
    window = duration if duration is not None else metrics.phase_duration(phase)
    if window <= 0:
        return [0.0 for _ in nodes]
    return [metrics.node_bytes(n, phase, direction) / window / 1024.0 for n in nodes]


def phase_bandwidth_summary(
    metrics: Metrics,
    nodes: Sequence[NodeId],
    phase: str = DISSEMINATION,
    direction: str = "received",
    percentiles: Sequence[int] = PAPER_PERCENTILES,
) -> dict[int, float]:
    """The Figs. 10–11 stacked-bar percentiles for one configuration."""
    return percentile_summary(bandwidth_kbps(metrics, nodes, phase, direction), percentiles)


def total_transmitted_mb(
    metrics: Metrics, nodes: Sequence[NodeId], phase: str
) -> float:
    """Mean data transmitted per node in MB over a phase (Fig. 12's
    stacked stabilization/dissemination bars, averaged over all nodes)."""
    if not nodes:
        return 0.0
    total = sum(metrics.node_bytes(n, phase) for n in nodes)
    return total / len(nodes) / (1024.0 * 1024.0)


def stacked_phases_mb(metrics: Metrics, nodes: Sequence[NodeId]) -> dict[str, float]:
    """Fig. 12 bar for one protocol: stabilization + dissemination MB."""
    return {
        STABILIZATION: total_transmitted_mb(metrics, nodes, STABILIZATION),
        DISSEMINATION: total_transmitted_mb(metrics, nodes, DISSEMINATION),
    }
