"""Structure-level distributions (Figs. 6–7)."""

from __future__ import annotations

from typing import Iterable

from repro.core.structure import (
    depths,
    extract_structure,
    out_degrees,
)
from repro.ids import NodeId, StreamId
from repro.metrics.stats import CDF


def depth_distribution(
    nodes: Iterable, source: NodeId, mode: str = "tree", stream: StreamId = 0
) -> CDF:
    """Depth CDF over all reached nodes (Fig. 6).  Tree depth is the
    (unique) path length; DAG depth the longest path from the source."""
    g = extract_structure(nodes, stream)
    d = depths(g, source, mode)
    return CDF.of(float(v) for v in d.values())


def degree_distribution(nodes: Iterable, stream: StreamId = 0) -> CDF:
    """Out-degree CDF (Fig. 7): relays per node; zero = leaf."""
    g = extract_structure(nodes, stream)
    return CDF.of(float(v) for v in out_degrees(g).values())
