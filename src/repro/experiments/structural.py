"""Structural-property scenarios: Figs. 2, 6, 7 and 8 (§III-A), plus the
§IV relay-load-spread analysis for multi-stream runs.

The paper artifacts study the *shape* of what emerges: flooding duplicate
counts (the motivation), then depth/degree distributions and sample tree
shapes of the structures BRISA builds with the first-come strategy.
:func:`relay_load_spread` measures the §IV *Multiple Trees* claim — that
independent per-stream trees over one overlay spread relay load
SplitStream-style — on any multi-stream run (scale runner, examples).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Iterable, Sequence

from repro.config import BrisaConfig, HyParViewConfig, StreamConfig
from repro.core.structure import extract_structure, out_degrees, structure_summary, to_dot
from repro.experiments.common import build_brisa_testbed, build_flood_testbed
from repro.experiments.scale import Scale, get_scale
from repro.ids import StreamId
from repro.metrics.stats import CDF
from repro.metrics.structure_analysis import degree_distribution, depth_distribution


# ----------------------------------------------------------------------
# Fig. 2 — duplicates per node under pure flooding
# ----------------------------------------------------------------------
@dataclass
class Fig2Result:
    """Duplicates-per-node CDF for each active-view size."""

    by_view: dict[int, CDF] = field(default_factory=dict)
    messages: int = 0
    nodes: int = 0


def fig2_duplicates(
    scale: Scale | str | None = None,
    *,
    view_sizes: tuple[int, ...] = (4, 6, 8, 10),
    seed: int = 1,
) -> Fig2Result:
    """CDF of duplicate receptions per node over the whole stream, for
    several HyParView view sizes, under plain flooding (Fig. 2)."""
    sc = scale if isinstance(scale, Scale) else get_scale(scale)
    result = Fig2Result(messages=sc.messages, nodes=sc.cluster_nodes)
    for view in view_sizes:
        hpv = HyParViewConfig(active_size=view)
        bed = build_flood_testbed(
            sc.cluster_nodes,
            seed=seed + view,
            hpv_config=hpv,
            join_spacing=sc.join_spacing,
            settle=sc.settle,
            record_deliveries=False,
        )
        source = bed.choose_source()
        run = bed.run_stream(
            source, StreamConfig(count=sc.messages, rate=5.0, payload_bytes=1024)
        )
        result.by_view[view] = CDF.of(float(d) for d in run.duplicates_per_node())
    return result


# ----------------------------------------------------------------------
# §IV — relay-load spread across concurrent per-stream trees
# ----------------------------------------------------------------------
@dataclass
class RelayLoadSpread:
    """How relay duty distributes over the population when several
    streams emerge independent structures on one shared overlay (§IV,
    *Multiple Trees and Multiple Parents*; SplitStream's load-balancing
    goal).

    A node is *interior* in a stream when it serves at least one child
    in that stream's emerged structure.  ``fan_in`` measures how many
    streams recruit one node as a relay (the relay duties fanning in on
    it); ``children`` measures its total forwarding load — children
    served summed across every stream.
    """

    population: int
    streams: int
    #: stream id -> interior-node count in that stream's structure.
    interior_per_stream: dict[StreamId, int]
    #: Nodes interior in at least one stream.
    interior_any: int
    #: Nodes interior in every stream.
    interior_all: int
    #: Do the interior-node sets actually differ across streams?  (The
    #: §IV claim: every stream emerges its own structure from its own
    #: flood, so the relay sets should not coincide.)
    distinct_sets: bool
    #: Max/mean number of streams a node relays for (mean over nodes
    #: interior in >= 1 stream).
    fan_in_max: int
    fan_in_mean: float
    #: Max/mean total children served across all streams (same support).
    children_max: int
    children_mean: float

    def to_dict(self) -> dict:
        return asdict(self)

    def summary(self) -> str:
        per_stream = "  ".join(
            f"s{stream}:{count}" for stream, count in sorted(self.interior_per_stream.items())
        )
        return "\n".join(
            [
                f"interior nodes per stream: {per_stream}",
                f"interior in >=1 tree: {self.interior_any}/{self.population}   "
                f"in every tree: {self.interior_all}   "
                f"sets differ: {'yes' if self.distinct_sets else 'no'}",
                f"relay fan-in (trees/node): max {self.fan_in_max}  "
                f"mean {self.fan_in_mean:.2f}   "
                f"children/node: max {self.children_max}  "
                f"mean {self.children_mean:.2f}",
            ]
        )


def relay_load_spread(nodes: Iterable, streams: Sequence[StreamId]) -> RelayLoadSpread:
    """Measure relay-load spread over the per-stream structures emerged
    by ``nodes`` for the given ``streams`` (promoted here from the
    ``examples/multi_source.py`` analysis so the scale runner and the
    benchmarks can gate on it)."""
    nodes = list(nodes)
    interior_sets: dict[StreamId, frozenset] = {}
    children: dict = {}
    for stream in streams:
        g = extract_structure(nodes, stream)
        degs = out_degrees(g)
        interior_sets[stream] = frozenset(n for n, d in degs.items() if d > 0)
        for n, d in degs.items():
            if d > 0:
                children[n] = children.get(n, 0) + d
    sets = list(interior_sets.values())
    union = frozenset().union(*sets) if sets else frozenset()
    common = frozenset.intersection(*sets) if sets else frozenset()
    fan_in = {n: sum(1 for s in sets if n in s) for n in union}
    return RelayLoadSpread(
        population=len(nodes),
        streams=len(sets),
        interior_per_stream={stream: len(s) for stream, s in interior_sets.items()},
        interior_any=len(union),
        interior_all=len(common),
        distinct_sets=len(set(sets)) > 1,
        fan_in_max=max(fan_in.values(), default=0),
        fan_in_mean=(sum(fan_in.values()) / len(fan_in)) if fan_in else 0.0,
        children_max=max(children.values(), default=0),
        children_mean=(sum(children.values()) / len(children)) if children else 0.0,
    )


# ----------------------------------------------------------------------
# Figs. 6 & 7 — depth and degree distributions of emerged structures
# ----------------------------------------------------------------------
#: The four configurations both figures sweep.
STRUCTURE_CONFIGS: tuple[tuple[str, str, int, int], ...] = (
    ("tree, view=4", "tree", 1, 4),
    ("tree, view=8", "tree", 1, 8),
    ("DAG 2 parents, view=4", "dag", 2, 4),
    ("DAG 2 parents, view=8", "dag", 2, 8),
)


@dataclass
class StructureDistributions:
    depth: dict[str, CDF] = field(default_factory=dict)
    degree: dict[str, CDF] = field(default_factory=dict)
    nodes: int = 0


def _emerged_testbed(sc: Scale, mode: str, parents: int, view: int, seed: int):
    cfg = BrisaConfig(
        mode=mode,
        num_parents=parents,
        cycle_predictor=BrisaConfig.default_predictor(mode),
    )
    hpv = HyParViewConfig(active_size=view)
    bed = build_brisa_testbed(
        sc.cluster_nodes,
        seed=seed,
        config=cfg,
        hpv_config=hpv,
        join_spacing=sc.join_spacing,
        settle=sc.settle,
        record_deliveries=False,
    )
    source = bed.choose_source()
    # Build + let the structure stabilize (§III-A: "after building the
    # respective structure and letting it stabilize").
    stream = StreamConfig(count=max(20, sc.messages // 5), rate=5.0, payload_bytes=1024)
    bed.run_stream(source, stream, drain=20.0)
    return bed, source


def fig6_fig7_structure(
    scale: Scale | str | None = None, *, seed: int = 2
) -> StructureDistributions:
    """Depth (Fig. 6) and degree (Fig. 7) CDFs for the four paper
    configurations, measured on stabilized structures."""
    sc = scale if isinstance(scale, Scale) else get_scale(scale)
    out = StructureDistributions(nodes=sc.cluster_nodes)
    for label, mode, parents, view in STRUCTURE_CONFIGS:
        bed, source = _emerged_testbed(sc, mode, parents, view, seed)
        nodes = bed.alive_nodes()
        out.depth[label] = depth_distribution(nodes, source.node_id, mode)
        out.degree[label] = degree_distribution(nodes)
    return out


# ----------------------------------------------------------------------
# Fig. 8 — sample tree shapes (100 nodes, expansion factor 1)
# ----------------------------------------------------------------------
@dataclass
class Fig8Result:
    dot: dict[int, str] = field(default_factory=dict)
    summary: dict[int, dict] = field(default_factory=dict)


def fig8_tree_shape(
    *, n: int = 100, view_sizes: tuple[int, ...] = (4, 8), seed: int = 3
) -> Fig8Result:
    """Sample trees for view sizes 4 and 8 with expansion factor 1,
    exported as DOT plus shape summaries (Fig. 8)."""
    result = Fig8Result()
    for view in view_sizes:
        hpv = HyParViewConfig(active_size=view, expansion_factor=1.0)
        bed = build_brisa_testbed(
            n, seed=seed + view, hpv_config=hpv, record_deliveries=False
        )
        source = bed.choose_source()
        bed.run_stream(source, StreamConfig(count=20, rate=5.0, payload_bytes=256))
        g = extract_structure(bed.alive_nodes(), 0)
        result.dot[view] = to_dot(g, source.node_id)
        result.summary[view] = structure_summary(g, source.node_id, "tree")
    return result
