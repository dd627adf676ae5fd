"""Structure extraction and analysis (§III-A).

Builds the emerged dissemination structure — the directed graph of
parent → child edges — from live node state, and computes the properties
the paper plots: depth distributions (Fig. 6; for DAGs depth is the
*longest* path from the root), degree distributions (Fig. 7; out-degree =
number of relays), completeness/acyclicity invariants, and the DOT export
behind the Fig. 8 tree drawings.
"""

from __future__ import annotations

from typing import Iterable, Optional

import networkx as nx

from repro.ids import NodeId, StreamId


def extract_structure(nodes: Iterable, stream: StreamId = 0) -> nx.DiGraph:
    """Directed parent->child graph from the nodes' parent sets.

    Only live nodes contribute; a node with no parents and no children
    still appears as an isolated vertex (so completeness checks can see
    disconnected nodes).
    """
    g = nx.DiGraph()
    for node in nodes:
        if not getattr(node, "alive", True):
            continue
        g.add_node(node.node_id)
        tree_parents = getattr(node, "tree_parents", None)
        if tree_parents is not None:
            # Representation-independent accessor (DESIGN.md §11, §13):
            # reads StreamState.parents on both kernels, without
            # materializing state for a stream the node never saw.
            parents = tree_parents(stream)
        else:
            state = node.streams.get(stream)
            parents = state.parents if state is not None else ()
        for parent in parents:
            g.add_edge(parent, node.node_id)
    return g


def tree_depths(g: nx.DiGraph, source: NodeId) -> dict[NodeId, int]:
    """Shortest-path depth of every reachable node (tree: unique path)."""
    if source not in g:
        return {}
    return nx.single_source_shortest_path_length(g, source)


def dag_depths(g: nx.DiGraph, source: NodeId) -> dict[NodeId, int]:
    """Longest-path depth from the source (the paper's DAG depth measure:
    "depth measures the maximum distance, i.e. the longest path from the
    root to the node").  Requires an acyclic ``g``."""
    if source not in g:
        return {}
    depth: dict[NodeId, int] = {source: 0}
    for node in nx.topological_sort(g):
        if node not in depth:
            continue
        d = depth[node]
        for child in g.successors(node):
            if depth.get(child, -1) < d + 1:
                depth[child] = d + 1
    return depth


def depths(g: nx.DiGraph, source: NodeId, mode: str = "tree") -> dict[NodeId, int]:
    """Dispatch on structure mode ('tree' | 'dag')."""
    return tree_depths(g, source) if mode == "tree" else dag_depths(g, source)


def out_degrees(g: nx.DiGraph) -> dict[NodeId, int]:
    """Out-degree (number of children served) per node — Fig. 7's degree:
    "the number of outgoing links ... bounds the message copies a node
    receives/sends"; degree-zero nodes are leaves."""
    return {n: d for n, d in g.out_degree()}


def is_complete_structure(
    g: nx.DiGraph,
    source: NodeId,
    expected_nodes: Optional[set[NodeId]] = None,
) -> tuple[bool, str]:
    """Check the §II-B correctness property: the structure is acyclic and
    covers all (expected) nodes from the source.  Returns (ok, reason)."""
    if source not in g:
        return False, f"source {source} absent from structure"
    if not nx.is_directed_acyclic_graph(g):
        cycle = nx.find_cycle(g)
        return False, f"cycle present: {cycle}"
    reachable = set(nx.descendants(g, source)) | {source}
    expected = expected_nodes if expected_nodes is not None else set(g.nodes)
    missing = expected - reachable
    if missing:
        return False, f"{len(missing)} nodes unreachable from source: {sorted(missing)[:8]}"
    return True, "ok"


def parent_counts(g: nx.DiGraph, source: NodeId) -> dict[NodeId, int]:
    """In-degree (number of parents) per non-source node."""
    return {n: d for n, d in g.in_degree() if n != source}


def to_dot(g: nx.DiGraph, source: NodeId, *, label_prefix: str = "n") -> str:
    """DOT export for visual inspection (Fig. 8 sample tree shapes)."""
    lines = ["digraph brisa {", "  rankdir=TB;", "  node [shape=box, fontsize=9];"]
    lines.append(f'  "{label_prefix}{source}" [style=filled, fillcolor=lightgrey];')
    for a, b in sorted(g.edges):
        lines.append(f'  "{label_prefix}{a}" -> "{label_prefix}{b}";')
    lines.append("}")
    return "\n".join(lines)


def structure_summary(g: nx.DiGraph, source: NodeId, mode: str = "tree") -> dict:
    """Compact stats bundle used by reports and the Fig. 8 bench."""
    dep = depths(g, source, mode)
    deg = out_degrees(g)
    leaves = sum(1 for d in deg.values() if d == 0)
    return {
        "nodes": g.number_of_nodes(),
        "edges": g.number_of_edges(),
        "max_depth": max(dep.values()) if dep else 0,
        "mean_depth": (sum(dep.values()) / len(dep)) if dep else 0.0,
        "max_degree": max(deg.values()) if deg else 0,
        "leaves": leaves,
    }
