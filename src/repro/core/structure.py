"""Structure extraction and analysis (§III-A).

Builds the emerged dissemination structure — the directed graph of
parent → child edges — from live node state, and computes the properties
the paper plots: depth distributions (Fig. 6; for DAGs depth is the
*longest* path from the root), degree distributions (Fig. 7; out-degree =
number of relays), completeness/acyclicity invariants, and the DOT export
behind the Fig. 8 tree drawings.

Standard library only (DESIGN.md §17): the tests check every function
against networkx through ``tests/helpers.py::to_networkx``.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, KeysView, Optional

from repro.ids import NodeId, StreamId


class Structure:
    """A directed graph as children and parents adjacency keyed by node
    id, both in insertion order (each inner dict is an ordered set)."""

    __slots__ = ("children", "parents")

    def __init__(self) -> None:
        self.children: dict[NodeId, dict[NodeId, None]] = {}
        self.parents: dict[NodeId, dict[NodeId, None]] = {}

    def add_node(self, node: NodeId) -> None:
        if node not in self.children:
            self.children[node] = {}
            self.parents[node] = {}

    def add_edge(self, parent: NodeId, child: NodeId) -> None:
        self.add_node(parent)
        self.add_node(child)
        self.children[parent][child] = None
        self.parents[child][parent] = None

    def __contains__(self, node: object) -> bool:
        return node in self.children

    @property
    def nodes(self) -> KeysView[NodeId]:
        return self.children.keys()

    @property
    def edges(self) -> list[tuple[NodeId, NodeId]]:
        return [(u, v) for u, kids in self.children.items() for v in kids]

    def number_of_nodes(self) -> int:
        return len(self.children)

    def number_of_edges(self) -> int:
        return sum(len(kids) for kids in self.children.values())


def extract_structure(nodes: Iterable, stream: StreamId = 0) -> Structure:
    """Directed parent->child graph from the nodes' parent sets.

    Only live nodes contribute; a node with no parents and no children
    still appears as an isolated vertex (so completeness checks can see
    disconnected nodes).
    """
    g = Structure()
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


def _reach(g: Structure, source: NodeId) -> dict[NodeId, int]:
    """BFS hop count of every node reachable from ``source``."""
    children = g.children
    dist = {source: 0}
    queue = deque((source,))
    while queue:
        node = queue.popleft()
        d = dist[node] + 1
        for child in children[node]:
            if child not in dist:
                dist[child] = d
                queue.append(child)
    return dist


def _kahn(g: Structure) -> tuple[list[NodeId], dict[NodeId, int]]:
    """Kahn's topological order, and the in-degree left at every node it
    could not order (empty iff ``g`` is acyclic)."""
    indeg = {n: len(ps) for n, ps in g.parents.items()}
    order = [n for n, d in indeg.items() if d == 0]
    children = g.children
    for node in order:  # grows while iterated
        for child in children[node]:
            indeg[child] -= 1
            if indeg[child] == 0:
                order.append(child)
    if len(order) == len(indeg):
        return order, {}
    return order, {n: d for n, d in indeg.items() if d > 0}


def _cycle(g: Structure, left: dict[NodeId, int]) -> list[tuple[NodeId, NodeId]]:
    """One cycle among the nodes Kahn left: each has a leftover parent,
    so walking leftover parents back from any of them must repeat."""
    node = next(iter(left))
    at: dict[NodeId, int] = {}
    path: list[NodeId] = []
    while node not in at:
        at[node] = len(path)
        path.append(node)
        node = next(p for p in g.parents[node] if p in left)
    # path[i + 1] -> path[i]: read the loop forward from its entry node.
    loop = [node] + path[at[node] + 1:][::-1]
    return list(zip(loop, loop[1:] + loop[:1]))


def tree_depths(g: Structure, source: NodeId) -> dict[NodeId, int]:
    """Shortest-path depth of every reachable node (tree: unique path)."""
    if source not in g:
        return {}
    return _reach(g, source)


def dag_depths(g: Structure, source: NodeId) -> dict[NodeId, int]:
    """Longest-path depth from the source (the paper's DAG depth measure:
    "depth measures the maximum distance, i.e. the longest path from the
    root to the node").  Requires an acyclic ``g``: raises ValueError on
    a cycle."""
    if source not in g:
        return {}
    order, left = _kahn(g)
    if left:
        raise ValueError(f"cycle present: {_cycle(g, left)}")
    depth: dict[NodeId, int] = {source: 0}
    children = g.children
    for node in order:
        if node not in depth:
            continue
        d = depth[node]
        for child in children[node]:
            if depth.get(child, -1) < d + 1:
                depth[child] = d + 1
    return depth


def depths(g: Structure, source: NodeId, mode: str = "tree") -> dict[NodeId, int]:
    """Dispatch on structure mode ('tree' | 'dag')."""
    return tree_depths(g, source) if mode == "tree" else dag_depths(g, source)


def out_degrees(g: Structure) -> dict[NodeId, int]:
    """Out-degree (number of children served) per node — Fig. 7's degree:
    "the number of outgoing links ... bounds the message copies a node
    receives/sends"; degree-zero nodes are leaves."""
    return {n: len(kids) for n, kids in g.children.items()}


def is_complete_structure(
    g: Structure,
    source: NodeId,
    expected_nodes: Optional[set[NodeId]] = None,
) -> tuple[bool, str]:
    """Check the §II-B correctness property: the structure is acyclic and
    covers all (expected) nodes from the source.  Returns (ok, reason)."""
    if source not in g:
        return False, f"source {source} absent from structure"
    _, left = _kahn(g)
    if left:
        return False, f"cycle present: {_cycle(g, left)}"
    reachable = _reach(g, source)
    expected = expected_nodes if expected_nodes is not None else g.nodes
    missing = [n for n in expected if n not in reachable]
    if missing:
        return False, f"{len(missing)} nodes unreachable from source: {sorted(missing)[:8]}"
    return True, "ok"


def parent_counts(g: Structure, source: NodeId) -> dict[NodeId, int]:
    """In-degree (number of parents) per non-source node."""
    return {n: len(ps) for n, ps in g.parents.items() if n != source}


def to_dot(g: Structure, source: NodeId, *, label_prefix: str = "n") -> str:
    """DOT export for visual inspection (Fig. 8 sample tree shapes)."""
    lines = ["digraph brisa {", "  rankdir=TB;", "  node [shape=box, fontsize=9];"]
    lines.append(f'  "{label_prefix}{source}" [style=filled, fillcolor=lightgrey];')
    for a, b in sorted(g.edges):
        lines.append(f'  "{label_prefix}{a}" -> "{label_prefix}{b}";')
    lines.append("}")
    return "\n".join(lines)


def structure_summary(g: Structure, source: NodeId, mode: str = "tree") -> dict:
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
