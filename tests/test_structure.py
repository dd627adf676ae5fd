"""Tests for structure extraction and analysis, and a property check of
every function against networkx, the reference implementation."""

import ast

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.structure import (
    Structure,
    dag_depths,
    depths,
    extract_structure,
    is_complete_structure,
    out_degrees,
    parent_counts,
    structure_summary,
    to_dot,
    tree_depths,
)
from tests.helpers import to_networkx


def chain(*edges):
    g = Structure()
    for u, v in edges:
        g.add_edge(u, v)
    return g


class TestDepths:
    def test_tree_depths_shortest_path(self):
        g = chain((0, 1), (1, 2), (0, 3))
        assert tree_depths(g, 0) == {0: 0, 1: 1, 2: 2, 3: 1}

    def test_dag_depths_longest_path(self):
        # Diamond: 0->1->3 and 0->2->3 plus long route 0->1->2.
        g = chain((0, 1), (0, 2), (1, 2), (1, 3), (2, 3))
        # Longest path to 3: 0-1-2-3 = 3 hops.
        assert dag_depths(g, 0)[3] == 3
        assert tree_depths(g, 0)[3] == 2  # shortest differs

    def test_depth_dispatch(self):
        g = chain((0, 1), (1, 2))
        assert depths(g, 0, "tree") == depths(g, 0, "dag")

    def test_missing_source(self):
        assert tree_depths(chain((1, 2)), 0) == {}
        assert dag_depths(chain((1, 2)), 0) == {}


class TestCompleteness:
    def test_complete_tree_passes(self):
        g = chain((0, 1), (1, 2), (0, 3))
        ok, reason = is_complete_structure(g, 0)
        assert ok, reason

    def test_cycle_detected(self):
        g = chain((0, 1), (1, 2), (2, 1))
        ok, reason = is_complete_structure(g, 0)
        assert not ok and "cycle" in reason

    def test_unreachable_nodes_detected(self):
        g = chain((0, 1))
        g.add_node(9)
        ok, reason = is_complete_structure(g, 0)
        assert not ok and "unreachable" in reason

    def test_expected_nodes_override(self):
        g = chain((0, 1))
        g.add_node(9)
        ok, _ = is_complete_structure(g, 0, expected_nodes={0, 1})
        assert ok

    def test_source_absent(self):
        ok, reason = is_complete_structure(chain((1, 2)), 0)
        assert not ok and "absent" in reason


class TestDegreesAndCounts:
    def test_out_degrees(self):
        g = chain((0, 1), (0, 2), (1, 3))
        assert out_degrees(g) == {0: 2, 1: 1, 2: 0, 3: 0}

    def test_parent_counts_exclude_source(self):
        g = chain((0, 1), (0, 2), (1, 2))
        assert parent_counts(g, 0) == {1: 1, 2: 2}


class TestExtraction:
    def test_extract_from_node_objects(self):
        class FakeState:
            def __init__(self, parents):
                self.parents = {p: None for p in parents}

        class FakeNode:
            def __init__(self, nid, parents, alive=True):
                self.node_id = nid
                self.alive = alive
                self.streams = {0: FakeState(parents)}

        nodes = [FakeNode(0, []), FakeNode(1, [0]), FakeNode(2, [0, 1]), FakeNode(3, [2], alive=False)]
        g = extract_structure(nodes)
        assert set(g.nodes) == {0, 1, 2}
        assert set(g.edges) == {(0, 1), (0, 2), (1, 2)}

    def test_nodes_without_stream_state_are_isolated(self):
        class Bare:
            node_id = 5
            alive = True
            streams = {}

        g = extract_structure([Bare()])
        assert set(g.nodes) == {5}


class TestRendering:
    def test_to_dot_contains_all_edges(self):
        g = chain((0, 1), (1, 2))
        dot = to_dot(g, 0)
        assert '"n0" -> "n1";' in dot
        assert '"n1" -> "n2";' in dot
        assert "fillcolor=lightgrey" in dot  # source highlighted

    def test_structure_summary(self):
        g = chain((0, 1), (1, 2), (0, 3))
        s = structure_summary(g, 0)
        assert s["nodes"] == 4 and s["edges"] == 3
        assert s["max_depth"] == 2
        assert s["leaves"] == 2  # nodes 2 and 3


# ----------------------------------------------------------------------
# Reference property: every function agrees with networkx
# ----------------------------------------------------------------------
class FakeNode:
    __slots__ = ("node_id", "alive", "parents")

    def __init__(self, node_id, parents, alive):
        self.node_id, self.parents, self.alive = node_id, parents, alive

    def tree_parents(self, stream):
        return self.parents


def nx_extract(nodes):
    g = nx.DiGraph()
    for node in nodes:
        if node.alive:
            g.add_node(node.node_id)
            for parent in node.parents:
                g.add_edge(parent, node.node_id)
    return g


def nx_dag_depths(g, source):
    if source not in g:
        return {}
    depth = {source: 0}
    for node in nx.topological_sort(g):
        if node in depth:
            for child in g.successors(node):
                depth[child] = max(depth.get(child, -1), depth[node] + 1)
    return depth


def nx_summary(g, source, mode):
    if mode == "dag":
        dep = nx_dag_depths(g, source)
    else:
        dep = nx.single_source_shortest_path_length(g, source) if source in g else {}
    deg = dict(g.out_degree())
    return {
        "nodes": g.number_of_nodes(),
        "edges": g.number_of_edges(),
        "max_depth": max(dep.values(), default=0),
        "mean_depth": sum(dep.values()) / len(dep) if dep else 0.0,
        "max_degree": max(deg.values(), default=0),
        "leaves": sum(1 for d in deg.values() if d == 0),
    }


def nx_complete(g, source, expected=None):
    """The §II-B check on networkx; a cycle reads as ``(False, None)``
    (any cycle is a valid report)."""
    if source not in g:
        return False, f"source {source} absent from structure"
    if not nx.is_directed_acyclic_graph(g):
        return False, None
    reachable = nx.descendants(g, source) | {source}
    missing = (expected if expected is not None else set(g.nodes)) - reachable
    if missing:
        return False, f"{len(missing)} nodes unreachable from source: {sorted(missing)[:8]}"
    return True, "ok"


def assert_reports_a_cycle(reason, ref):
    assert reason.startswith("cycle present: "), reason
    edges = ast.literal_eval(reason[len("cycle present: "):])
    assert edges and all(ref.has_edge(u, v) for u, v in edges), edges
    assert all(v == u for (_, v), (u, _) in zip(edges, edges[1:] + edges[:1])), edges


@st.composite
def digraphs(draw):
    """Digraphs over relabelled ids: free edges (cycles, self-loops), or
    forward edges only (DAGs: diamonds, and with a spine, deep ones),
    plus isolated nodes, in a drawn insertion order; and a source that
    is one of its nodes, or rarely absent (-1)."""
    n = draw(st.integers(0, 30))
    label = draw(st.permutations(range(n)))
    ids = st.integers(0, max(n - 1, 0))
    edges = draw(st.lists(st.tuples(ids, ids), max_size=3 * n)) if n else []
    shape = draw(st.sampled_from(["free", "dag", "deep"]))
    if shape != "free":
        edges = [(min(u, v), max(u, v)) for u, v in edges if u != v]
    if shape == "deep":
        edges += [(i, i + 1) for i in range(n - 1)]
    edges = draw(st.permutations(edges))
    g = Structure()
    for node in draw(st.lists(st.integers(0, n + 4), max_size=8)):
        g.add_node(node if node >= n else label[node])
    for u, v in edges:
        g.add_edge(label[u], label[v])
    return g, draw(st.sampled_from([*g.nodes, -1]))


@given(digraphs(), st.none() | st.sets(st.integers(0, 35)))
def test_structure_functions_agree_with_networkx(g_source, expected):
    g, source = g_source
    ref = to_networkx(g)
    assert list(g.nodes) == list(ref.nodes) and g.edges == list(ref.edges)
    assert g.number_of_nodes() == ref.number_of_nodes()
    assert g.number_of_edges() == ref.number_of_edges()
    assert (source in g) == (source in ref)
    shortest = nx.single_source_shortest_path_length(ref, source) if source in ref else {}
    assert tree_depths(g, source) == shortest
    assert list(out_degrees(g).items()) == list(ref.out_degree())
    assert parent_counts(g, source) == {n: d for n, d in ref.in_degree() if n != source}
    assert to_dot(g, source) == to_dot(ref, source)  # reads only sorted(ref.edges)
    assert structure_summary(g, source, "tree") == nx_summary(ref, source, "tree")
    ok, reason = is_complete_structure(g, source, expected)
    ref_ok, ref_reason = nx_complete(ref, source, expected)
    assert ok == ref_ok
    if ref_reason is None:
        assert_reports_a_cycle(reason, ref)
    else:
        assert reason == ref_reason
    if source in ref and not nx.is_directed_acyclic_graph(ref):
        with pytest.raises(ValueError, match="cycle present"):
            dag_depths(g, source)
        with pytest.raises(nx.NetworkXUnfeasible):
            nx_dag_depths(ref, source)
    else:
        assert dag_depths(g, source) == nx_dag_depths(ref, source)
        assert structure_summary(g, source, "dag") == nx_summary(ref, source, "dag")


@given(digraphs(), st.data())
def test_extract_structure_agrees_with_networkx(g_source, data):
    g, _ = g_source
    nodes = [
        FakeNode(n, list(g.parents[n]), data.draw(st.booleans(), label=f"alive {n}"))
        for n in g.nodes
    ]
    extracted = extract_structure(nodes)
    ref = nx_extract(nodes)
    assert list(extracted.nodes) == list(ref.nodes)
    assert extracted.edges == list(ref.edges)
