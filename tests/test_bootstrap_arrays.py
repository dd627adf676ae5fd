"""Tests for the array-backed overlay construction (DESIGN.md §8).

The property suite pins the contract the 100k rung rests on: the
array-backed synthesizer and the dict-based reference implementation
consume the RNG identically, so for any size and seed they produce the
*same* overlay — same edge set, same degree vector, same passive views —
and that overlay satisfies every settled-HyParView invariant
(bidirectionality, connectivity, degree bounds).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import HyParViewConfig
from repro.errors import SimulationError
from repro.experiments.bootstrap import (
    CSRTopology,
    assert_valid_overlay,
    synthesize_passive,
    synthesize_passive_arrays,
    synthesize_topology,
    synthesize_topology_arrays,
)
from repro.experiments.common import Testbed as _Testbed, brisa_factory
from repro.sim.rng import derive


def csr_edge_set(topo: CSRTopology) -> set[tuple[int, int]]:
    edges = set()
    for i in range(topo.n):
        for j in topo.neighbors[topo.offsets[i] : topo.offsets[i + 1]]:
            edges.add((i, j) if i < j else (j, i))
    return edges


def csr_connected(topo: CSRTopology) -> bool:
    seen = bytearray(topo.n)
    seen[0] = 1
    frontier = [0]
    offsets, neighbors = topo.offsets, topo.neighbors
    count = 1
    while frontier:
        nxt = []
        for i in frontier:
            for j in neighbors[offsets[i] : offsets[i + 1]]:
                if not seen[j]:
                    seen[j] = 1
                    count += 1
                    nxt.append(j)
        frontier = nxt
    return count == topo.n


# ----------------------------------------------------------------------
# Property: the two synthesizers are draw-for-draw equivalent
# ----------------------------------------------------------------------
class TestSynthesizerEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=16, max_value=512),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        degree=st.integers(min_value=3, max_value=7),
    )
    def test_same_topology_for_same_seed(self, n, seed, degree):
        max_degree = degree + 1
        adj = synthesize_topology(
            n, degree=degree, max_degree=max_degree, rng=derive(seed, "topo")
        )
        topo = synthesize_topology_arrays(
            n, degree=degree, max_degree=max_degree, rng=derive(seed, "topo")
        )
        assert csr_edge_set(topo) == {
            (a, b) for a in range(n) for b in adj[a] if a < b
        }
        assert list(topo.degrees) == [len(adj[i]) for i in range(n)]
        assert list(topo.offsets) == [
            sum(topo.degrees[:i]) for i in range(n + 1)
        ]

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=16, max_value=512),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_invariants_hold_on_csr_overlay(self, n, seed):
        topo = synthesize_topology_arrays(
            n, degree=7, max_degree=8, rng=derive(seed, "topo")
        )
        degrees = list(topo.degrees)
        # Degree bounds: ring minimum to the expanded cap.
        assert min(degrees) >= 2
        assert max(degrees) <= 8
        # Bidirectionality: CSR rows are symmetric.
        edges = csr_edge_set(topo)
        assert 2 * len(edges) == len(topo.neighbors)
        for a, b in edges:
            row_a = topo.neighbors[topo.offsets[a] : topo.offsets[a + 1]]
            row_b = topo.neighbors[topo.offsets[b] : topo.offsets[b + 1]]
            assert b in row_a and a in row_b
        # Connectivity (the Hamiltonian ring guarantee).
        assert csr_connected(topo)

    @settings(max_examples=15, deadline=None)
    @given(
        n=st.integers(min_value=16, max_value=256),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_same_passive_views_for_same_seed(self, n, seed):
        adj = synthesize_topology(n, degree=5, max_degree=8, rng=derive(seed, "t"))
        topo = synthesize_topology_arrays(n, degree=5, max_degree=8, rng=derive(seed, "t"))
        views = synthesize_passive(n, adj, size=16, rng=derive(seed, "p"))
        offsets, entries = synthesize_passive_arrays(
            n, topo, size=16, rng=derive(seed, "p")
        )
        assert [
            set(entries[offsets[i] : offsets[i + 1]]) for i in range(n)
        ] == views
        # Exclusion rules hold on the flat layout too.
        for i in range(n):
            view = set(entries[offsets[i] : offsets[i + 1]])
            assert i not in view
            assert not view & adj[i]

    def test_rejects_degenerate_input_like_reference(self):
        rng = derive(4, "t")
        with pytest.raises(ValueError):
            synthesize_topology_arrays(2, degree=2, max_degree=4, rng=rng)
        with pytest.raises(ValueError):
            synthesize_topology_arrays(10, degree=1, max_degree=4, rng=rng)
        with pytest.raises(ValueError):
            synthesize_topology_arrays(10, degree=6, max_degree=4, rng=rng)


# ----------------------------------------------------------------------
# Bulk wiring: register_links_csr, install_overlay fast path, spawn_many
# ----------------------------------------------------------------------
class TestBulkWiring:
    def test_populate_synthesized_registers_every_link(self):
        bed = _Testbed(seed=41)
        bed.populate(64, brisa_factory(), bootstrap="synthesized", validate=True)
        for node in bed.nodes:
            for peer in node.active:
                assert bed.network.linked(node.node_id, peer)

    def test_register_links_csr_matches_per_edge_registration(self):
        from repro.sim.engine import Simulator
        from repro.sim.network import Network

        topo = synthesize_topology_arrays(50, degree=5, max_degree=8, rng=derive(9, "t"))
        ids = list(range(100, 150))
        net_a = Network(Simulator(seed=1))
        count = net_a.register_links_csr(ids, topo.offsets, topo.neighbors)
        net_b = Network(Simulator(seed=1))
        for a, b in csr_edge_set(topo):
            net_b.register_link(ids[a], ids[b])
        assert net_a.links == net_b.links
        assert count == len(csr_edge_set(topo))

    def test_register_links_csr_rejects_self_links(self):
        from array import array

        from repro.sim.engine import Simulator
        from repro.sim.network import Network

        net = Network(Simulator(seed=1))
        with pytest.raises(SimulationError, match="itself"):
            net.register_links_csr(
                [5, 6], array("q", [0, 1, 2]), array("i", [0, 1])
            )

    def test_register_links_csr_rejects_a_peer_named_twice(self):
        from array import array

        from repro.sim.engine import Simulator
        from repro.sim.network import Network

        net = Network(Simulator(seed=1))
        # Symmetric, but row 0 names node 6 twice: its keep-alive degree
        # would count the link twice.
        with pytest.raises(SimulationError, match="twice"):
            net.register_links_csr(
                [5, 6], array("q", [0, 2, 4]), array("i", [1, 1, 0, 0])
            )
        assert net.links == {}

    def test_register_links_csr_rejects_asymmetry_before_mutating(self):
        from array import array

        from repro.sim.engine import Simulator
        from repro.sim.network import Network

        net = Network(Simulator(seed=1))
        # Even edge count, but (0,1) and (2,3) have no reverse entries.
        with pytest.raises(SimulationError, match="symmetric"):
            net.register_links_csr(
                [5, 6, 7, 8],
                array("q", [0, 1, 1, 2, 2]),
                array("i", [1, 3]),
            )
        # Validation happens before any mutation: no half-registered links.
        assert net.links == {}

    def test_install_overlay_bulk_path_filters_self_and_overlap(self):
        bed = _Testbed(seed=42)
        node = bed.network.spawn(brisa_factory())
        peer = bed.network.spawn(brisa_factory())
        other = bed.network.spawn(brisa_factory())
        node.install_overlay(
            [peer.node_id, node.node_id],  # self entry must be dropped
            [peer.node_id, other.node_id, node.node_id],  # active/self excluded
        )
        assert list(node.active) == [peer.node_id]
        assert node.passive == {other.node_id}
        assert bed.network.linked(node.node_id, peer.node_id)
        # §II-C hook fired for the installed neighbour.
        assert node.stream_state(0).in_active == {peer.node_id: True}

    def test_spawn_many_matches_sequential_spawns(self):
        bed_a, bed_b = _Testbed(seed=43), _Testbed(seed=43)
        many = bed_a.network.spawn_many(brisa_factory(), 5)
        each = [bed_b.network.spawn(brisa_factory()) for _ in range(5)]
        assert [n.node_id for n in many] == [n.node_id for n in each]
        assert bed_a.network._next_id == bed_b.network._next_id

    def test_defer_timers_schedules_no_shuffles(self):
        bed = _Testbed(seed=44)
        bed.populate(
            32, brisa_factory(), bootstrap="synthesized", defer_timers=True
        )
        assert bed.sim.pending == 0
        assert all(not n._shuffle_task.running for n in bed.nodes)
        # start_timers() arms them on demand (idempotently).
        bed.start_timers()
        assert all(n._shuffle_task.running for n in bed.nodes)
        assert bed.sim.pending == len(bed.nodes)
        bed.start_timers()
        assert bed.sim.pending == len(bed.nodes)

    def test_defer_timers_rejected_on_simulated_ramp(self):
        bed = _Testbed(seed=45)
        with pytest.raises(ValueError, match="defer_timers"):
            bed.populate(8, brisa_factory(), defer_timers=True)

    def test_deferred_overlay_still_disseminates(self):
        from repro.config import StreamConfig

        bed = _Testbed(seed=46)
        bed.populate(
            64, brisa_factory(), bootstrap="synthesized", defer_timers=True,
            validate=True,
        )
        result = bed.run_stream(bed.nodes[0], StreamConfig(count=10, rate=10.0))
        assert result.delivered_fraction() == 1.0
        ok, reason = result.structure_ok()
        assert ok, reason

    def test_lazy_rng_not_materialized_by_deferred_spawn(self):
        bed = _Testbed(seed=47)
        bed.populate(
            16, brisa_factory(), bootstrap="synthesized", defer_timers=True
        )
        assert all("_rng" not in vars(n) for n in bed.nodes)
        # First use derives the same stream eager construction would have.
        expected = bed.sim.rng("node", bed.nodes[0].node_id, "BrisaNode").random()
        assert bed.nodes[0]._rng.random() == expected

    def test_synthesized_overlay_passes_settled_invariants(self):
        hpv = HyParViewConfig()
        bed = _Testbed(seed=48)
        bed.populate(128, brisa_factory(), bootstrap="synthesized")
        audit = assert_valid_overlay(bed.nodes, hpv)
        assert audit.connected and audit.bidirectional
