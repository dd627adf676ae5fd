"""The array bootstrap treats its population as long-lived and cold
(DESIGN.md §8): the collector sits the build out and the built stack is
frozen for the drain, and the passive views stay in the reservoir's
arrays until something reads one.  Both must be invisible: the collector
is left as it was found on every exit path, and a view read late equals
the view an eager build would have installed.
"""

import gc
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.flood import FloodNode
from repro.config import HyParViewConfig
from repro.experiments import bootstrap
from repro.experiments.bootstrap import (
    TOPOLOGY_BUILDERS,
    assert_valid_overlay,
    install_checkpoint,
    load_overlay,
    save_overlay,
    synthesize_overlay,
    synthesize_passive,
)
from repro.experiments.common import Testbed as _Testbed
from repro.experiments.live_runner import synthesize_checkpoint
from repro.experiments.scale_flood import build_static_flood_overlay
from repro.experiments.scale_runner import (
    RunSpec,
    flood_stream_outcomes,
    run_spec,
    run_stack,
)
from repro.membership.hyparview import HyParViewNode
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.rng import derive

STATIC_SPECS = [
    RunSpec(stack="flood", kernel="vectorized", nodes=96, messages=3, seed=2),
    RunSpec(stack="flood", kernel="slotted", nodes=96, messages=3, seed=2),
    RunSpec(stack="brisa", kernel="object", nodes=96, messages=3, seed=2),
    RunSpec(stack="brisa", kernel="slotted", nodes=96, messages=3, seed=2),
]


def collector_state() -> tuple[bool, bool]:
    return gc.isenabled(), gc.get_freeze_count() > 0


class ProbeFloodNode(FloodNode):
    """Records the collector's state when it is built and when it
    publishes (``seen`` is shared by the population)."""

    seen: dict = {}

    def __init__(self, network, node_id, hpv_config=None) -> None:
        super().__init__(network, node_id, hpv_config)
        self.seen.setdefault("build", collector_state())

    def inject(self, stream, seq, payload_bytes):
        self.seen.setdefault("drain", collector_state())
        return super().inject(stream, seq, payload_bytes)


# ----------------------------------------------------------------------
# The collector during a build
# ----------------------------------------------------------------------
class TestCollectorHygiene:
    @pytest.mark.parametrize("spec", STATIC_SPECS, ids=lambda s: f"{s.stack}-{s.kernel}")
    def test_run_spec_restores_the_collector(self, spec):
        assert collector_state() == (True, False)
        assert run_spec(spec).delivered_fraction == 1.0
        assert collector_state() == (True, False)

    def test_build_is_paused_and_drain_is_frozen_but_collecting(self):
        ProbeFloodNode.seen = seen = {}
        sim, net, nodes = build_static_flood_overlay(
            48, seed=3, node_factory=ProbeFloodNode
        )
        assert collector_state() == (True, False)
        result = run_stack(
            sim, net, nodes,
            lambda sources, alive: (flood_stream_outcomes(sources, alive, 2), 0, {}),
            nodes=48, messages=2, rate=20.0, payload_bytes=64, seed=3, streams=1,
            kernel="object", degree=5, topology="uniform", loss_percent=0.0,
            bootstrap_wall=0.0,
        )
        assert result.delivered_fraction == 1.0
        # (enabled, frozen): the build allocates with the collector off;
        # the drain runs with it on, over a frozen stack.
        assert seen == {"build": (False, False), "drain": (True, True)}
        assert collector_state() == (True, False)

    def test_simulated_ramp_runs_with_the_collector_enabled(self):
        ProbeFloodNode.seen = seen = {}
        bed = _Testbed(seed=4)
        bed.populate(6, ProbeFloodNode, settle=1.0)
        assert seen == {"build": (True, False)}

    def test_a_build_that_raises_restores_the_collector(self):
        bed = _Testbed(seed=5)
        with pytest.raises(ValueError, match="exceeds the expanded active-view cap"):
            bed.populate(32, ProbeFloodNode, bootstrap="synthesized", degree=99)
        assert collector_state() == (True, False)
        with pytest.raises(ValueError, match="smallworld topology needs degree >= 4"):
            build_static_flood_overlay(32, degree=3, topology="smallworld")
        assert collector_state() == (True, False)

    def test_a_drain_that_raises_thaws_the_heap(self):
        sim, net, nodes = build_static_flood_overlay(32, seed=6)

        def account(sources, alive):
            assert gc.get_freeze_count() > 0
            raise RuntimeError("accounting failed")

        with pytest.raises(RuntimeError, match="accounting failed"):
            run_stack(
                sim, net, nodes, account,
                nodes=32, messages=1, rate=20.0, payload_bytes=64, seed=6,
                streams=1, kernel="object", degree=5, topology="uniform",
                loss_percent=0.0, bootstrap_wall=0.0,
            )
        assert collector_state() == (True, False)

    def test_a_collector_found_disabled_stays_disabled(self):
        gc.disable()
        try:
            assert run_spec(STATIC_SPECS[0]).delivered_fraction == 1.0
            assert collector_state() == (False, False)
        finally:
            gc.enable()

    def test_a_heap_found_frozen_is_not_thawed(self):
        # What bench/cell.py does.  ``gc.unfreeze()`` is all-or-nothing,
        # so thawing the stack would thaw the caller's heap too: the
        # stack joins the caller's permanent generation instead and
        # whoever froze first owns the thaw.
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            assert frozen > 0
            assert run_spec(STATIC_SPECS[0]).delivered_fraction == 1.0
            assert gc.isenabled()
            assert gc.get_freeze_count() > frozen
        finally:
            gc.unfreeze()


# ----------------------------------------------------------------------
# The passive reservoir stays in the arrays
# ----------------------------------------------------------------------
def spawn_population(n: int, hpv: HyParViewConfig, seed: int = 1):
    net = Network(Simulator(seed=seed))
    net.autostart_timers = False
    return net, net.spawn_many(lambda network, nid: HyParViewNode(network, nid, hpv), n)


def unread(node) -> bool:
    return "passive" not in vars(node)


class TestPassiveReservoir:
    @pytest.mark.parametrize("spec", STATIC_SPECS, ids=lambda s: f"{s.stack}-{s.kernel}")
    def test_static_run_never_draws_the_reservoir(self, spec, monkeypatch):
        populations, draws = [], []
        build, draw = bootstrap.synthesize_overlay, bootstrap.synthesize_passive_arrays

        def capturing_build(nodes, *args, **kwargs):
            populations.append(nodes)
            return build(nodes, *args, **kwargs)

        def counting_draw(*args, **kwargs):
            draws.append(args)
            return draw(*args, **kwargs)

        monkeypatch.setattr(bootstrap, "synthesize_overlay", capturing_build)
        monkeypatch.setattr(bootstrap, "synthesize_passive_arrays", counting_draw)
        assert run_spec(spec).delivered_fraction == 1.0
        (nodes,) = populations
        assert len(nodes) == spec.nodes
        assert draws == []
        assert all(unread(node) for node in nodes)
        # One read draws the whole population's views, once; the other
        # nodes still hold no set of their own.
        assert len(nodes[7].passive) == nodes[7].hpv_config.passive_size
        assert len(draws) == 1
        assert sum(not unread(node) for node in nodes) == 1
        assert nodes[8].passive and len(draws) == 1

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=12, max_value=160),
        topology=st.sampled_from(sorted(TOPOLOGY_BUILDERS)),
    )
    def test_late_views_equal_the_eager_reference(self, seed, n, topology):
        hpv = HyParViewConfig(active_size=5, passive_size=16)
        # The reference: dict-of-sets passive draw fed the same stream
        # after the same topology draws.
        rng = derive(seed, "overlay")
        topo = TOPOLOGY_BUILDERS[topology](
            n, degree=5, max_degree=hpv.max_active, rng=rng
        )
        adj = [set(topo.neighbors[topo.offsets[i] : topo.offsets[i + 1]]) for i in range(n)]
        after_topology = rng.getstate()
        reference = synthesize_passive(n, adj, size=hpv.passive_size, rng=rng)

        orders = []
        for shuffled in (False, True):
            net, nodes = spawn_population(n, hpv)
            synthesize_overlay(
                nodes, net, rng=derive(seed, "overlay"), degree=5, topology=topology
            )
            assert all(unread(node) for node in nodes)
            touch = list(range(n))
            if shuffled:
                random.Random(seed).shuffle(touch)
            for i in touch:
                nodes[i].passive
            ids = [node.node_id for node in nodes]
            assert [node.passive for node in nodes] == [
                {ids[j] for j in view} for view in reference
            ]
            # Iteration order too: ``rng.choice(list(self.passive))``
            # must not depend on who touched the reservoir first.
            orders.append([list(node.passive) for node in nodes])
        assert orders[0] == orders[1]

        # And the order an eager install of the same entries leaves.
        net, nodes = spawn_population(n, hpv)
        ids = [node.node_id for node in nodes]
        rng.setstate(after_topology)
        p_offsets, p_entries = bootstrap.synthesize_passive_arrays(
            n, topo, size=hpv.passive_size, rng=rng
        )
        for i, node in enumerate(nodes):
            node.install_overlay(
                [ids[j] for j in adj[i]],
                [ids[j] for j in p_entries[p_offsets[i] : p_offsets[i + 1]]],
                register_links=False,
            )
        assert [list(node.passive) for node in nodes] == orders[0]

    def test_non_fresh_node_resolves_a_provider_at_once(self):
        net, (node, a, b, c) = spawn_population(4, HyParViewConfig())
        node.install_overlay([a.node_id], [b.node_id])
        node.install_overlay([], lambda: [c.node_id, a.node_id, node.node_id])
        assert vars(node)["passive"] == {b.node_id, c.node_id}

    def test_crash_of_an_unread_node_then_a_joiner_keeps_the_invariants(self):
        sim, net, nodes = build_static_flood_overlay(64, seed=7)
        victim = nodes[20]
        neighbours = [net.nodes[p] for p in victim.active]
        assert unread(victim) and all(unread(p) for p in neighbours)
        net.crash(victim.node_id)
        sim.run_until_idle()
        net.autostart_timers = False  # message-driven join only: the heap drains
        joiner = net.spawn(lambda network, nid: FloodNode(network, nid, victim.hpv_config))
        joiner.join(nodes[0].node_id)
        sim.run_until_idle()

        net.check_link_invariants()
        alive = [node for node in net.nodes.values() if node.alive]
        assert joiner in alive and victim not in alive
        audit = bootstrap.audit_overlay(alive)
        assert audit.bidirectional and audit.connected
        assert joiner.active
        hpv = victim.hpv_config
        for node in alive:
            assert victim.node_id not in node.active
            assert len(node.active) <= hpv.max_active
            assert len(node.passive) <= hpv.passive_size
            assert node.node_id not in node.passive
            assert not node.passive & set(node.active)
        # The failure detector is what read the reservoir: the victim's
        # neighbours dropped it from views they had never looked at.
        assert all(not unread(p) for p in neighbours)

    def test_checkpoint_of_an_untouched_population_round_trips(self, tmp_path):
        bed = _Testbed(seed=8)
        bed.populate(48, lambda net, nid: HyParViewNode(net, nid), bootstrap="synthesized")
        assert all(unread(node) for node in bed.nodes)
        saved = load_overlay(save_overlay(bed.nodes, tmp_path / "lazy.json"))
        # The eager twin: the same stream drawn straight into a file.
        eager = load_overlay(synthesize_checkpoint(48, tmp_path / "eager.json", seed=8))
        assert saved.ids == eager.ids
        assert saved.active == eager.active
        assert {k: set(v) for k, v in saved.passive.items()} == {
            k: set(v) for k, v in eager.passive.items()
        }

        restored = _Testbed(seed=99)
        fresh = restored.network.spawn_many(lambda net, nid: HyParViewNode(net, nid), 48)
        install_checkpoint(fresh, restored.network, saved)
        assert_valid_overlay(fresh)
        for node, twin in zip(bed.nodes, fresh):
            assert list(node.active) == list(twin.active)
            assert node.passive == twin.passive == set(eager.passive[node.node_id])

    @pytest.mark.parametrize(
        "spec,expected",
        [
            (
                RunSpec(stack="flood", kernel="slotted", nodes=3000, messages=10,
                        churn_percent=2.0, seed=3),
                (29390, 33979, 119920, 1755, 2.039404, 60, 60, 2939),
            ),
            (
                RunSpec(stack="flood", kernel="object", nodes=2000, messages=10,
                        churn_percent=5.0, seed=4),
                (18990, 26058, 80281, 1469, 2.014495, 100, 100, 1899),
            ),
            (
                RunSpec(stack="flood", kernel="vectorized", topology="powerlaw",
                        nodes=3000, messages=10, churn_percent=2.0, seed=5),
                (29388, 33818, 119424, 1777, 2.026531, 60, 60, 2939),
            ),
        ],
        ids=["slotted", "object", "vectorized-powerlaw"],
    )
    def test_churn_runs_draw_what_an_eager_build_drew(self, spec, expected):
        # Measured at the parent of the change that made the reservoir
        # lazy (eager passive views): churn reads the views mid-run, and
        # every simulated statistic must come out as it did then.
        r = run_spec(spec)
        assert (
            r.deliveries, r.events, r.receptions, r.peak_pending,
            round(r.sim_time, 6), r.kills, r.joins, r.survivors,
        ) == expected

