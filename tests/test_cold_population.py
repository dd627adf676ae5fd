"""A flood node on an array kernel is born cold (DESIGN.md §8 "The
population is born cold"): an id and a slot until membership touches it.

Three things must hold for that to be invisible.  A wake leaves the node
what an eager construction plus ``install_overlay`` would have left (the
object-kernel build of the same seed is the eager reference — ``rng_kind``
makes the kernels draw-for-draw twins).  A static run wakes nobody: one
stray attribute read on the static path would wake the population and
lose the gain with every other test still green.  And everything that
does touch membership — a crash, a failure notice, a joiner, a
checkpoint, an audit — finds the state it found before.
"""

import random
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.flood import SlottedFloodNode
from repro.experiments import bootstrap
from repro.experiments.bootstrap import (
    TOPOLOGY_BUILDERS,
    assert_valid_overlay,
    audit_overlay,
    install_checkpoint,
    load_overlay,
    save_overlay,
)
from repro.experiments.common import Testbed as _Testbed
from repro.experiments.scale_flood import build_static_flood_overlay, flood_node_factory
from repro.experiments.scale_runner import RunSpec, run_spec
from repro.runtime.api import PeriodicTask

ARRAY_KERNELS = ("slotted", "vectorized")

#: What a cold node is born with; every other name is a wake.
BORN_WITH = {
    "transport", "clock", "node_id", "alive", "birth_time",
    "kernel", "slot", "hpv_config",
}

#: Attributes whose first read wakes a node; read on the eager twin too,
#: so the two end in the same state (``passive`` resolves its provider).
TOUCHES = (
    "active", "passive", "degree", "_tasks", "_shuffle_task",
    "_pending_neighbor", "_neighbor_seq", "_promotion_rejected",
)


def is_cold(node) -> bool:
    # ``vars`` is the only probe that is not itself a read.
    return set(vars(node)) == BORN_WITH


def assert_unarmed(task, sim) -> None:
    assert isinstance(task, PeriodicTask)
    assert not task.running and task._handle is None
    assert sim.pending == 0


def assert_twin(node, twin) -> None:
    """``vars(node)`` equals the eager reference's, name by name."""
    state, ref = vars(node), vars(twin)
    assert set(state) - {"kernel", "slot"} == set(ref) - {"seqs"}
    assert state["transport"] is not ref["transport"]
    assert state["clock"] is state["transport"].clock
    for name in ("node_id", "alive", "birth_time", "hpv_config",
                 "_pending_neighbor", "_neighbor_seq", "_promotion_rejected"):
        assert state[name] == ref[name], name
    assert list(state["active"]) == list(ref["active"])
    if "passive" in ref:
        assert list(state["passive"]) == list(ref["passive"])
    else:
        # Unread on both sides: the same reservoir row, still in the arrays.
        provider, ref_provider = state["_passive_provider"], ref["_passive_provider"]
        assert isinstance(provider, partial)
        assert provider.func.__func__ is ref_provider.func.__func__
        assert provider.args == ref_provider.args
    assert state["_tasks"] == [state["_shuffle_task"]] and len(ref["_tasks"]) == 1
    assert_unarmed(state["_shuffle_task"], state["clock"])
    assert state["kernel"].slot_of[state["node_id"]] == state["slot"]


def captured_run(spec, monkeypatch):
    """``run_spec(spec)`` plus the population it built."""
    populations = []
    build = bootstrap.synthesize_overlay

    def capturing_build(nodes, *args, **kwargs):
        populations.append(nodes)
        return build(nodes, *args, **kwargs)

    monkeypatch.setattr(bootstrap, "synthesize_overlay", capturing_build)
    result = run_spec(spec)
    (nodes,) = populations
    return result, nodes


# ----------------------------------------------------------------------
# (a) A wake equals the eager construction
# ----------------------------------------------------------------------
class TestWakeEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=12, max_value=96),
        topology=st.sampled_from(sorted(TOPOLOGY_BUILDERS)),
        touch=st.integers(min_value=0, max_value=2**16),
    )
    def test_woken_node_equals_the_object_kernel_twin(self, seed, n, topology, touch):
        _, _, twins = build_static_flood_overlay(n, seed=seed, topology=topology)
        order = random.Random(touch)
        # Some of the nodes, in a drawn order, each by a drawn attribute.
        touched = [
            (i, order.choice(TOUCHES)) for i in order.sample(range(n), order.randint(1, n))
        ]
        for i, name in touched:
            getattr(twins[i], name)
        for kernel in ARRAY_KERNELS:
            sim, net, nodes = build_static_flood_overlay(
                n, seed=seed, topology=topology, kernel=kernel
            )
            assert all(is_cold(node) for node in nodes)
            slot_kernel = nodes[0].kernel
            rows = [list(slot_kernel.row(s)) for s in range(slot_kernel.capacity)]
            pushes = sim._seq
            for i, name in touched:
                getattr(nodes[i], name)
            woken = {i for i, _ in touched}
            for i, (node, twin) in enumerate(zip(nodes, twins)):
                if i in woken:
                    assert_twin(node, twin)
                    # No RNG stream was derived for it either.
                    assert "_rng" not in vars(node)
                else:
                    assert is_cold(node)
            assert nodes[0].kernel.cold == {
                node.node_id for i, node in enumerate(nodes) if i not in woken
            }
            # No wake pushed an event or touched a kernel row.
            assert sim._seq == pushes and sim.pending == 0
            assert [slot_kernel.row(s) for s in range(slot_kernel.capacity)] == rows
            net.check_link_invariants()

    @pytest.mark.parametrize("kernel", ARRAY_KERNELS)
    def test_wake_draws_nothing_until_the_passive_view_is_read(self, kernel, monkeypatch):
        draws = []
        draw = bootstrap.synthesize_passive_arrays
        monkeypatch.setattr(
            bootstrap, "synthesize_passive_arrays",
            lambda *a, **kw: draws.append(a) or draw(*a, **kw),
        )
        _, _, nodes = build_static_flood_overlay(48, seed=3, kernel=kernel)
        assert nodes[5].degree >= 2 and not is_cold(nodes[5])
        assert draws == []
        assert len(nodes[5].passive) == nodes[5].hpv_config.passive_size
        assert len(draws) == 1 and is_cold(nodes[6])

    def test_a_miss_inside_a_wake_raises_instead_of_recursing(self):
        class Broken(SlottedFloodNode):
            def _wake(self):
                self.no_such_attribute

        _, net, nodes = build_static_flood_overlay(16, seed=1, kernel="slotted")
        net.autostart_timers = False
        node = net.spawn(lambda network, nid: Broken(network, nid, kernel=nodes[0].kernel))
        assert is_cold(node)
        with pytest.raises(AttributeError, match="no_such_attribute"):
            node.active
        # The marker went first: no later read re-enters the wake.
        assert node.node_id not in node.kernel.cold
        with pytest.raises(AttributeError, match="'active'"):
            node.active

    def test_a_mixed_population_is_installed_per_node(self):
        # Store adoption is all-or-nothing: one warm node and everybody
        # takes install_overlay (which wakes whoever is still cold).
        bed = _Testbed(seed=5)
        kernel_factory = flood_node_factory("slotted", bed.network, None)
        bed.network.autostart_timers = False
        nodes = bed.network.spawn_many(kernel_factory, 24)
        nodes[3].active  # woken before any store exists: empty views
        bootstrap.synthesize_overlay(nodes, bed.network, rng=bed.sim.rng("o"))
        kernel = nodes[0].kernel
        assert not kernel.cold and kernel._cold_views is None
        assert_valid_overlay(nodes)
        assert [kernel.row(n.slot) for n in nodes] == [list(n.active) for n in nodes]

    def test_adoption_outside_a_bulk_rows_bracket_installs_the_rows(self):
        # Testbed.populate does not know about kernels: the rows the
        # skipped notifications would have appended come with the store.
        bed = _Testbed(seed=6)
        factory = flood_node_factory("vectorized", bed.network, None)
        bed.populate(32, factory, bootstrap="synthesized", defer_timers=True)
        kernel = bed.nodes[0].kernel
        assert all(is_cold(node) for node in bed.nodes)
        rows = [list(kernel.row(node.slot)) for node in bed.nodes]
        assert rows == [list(node.active) for node in bed.nodes]
        bed.nodes[0].inject(0, 0, 64)
        bed.sim.run_until_idle()
        assert all(node.delivered_count(0) == 1 for node in bed.nodes)

    @pytest.mark.parametrize("kernel", ARRAY_KERNELS)
    def test_a_warm_population_builds_its_rows_from_notifications(self, kernel):
        # With shuffles on the nodes are born warm and take install_overlay,
        # so every row is appended one neighbour-up notification at a time.
        def flood(kernel):
            sim, _, nodes = build_static_flood_overlay(
                64, seed=9, shuffles=True, kernel=kernel, record_deliveries=True
            )
            nodes[0].inject(0, 0, 64)
            # The armed shuffle timers keep the heap busy: run a window.
            sim.run(until=sim.now + 1.0)
            return nodes, nodes[0].transport.metrics.records(0, 0)

        ref_nodes, ref_records = flood("object")
        nodes, records = flood(kernel)
        slot_kernel = nodes[0].kernel
        assert not slot_kernel.cold
        assert [slot_kernel.row(n.slot) for n in nodes] == [
            list(n.active) for n in nodes
        ]
        assert views(nodes) == views(ref_nodes)
        assert len(records) == len(nodes) - 1 and records == ref_records


# ----------------------------------------------------------------------
# (b) A static run wakes nobody
# ----------------------------------------------------------------------
class TestTripwire:
    @pytest.mark.parametrize("streams", [1, 4])
    @pytest.mark.parametrize("kernel", ARRAY_KERNELS)
    def test_static_run_leaves_the_population_cold(self, kernel, streams, monkeypatch):
        spec = RunSpec(stack="flood", kernel=kernel, nodes=128, messages=3,
                       streams=streams, seed=2)
        result, nodes = captured_run(spec, monkeypatch)
        assert result.delivered_fraction == 1.0
        awake = [node.node_id for node in nodes if not is_cold(node)]
        assert awake == []
        assert nodes[0].kernel.cold == {node.node_id for node in nodes}
        # A wake that armed a shuffle timer would never drain.
        assert nodes[0].clock.pending == 0

    def test_registry_holds_every_node_in_id_order(self):
        _, net, nodes = build_static_flood_overlay(40, seed=9, kernel="vectorized")
        assert list(net.nodes.values()) == nodes
        assert list(net.nodes) == sorted(net.nodes) == net.alive_ids()
        assert all(is_cold(node) for node in nodes)


# ----------------------------------------------------------------------
# (c) Wakes and timers
# ----------------------------------------------------------------------
class TestTimers:
    @pytest.mark.parametrize("kernel", ARRAY_KERNELS)
    def test_wake_with_autostart_restored_schedules_nothing(self, kernel):
        sim, net, nodes = build_static_flood_overlay(32, seed=4, kernel=kernel)
        assert net.autostart_timers  # every static run restores it
        pushes = sim._seq
        for node in nodes:
            assert_unarmed(node._shuffle_task, sim)
        assert sim._seq == pushes
        assert net.autostart_timers
        # Arming later works as for any deferred-timer bootstrap.
        nodes[0].start_timers()
        assert nodes[0]._shuffle_task.running and sim.pending == 1

    @pytest.mark.parametrize("kernel", ARRAY_KERNELS)
    def test_node_spawned_with_autostart_is_born_warm(self, kernel):
        sim, net, nodes = build_static_flood_overlay(32, seed=4, kernel=kernel)
        slot_kernel = nodes[0].kernel
        hpv = nodes[0].hpv_config
        joiner = net.spawn(lambda n, i: SlottedFloodNode(n, i, hpv, kernel=slot_kernel))
        assert "_tasks" in vars(joiner) and joiner.node_id not in slot_kernel.cold
        assert vars(joiner)["_shuffle_task"].running and sim.pending == 1
        net.autostart_timers = False
        cold = net.spawn(lambda n, i: SlottedFloodNode(n, i, hpv, kernel=slot_kernel))
        assert is_cold(cold) and sim.pending == 1
        # A joiner no store covers wakes with empty views.
        assert cold.active == {} and cold.passive == set()
        assert "_passive_provider" not in vars(cold)


# ----------------------------------------------------------------------
# (d) Everything that touches membership finds what it found before
# ----------------------------------------------------------------------
def views(nodes, passive=list) -> list:
    """Per-node ``(id, alive, active, passive)``, both views in iteration
    order (``passive=set``: a checkpoint stores the passive view sorted,
    so a restored one holds the same entries in another order)."""
    return [
        (node.node_id, node.alive, list(node.active), passive(node.passive))
        for node in nodes
    ]


def churn_scenario(kernel: str):
    """Crash a never-read node, let the notices land on its never-read
    neighbours, route a joiner through another never-read node."""
    sim, net, nodes = build_static_flood_overlay(64, seed=7, kernel=kernel)
    victim, contact = nodes[20], nodes[41]
    net.crash(victim.node_id)
    sim.run_until_idle()
    net.autostart_timers = False  # message-driven join only: the heap drains
    factory = flood_node_factory(
        kernel, net, contact.hpv_config, slot_kernel=getattr(contact, "kernel", None)
    )
    joiner = net.spawn(factory)
    joiner.join(contact.node_id)
    sim.run_until_idle()
    net.check_link_invariants()
    return sim, net, nodes, joiner


class TestMembershipEvents:
    @pytest.mark.parametrize("kernel", ARRAY_KERNELS)
    def test_crash_notice_and_join_match_the_object_kernel(self, kernel):
        _, ref_net, _, ref_joiner = churn_scenario("object")
        sim, net, nodes, joiner = churn_scenario(kernel)
        assert joiner.active and not nodes[20].alive
        assert views(net.nodes.values()) == views(ref_net.nodes.values())
        assert net.links == ref_net.links
        slot_kernel = joiner.kernel
        for node in net.nodes.values():
            if node.alive:
                assert slot_kernel.row(node.slot) == list(node.active)
        # Only who membership touched woke: ``views`` above read the rest.
        assert sim.pending == 0

    @pytest.mark.parametrize("kernel", ARRAY_KERNELS)
    def test_crash_wakes_only_who_it_touches(self, kernel):
        sim, net, nodes = build_static_flood_overlay(64, seed=7, kernel=kernel)
        victim = nodes[20]
        peers = set(net.links[victim.node_id])
        net.crash(victim.node_id)
        assert not victim.alive and not is_cold(victim)
        assert vars(victim)["active"] == {} and vars(victim)["_tasks"] == []
        sim.run_until_idle()
        # The failure detector woke the neighbours, then whoever they
        # asked for a replacement link; nobody else.
        awake = {node.node_id for node in nodes if not is_cold(node)}
        assert peers | {victim.node_id} <= awake and len(awake) < len(nodes) // 2
        for nid in peers:
            assert victim.node_id not in net.nodes[nid].active
        net.check_link_invariants()

    @pytest.mark.parametrize("kernel", ARRAY_KERNELS)
    def test_checkpoint_of_an_untouched_population_round_trips(self, kernel, tmp_path):
        _, _, twins = build_static_flood_overlay(48, seed=8)
        eager = load_overlay(save_overlay(twins, tmp_path / "eager.json"))
        _, _, nodes = build_static_flood_overlay(48, seed=8, kernel=kernel)
        assert all(is_cold(node) for node in nodes)
        saved = load_overlay(save_overlay(nodes, tmp_path / "cold.json"))
        assert saved == eager

        # Restored into a population that is itself cold.
        bed = _Testbed(seed=99)
        bed.populate(
            48, flood_node_factory(kernel, bed.network, nodes[0].hpv_config),
            bootstrap=str(tmp_path / "cold.json"), defer_timers=True, validate=True,
        )
        assert views(bed.nodes, set) == views(twins, set)
        slot_kernel = bed.nodes[0].kernel
        for node in bed.nodes:
            assert slot_kernel.row(node.slot) == list(node.active)
        bed.network.check_link_invariants()
        assert bed.sim.pending == 0

    @pytest.mark.parametrize("kernel", ARRAY_KERNELS)
    def test_audit_of_an_untouched_population(self, kernel):
        _, _, twins = build_static_flood_overlay(80, seed=10, topology="powerlaw")
        _, net, nodes = build_static_flood_overlay(
            80, seed=10, topology="powerlaw", kernel=kernel
        )
        assert audit_overlay(nodes) == audit_overlay(twins)
        assert assert_valid_overlay(nodes) == assert_valid_overlay(twins)
        assert views(nodes) == views(twins)
        net.check_link_invariants()

    def test_installing_a_checkpoint_over_cold_nodes(self, tmp_path):
        # install_checkpoint reads ``active`` first: each node wakes with
        # empty views (no store) and takes the fresh-node install.
        _, _, twins = build_static_flood_overlay(32, seed=11)
        checkpoint = load_overlay(save_overlay(twins, tmp_path / "o.json"))
        bed = _Testbed(seed=12)
        bed.network.autostart_timers = False
        fresh = bed.network.spawn_many(
            flood_node_factory("slotted", bed.network, twins[0].hpv_config), 32
        )
        assert all(is_cold(node) for node in fresh)
        install_checkpoint(fresh, bed.network, checkpoint)
        assert views(fresh, set) == views(twins, set)
        assert fresh[0].kernel._cold_views is None and not fresh[0].kernel.cold
