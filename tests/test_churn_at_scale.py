"""Churn-at-scale: driver determinism, CSR crash purging, link leaks.

Covers the churn half of the PR-4 tentpole (DESIGN.md §9): the
:class:`ChurnDriver` must be schedule-deterministic per seed across both
flood kernels, :meth:`Network.crash` must purge CSR-installed links in
both directions, slotted slots must recycle cleanly, and the
accept-after-notice link leak (a ``NeighborAccept`` processed after its
sender's crash notice already fired used to re-register a permanent link
to the dead node) must stay fixed.
"""

from __future__ import annotations

import pytest

from repro.baselines.flood import SlottedFloodNode
from repro.errors import SimulationError
from repro.experiments.scale_flood import (
    build_static_flood_overlay,
    flood_node_factory,
)
from repro.experiments.scale_runner import RunSpec, run_spec
from repro.membership.hyparview import HyParViewNode
from repro.sim.churn import ChurnDriver
from repro.sim.engine import Simulator
from repro.sim.latency import ConstantLatency
from repro.sim.monitor import Metrics
from repro.sim.network import Network
from repro.sim.trace import ConstChurn, Trace


def churned_overlay(kernel: str, n: int = 256, *, seed: int = 7,
                    percent: float = 10.0, periods: int = 5):
    """Static overlay + ChurnDriver run to idle; returns (sim, net, nodes, driver)."""
    sim, net, nodes = build_static_flood_overlay(n, seed=seed, kernel=kernel)
    net.autostart_timers = False  # joiners stay message-driven: heap drains
    factory = flood_node_factory(
        kernel, net, nodes[0].hpv_config,
        slot_kernel=getattr(nodes[0], "kernel", None),
    )

    def join_fn():
        node = net.spawn(factory)
        node.join(nodes[0].node_id)
        return node

    period = 2.0
    trace = Trace((ConstChurn(0.0, period * periods, percent, period),))
    driver = ChurnDriver(sim, net, trace, join_fn, protected=(nodes[0].node_id,))
    driver.apply()
    sim.run_until_idle()
    return sim, net, nodes, driver


class TestChurnDeterminism:
    def test_same_seed_produces_identical_schedules(self):
        _, _, _, a = churned_overlay("object", seed=3)
        _, _, _, b = churned_overlay("object", seed=3)
        assert a.stats.kills == b.stats.kills > 0
        assert a.stats.kill_times == b.stats.kill_times
        assert a.stats.join_times == b.stats.join_times

    def test_schedules_identical_across_kernels(self):
        """The kill/join schedule must not depend on the delivery kernel:
        slot recycling and CSR purging agree with Network.crash."""
        _, _, _, a = churned_overlay("object", seed=5)
        _, _, _, b = churned_overlay("slotted", seed=5)
        assert a.stats.kills == b.stats.kills > 0
        assert a.stats.kill_times == b.stats.kill_times
        assert a.stats.join_times == b.stats.join_times

    @pytest.mark.parametrize("kernel", ["object", "slotted"])
    def test_scale_churn_run_is_reproducible(self, kernel):
        a = run_spec(RunSpec(
            nodes=256, messages=6, seed=13, kernel=kernel, churn_percent=6.0,
        ))
        b = run_spec(RunSpec(
            nodes=256, messages=6, seed=13, kernel=kernel, churn_percent=6.0,
        ))
        for field in ("deliveries", "receptions", "events", "sim_time",
                      "kills", "joins", "survivors", "delivered_fraction"):
            assert getattr(a, field) == getattr(b, field), field
        assert a.kills > 0

    def test_survivor_delivery_stays_high_under_churn(self):
        """The headline acceptance shape (the xl run is the CI smoke):
        survivors of a churned stream still see ≥99% of it."""
        for kernel in ("object", "slotted"):
            result = run_spec(RunSpec(
                nodes=512, messages=10, seed=3, kernel=kernel, churn_percent=2.0,
            ))
            assert result.kills > 0
            assert result.survivors < 511
            assert result.delivered_fraction >= 0.99


class TestMultiStreamChurnAtScale:
    """Multi-stream churn at the xl rung (DESIGN.md §10): 4 concurrent
    publishers over a 10k slotted overlay losing 1% of the population
    mid-stream — every stream must still reach ≥99% of its surviving
    audience, on recycled slot planes."""

    def test_xl_multistream_churn_slotted(self):
        result = run_spec(RunSpec(
            nodes=10_000, messages=6, rate=20.0, seed=3, kernel="slotted",
            churn_percent=1.0, streams=4,
        ))
        assert result.streams == 4
        assert result.kills > 0
        assert result.survivors < 10_000 - 1
        assert len(result.per_stream) == 4
        # Sources are spread over the population, all protected.
        assert len({row["source"] for row in result.per_stream}) == 4
        for row in result.per_stream:
            assert row["delivered_fraction"] >= 0.99, row
        assert result.delivered_fraction >= 0.99

    def test_multistream_churn_is_reproducible(self):
        a = run_spec(RunSpec(
            nodes=256, messages=5, seed=21, kernel="slotted", churn_percent=6.0, streams=3,
        ))
        b = run_spec(RunSpec(
            nodes=256, messages=5, seed=21, kernel="slotted", churn_percent=6.0, streams=3,
        ))
        assert a.per_stream == b.per_stream
        assert a.kills == b.kills > 0
        assert a.events == b.events


class TestCrashPurgesCsrLinks:
    """Network.crash on overlays wired through register_links_csr
    (regression coverage for the PR-4 audit — both directions must go)."""

    @pytest.mark.parametrize("kernel", ["object", "slotted"])
    def test_crash_purges_links_in_both_directions(self, kernel):
        sim, net, nodes = build_static_flood_overlay(64, seed=2, kernel=kernel)
        victim = nodes[7]
        peers = list(victim.active)
        assert peers and all(net.linked(victim.node_id, p) for p in peers)
        net.crash(victim.node_id)
        assert victim.node_id not in net.links
        for nid, linkset in net.links.items():
            assert victim.node_id not in linkset, f"stale reverse link at {nid}"
        # After the failure notices fire, no surviving view holds the dead node.
        sim.run_until_idle()
        for p in peers:
            assert victim.node_id not in nodes[p].active
        net.check_link_invariants()

    @pytest.mark.parametrize("kernel", ["object", "slotted"])
    def test_link_invariants_hold_after_heavy_churn(self, kernel):
        sim, net, nodes, driver = churned_overlay(kernel, seed=11, percent=12.0)
        assert driver.stats.kills > 0
        net.check_link_invariants()
        for node in net.nodes.values():
            if node.alive:
                for peer in node.active:
                    assert net.alive(peer), f"dead peer {peer} pinned in a view"

    def test_check_link_invariants_detects_violations(self):
        sim = Simulator(seed=1)
        net = Network(sim, ConstantLatency(0.001), Metrics())
        a = net.spawn(lambda n, i: HyParViewNode(n, i))
        b = net.spawn(lambda n, i: HyParViewNode(n, i))
        net.register_link(a.node_id, b.node_id)
        net.check_link_invariants()
        net.links[a.node_id].add(99)  # dangling one-directional entry
        with pytest.raises(SimulationError):
            net.check_link_invariants()


class TestSlotRecycling:
    def test_crashed_slot_is_recycled_zeroed(self):
        sim, net, nodes = build_static_flood_overlay(32, seed=4, kernel="slotted")
        kernel = nodes[0].kernel
        source, victim = nodes[0], nodes[9]
        source.inject(0, 0, 128)
        sim.run_until_idle()
        slot = victim.slot
        assert kernel.plane(0).delivered[slot] == 1
        net.crash(victim.node_id)
        assert victim.node_id not in kernel.slot_of
        assert kernel.slot_delivered(slot) == 0
        assert kernel.slot_duplicates(slot) == 0
        assert kernel.row(slot) == []
        # The next joiner takes over the freed slot with a clean seen map.
        hpv = source.hpv_config
        joiner = net.spawn(lambda n, i: SlottedFloodNode(n, i, hpv, kernel=kernel))
        assert joiner.slot == slot
        assert joiner.delivered_count(0) == 0

    def test_fresh_nodes_extend_all_arrays(self):
        sim, net, nodes = build_static_flood_overlay(16, seed=6, kernel="slotted")
        kernel = nodes[0].kernel
        nodes[0].inject(0, 0, 64)
        sim.run_until_idle()
        hpv = nodes[0].hpv_config
        joiner = net.spawn(lambda n, i: SlottedFloodNode(n, i, hpv, kernel=kernel))
        assert kernel.capacity == 17
        assert joiner.slot == 16
        # Existing planes (seen maps + counters) grew to cover the slot.
        for plane in kernel.planes:
            assert len(plane.delivered) == 17
            for row in plane.rows:
                assert len(row) == 17
        assert joiner.delivered_count(0) == 0

    def test_crashed_slot_is_recycled_zeroed_in_every_plane(self):
        """Multi-stream slot-plane recycling (DESIGN.md §10): a crash
        must zero the slot's cells in *every* stream plane before a
        churn joiner can inherit it."""
        sim, net, nodes = build_static_flood_overlay(32, seed=4, kernel="slotted")
        kernel = nodes[0].kernel
        victim = nodes[9]
        for stream, source in enumerate(nodes[:3]):
            source.inject(stream, 0, 128)
        sim.run_until_idle()
        slot = victim.slot
        assert len(kernel.planes) == 3
        for stream in range(3):
            assert kernel.plane(stream).delivered[slot] == 1
        assert victim.delivered_count(1) == 1
        net.crash(victim.node_id)
        for plane in kernel.planes:
            assert plane.delivered[slot] == 0
            assert plane.duplicates[slot] == 0
            for row in plane.rows:
                assert row[slot] == 0
        hpv = nodes[0].hpv_config
        joiner = net.spawn(lambda n, i: SlottedFloodNode(n, i, hpv, kernel=kernel))
        assert joiner.slot == slot
        for stream in range(3):
            assert joiner.delivered_count(stream) == 0


class TestBrisaSlottedChurn:
    """Churn against the slotted BRISA kernel (DESIGN.md §11): a crashed
    node keeps no stream state — the maintenance cache lives on it — and
    reads as having delivered nothing, whoever joins after it."""

    @staticmethod
    def overlay(n: int = 96, *, seed: int = 3, predictor: str = "bloom",
                kernel: str = "slotted"):
        from repro.config import BrisaConfig
        from repro.core.brisa_slotted import SlottedBrisaKernel
        from repro.experiments.common import Testbed, brisa_factory

        if predictor == "bloom":
            cfg = BrisaConfig(mode="dag", num_parents=2,
                              cycle_predictor="bloom", bloom_bits=256)
        else:
            cfg = BrisaConfig(mode="tree")
        bed = Testbed(seed=seed, latency=ConstantLatency(0.001, seed=seed),
                      record_deliveries=False)
        slot_kernel = (
            SlottedBrisaKernel(bed.network, cfg) if kernel == "slotted" else None
        )
        factory = brisa_factory(cfg, kernel=slot_kernel)
        bed.populate(n, factory, bootstrap="synthesized", validate=True,
                     defer_timers=True)
        bed.stop_shuffles()
        return bed, factory

    @pytest.mark.parametrize("kernel", ["object", "slotted"])
    def test_crashed_node_reads_no_deliveries(self, kernel):
        bed, factory = self.overlay(64, seed=3, predictor="tree", kernel=kernel)
        sim, net = bed.sim, bed.network
        source = bed.nodes[0]

        def publish(first_seq: int) -> None:
            for i in range(3):
                sim.call_at(sim.now + i / 50.0, source.inject, 0, first_seq + i, 64)
            sim.run_until_idle()

        publish(0)
        victim = bed.nodes[17]
        assert victim.delivered_count(0) == 3
        assert victim.tree_parents(0)
        net.crash(victim.node_id)
        sim.run_until_idle()  # failure notices + repairs settle
        net.autostart_timers = False
        joiner = net.spawn(factory)
        joiner.join(source.node_id)
        sim.run_until_idle()
        publish(3)
        # The joiner recovers the first three from its parent's buffer.
        assert joiner.delivered_count(0) == 6
        # The dead node reads as its own teardown left it, not as the
        # joiner's deliveries.
        assert victim.delivered_count(0) == 0
        assert victim.streams == {}
        assert victim.tree_parents(0) == []
        net.check_link_invariants()

    def test_driver_churn_keeps_invariants_on_slotted_brisa(self):
        """A full ChurnDriver episode over the slotted BRISA stack:
        kill/join schedule applies cleanly, link invariants hold, and no
        surviving view pins a dead peer."""
        bed, factory = self.overlay(n=128, seed=9, predictor="tree")
        sim, net = bed.sim, bed.network
        net.autostart_timers = False
        source = bed.nodes[0]
        for seq in range(4):
            sim.call_at(sim.now + seq / 50.0, source.inject, 0, seq, 64)

        def join_fn():
            node = net.spawn(factory)
            node.join(source.node_id)
            return node

        trace = Trace((ConstChurn(0.0, 4.0, 8.0, 2.0),))
        driver = ChurnDriver(sim, net, trace, join_fn,
                             protected=(source.node_id,))
        driver.apply()
        sim.run_until_idle()
        assert driver.stats.kills > 0
        net.check_link_invariants()
        dead = [node for node in bed.nodes if not node.alive]
        assert dead
        assert all(node.streams == {} for node in dead)
        for node in net.nodes.values():
            if node.alive:
                for peer in node.active:
                    assert net.alive(peer), f"dead peer {peer} pinned in a view"


class TestAcceptAfterNoticeLeak:
    """A NeighborAccept landing after its sender's crash notice has fired
    used to re-register the link with nothing left in flight to reset it
    — a permanent ``links`` entry for a dead node plus a dead peer pinned
    in the survivor's active view (reachable whenever delivery delay
    exceeds the keep-alive detection delay, e.g. under occupancy
    backlog).  ``register_link`` now refuses dead endpoints and routes
    the live side through the regular failure-detection path instead."""

    def test_accept_after_notice_does_not_leak(self):
        sim = Simulator(seed=5)
        # Propagation (2 s) far beyond the detection delay (≤0.15 s):
        # the notice always beats the crossing NeighborAccept.
        net = Network(sim, ConstantLatency(2.0), Metrics(), keepalive_period=0.1)
        net.autostart_timers = False
        a = net.spawn(lambda n, i: HyParViewNode(n, i))
        b = net.spawn(lambda n, i: HyParViewNode(n, i))
        a.passive.add(b.node_id)
        a._maybe_replace()          # A → Neighbor(B), arrives at t=2
        sim.run(until=2.5)          # B accepted: link up, accept in flight
        assert b.node_id in net.links
        net.crash(b.node_id)        # notice to A ≈ t=2.55–2.65 < accept t=4
        sim.run_until_idle()
        assert b.node_id not in a.active
        assert b.node_id not in net.links
        for linkset in net.links.values():
            assert b.node_id not in linkset
        net.check_link_invariants()

    def test_register_link_with_dead_peer_notifies_live_side(self):
        sim = Simulator(seed=8)
        net = Network(sim, ConstantLatency(0.001), Metrics(), keepalive_period=0.1)
        net.autostart_timers = False  # no shuffle timers: the heap drains
        a = net.spawn(lambda n, i: HyParViewNode(n, i))
        b = net.spawn(lambda n, i: HyParViewNode(n, i))
        net.crash(b.node_id)
        net.register_link(a.node_id, b.node_id)
        assert not net.links  # connect to a dead host records nothing
        a.active[b.node_id] = None  # what a confused caller would hold
        sim.run_until_idle()
        assert b.node_id not in a.active  # failure path cleaned it up
