"""Integration tests: dynamism handling — joins, soft/hard repairs,
message recovery (§II-F)."""

import pytest

from repro.config import BrisaConfig, StreamConfig
from repro.core.structure import is_complete_structure, extract_structure
from repro.experiments.common import build_brisa_testbed


def run_stream_with(bed, source, count=30, rate=5.0, payload=256):
    return bed.run_stream(source, StreamConfig(count=count, rate=rate, payload_bytes=payload))


class TestJoins:
    def test_new_node_integrates_into_structure(self):
        bed = build_brisa_testbed(32, seed=31)
        source = bed.choose_source()
        # Start the stream, then add a node mid-stream.
        bed.start_stream(source, StreamConfig(count=60, rate=5.0, payload_bytes=128))
        bed.sim.run(until=bed.sim.now + 3.0)
        joiner = bed.spawn_joiner()
        bed.sim.run(until=bed.sim.now + 20.0)
        state = joiner.streams.get(0)
        assert state is not None
        assert state.delivered, "joiner never received stream data"
        assert state.parents, "joiner never selected a parent"

    def test_joiner_links_start_active_then_get_pruned(self):
        bed = build_brisa_testbed(32, seed=32)
        source = bed.choose_source()
        bed.start_stream(source, StreamConfig(count=80, rate=5.0, payload_bytes=128))
        bed.sim.run(until=bed.sim.now + 3.0)
        joiner = bed.spawn_joiner()
        bed.sim.run(until=bed.sim.now + 25.0)
        state = joiner.streams.get(0)
        # §II-F: inbound links start active, then pruning (the joiner's
        # own Deactivates plus the neighbours' symmetric marking) leaves a
        # single effective provider: count peers that would still relay.
        effective = [
            peer
            for peer, active in state.in_active.items()
            if active
            and joiner.node_id
            not in bed.node(peer).streams[0].out_deactivated
        ]
        assert len(effective) <= 1
        assert state.parents and set(state.parents) <= set(effective)


class TestParentFailure:
    def _orphan_one(self, seed=41, mode="tree", num_parents=1):
        cfg = BrisaConfig(mode=mode, num_parents=num_parents)
        bed = build_brisa_testbed(48, seed=seed, config=cfg)
        source = bed.choose_source()
        bed.start_stream(source, StreamConfig(count=120, rate=5.0, payload_bytes=128))
        bed.sim.run(until=bed.sim.now + 5.0)
        # Pick a node whose parent is not the source and kill the parent.
        victim_parent = None
        child = None
        for node in bed.alive_nodes():
            if node is source:
                continue
            parents = node.tree_parents(0)
            if parents and parents[0] != source.node_id:
                child = node
                victim_parent = parents[0]
                break
        assert victim_parent is not None
        bed.network.crash(victim_parent)
        bed.sim.run(until=bed.sim.now + 25.0)
        return bed, source, child, victim_parent

    def test_orphan_recovers_parent(self):
        bed, source, child, dead = self._orphan_one()
        assert child.alive
        state = child.streams[0]
        assert state.parents, "orphan failed to find a replacement parent"
        assert dead not in state.parents

    def test_orphan_event_and_repair_recorded(self):
        bed, source, child, dead = self._orphan_one(seed=42)
        assert any(n == child.node_id for _, n in bed.metrics.parent_losses)
        assert any(n == child.node_id for _, n in bed.metrics.orphan_events)
        repairs = [r for r in bed.metrics.repair_events if r.node == child.node_id]
        assert repairs, "no repair event recorded"
        assert repairs[0].kind in ("soft", "hard")
        assert repairs[0].duration >= 0.0

    def test_structure_complete_after_repair(self):
        bed, source, child, dead = self._orphan_one(seed=43)
        g = extract_structure(bed.alive_nodes(), 0)
        ok, reason = is_complete_structure(g, source.node_id, set(bed.alive_ids()))
        assert ok, reason

    def test_stream_continuity_after_repair(self):
        """All injected messages eventually reach the orphan (§II-F message
        recovery from the new parent's buffer)."""
        bed, source, child, dead = self._orphan_one(seed=44)
        state = child.streams[0]
        injected = set(bed.metrics.streams[0].injections)
        missing = injected - state.delivered
        assert not missing, f"orphan missed messages: {sorted(missing)[:10]}"

    def test_dag_parent_loss_rarely_orphans(self):
        """§III-C: with 2 parents a single failure leaves service intact."""
        cfg = BrisaConfig(mode="dag", num_parents=2)
        bed = build_brisa_testbed(48, seed=45, config=cfg)
        source = bed.choose_source()
        bed.start_stream(source, StreamConfig(count=120, rate=5.0, payload_bytes=128))
        bed.sim.run(until=bed.sim.now + 5.0)
        child = next(
            n for n in bed.alive_nodes()
            if n is not source and len(n.tree_parents(0)) == 2
        )
        dead = child.tree_parents(0)[0]
        orphans_before = len(bed.metrics.orphan_events)
        bed.network.crash(dead)
        bed.sim.run(until=bed.sim.now + 20.0)
        # The child kept its other parent: it never became an orphan.
        child_orphans = [
            n for _, n in bed.metrics.orphan_events[orphans_before:]
            if n == child.node_id
        ]
        assert not child_orphans
        assert child.tree_parents(0), "child lost all parents unexpectedly"


class TestHardRepair:
    def test_hard_repair_when_no_eligible_neighbor(self):
        """Force a hard repair by making every neighbour a descendant:
        use a 3-node chain source -> a -> b where b's only other links go
        through its own subtree (none)."""
        from repro.config import HyParViewConfig

        # Tiny overlay: with 4 nodes and active_size 2 chains are likely;
        # search seeds until we find a node whose only non-parent
        # neighbours are its descendants.
        for seed in range(50, 70):
            hpv = HyParViewConfig(active_size=2, expansion_factor=1.0)
            bed = build_brisa_testbed(8, seed=seed, hpv_config=hpv)
            source = bed.choose_source()
            bed.start_stream(source, StreamConfig(count=100, rate=10.0, payload_bytes=32))
            bed.sim.run(until=bed.sim.now + 4.0)
            for node in bed.alive_nodes():
                if node is source:
                    continue
                state = node.streams.get(0)
                if not state or not state.parents:
                    continue
                parent = next(iter(state.parents))
                if parent == source.node_id:
                    continue
                # Check all other neighbours are descendants (their paths
                # contain this node).
                others = [p for p in node.active if p != parent]
                if not others:
                    continue
                descendants = all(
                    node.node_id in (bed.node(p).streams.get(0).position or ())
                    for p in others
                    if bed.node(p).streams.get(0) is not None
                )
                if descendants and others:
                    bed.network.crash(parent)
                    bed.sim.run(until=bed.sim.now + 30.0)
                    hard = [
                        r for r in bed.metrics.repair_events if r.kind == "hard"
                    ]
                    if hard:
                        assert hard[0].duration >= 0
                        return
        pytest.skip("no hard-repair topology found in seed range (soft repairs sufficed)")

    def test_reactivate_order_wave_converges(self):
        """After any repair storm the structure must re-stabilize into a
        complete, acyclic tree."""
        bed = build_brisa_testbed(48, seed=61)
        source = bed.choose_source()
        bed.start_stream(source, StreamConfig(count=200, rate=10.0, payload_bytes=64))
        bed.sim.run(until=bed.sim.now + 4.0)
        rng = bed.sim.rng("chaos")
        victims = [
            n.node_id for n in rng.sample(
                [x for x in bed.alive_nodes() if x is not source], 8
            )
        ]
        for i, v in enumerate(victims):
            bed.sim.schedule(i * 0.8, bed.network.crash, v)
        bed.sim.run(until=bed.sim.now + 40.0)
        g = extract_structure(bed.alive_nodes(), 0)
        ok, reason = is_complete_structure(g, source.node_id, set(bed.alive_ids()))
        assert ok, reason


class TestRetransmission:
    def test_retransmit_fills_gaps_from_buffer(self):
        """A node disconnected mid-stream recovers the missed interval."""
        cfg = BrisaConfig(buffer_size=256)
        bed = build_brisa_testbed(32, seed=71, config=cfg)
        source = bed.choose_source()
        bed.start_stream(source, StreamConfig(count=150, rate=10.0, payload_bytes=64))
        bed.sim.run(until=bed.sim.now + 4.0)
        child = next(
            n for n in bed.alive_nodes()
            if n is not source and n.tree_parents(0) and n.tree_parents(0)[0] != source.node_id
        )
        parent = child.tree_parents(0)[0]
        bed.network.crash(parent)
        bed.sim.run(until=bed.sim.now + 30.0)
        state = child.streams[0]
        injected = set(bed.metrics.streams[0].injections)
        assert injected <= state.delivered
        assert bed.metrics.msg_counts.get("brisa_retransmit", {})
