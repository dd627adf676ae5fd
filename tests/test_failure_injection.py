"""Failure-injection stress tests: BRISA under hostile conditions."""

import pytest

from repro.config import BrisaConfig, HyParViewConfig, StreamConfig
from repro.core.structure import extract_structure, is_complete_structure
from repro.experiments.common import build_brisa_testbed


class TestMassFailures:
    def test_simultaneous_40pct_failure(self):
        """§II-A: HyParView tolerates large correlated failures; BRISA's
        repairs must rebuild a complete structure on the survivors."""
        bed = build_brisa_testbed(64, seed=81)
        source = bed.choose_source()
        bed.start_stream(source, StreamConfig(count=400, rate=10.0, payload_bytes=64))
        bed.sim.run(until=bed.sim.now + 4.0)
        rng = bed.sim.rng("mass-kill")
        victims = rng.sample([n for n in bed.alive_nodes() if n is not source], 25)
        for v in victims:
            bed.network.crash(v.node_id)
        bed.sim.run(until=bed.sim.now + 36.0)
        survivors = bed.alive_nodes()
        assert len(survivors) == 64 - 25
        g = extract_structure(survivors, 0)
        ok, reason = is_complete_structure(g, source.node_id, set(bed.alive_ids()))
        assert ok, reason
        # Stream continuity: survivors recovered the full stream.
        injected = set(bed.metrics.streams[0].injections)
        for node in survivors:
            if node is source:
                continue
            missing = injected - node.streams[0].delivered
            assert len(missing) == 0, (node.node_id, sorted(missing)[:5])

    def test_repeated_waves_of_failures(self):
        bed = build_brisa_testbed(48, seed=82)
        source = bed.choose_source()
        bed.start_stream(source, StreamConfig(count=600, rate=10.0, payload_bytes=64))
        bed.sim.run(until=bed.sim.now + 3.0)
        rng = bed.sim.rng("waves")
        for wave in range(4):
            alive = [n for n in bed.alive_nodes() if n is not source]
            for v in rng.sample(alive, 4):
                bed.network.crash(v.node_id)
            bed.sim.run(until=bed.sim.now + 12.0)
        survivors = bed.alive_nodes()
        g = extract_structure(survivors, 0)
        ok, reason = is_complete_structure(g, source.node_id, set(bed.alive_ids()))
        assert ok, reason


class TestDroppedAccounting:
    def test_in_flight_messages_to_crashed_nodes_are_counted(self):
        """Messages racing a crash used to vanish silently; the TCP-reset
        path in ``Network._deliver`` now counts them under ``dropped``.
        Parents keep pushing to a dead child until failure detection
        kicks in (~1 keep-alive period), so a mid-stream mass failure
        must always produce drops."""
        bed = build_brisa_testbed(48, seed=86)
        source = bed.choose_source()
        bed.start_stream(source, StreamConfig(count=400, rate=10.0, payload_bytes=64))
        bed.sim.run(until=bed.sim.now + 4.0)
        assert bed.metrics.counters.get("dropped", 0) == 0
        rng = bed.sim.rng("drop-kill")
        for v in rng.sample([n for n in bed.alive_nodes() if n is not source], 12):
            bed.network.crash(v.node_id)
        bed.sim.run(until=bed.sim.now + 30.0)
        dropped = bed.metrics.counters["dropped"]
        assert dropped > 0
        # Drops stay bounded by the detection window: they stop once the
        # failure detector has fired everywhere, well below the total
        # message volume the survivors exchanged.
        total_msgs = sum(
            sum(per_phase.values()) for per_phase in bed.metrics.msg_counts.values()
        )
        assert dropped < total_msgs * 0.2


class TestJoinStorm:
    def test_burst_of_joiners_mid_stream(self):
        bed = build_brisa_testbed(32, seed=83)
        source = bed.choose_source()
        bed.start_stream(source, StreamConfig(count=300, rate=10.0, payload_bytes=64))
        bed.sim.run(until=bed.sim.now + 2.0)
        joiners = [bed.spawn_joiner() for _ in range(16)]
        bed.sim.run(until=bed.sim.now + 28.0)
        integrated = [j for j in joiners if j.alive and j.streams.get(0) and j.streams[0].parents]
        assert len(integrated) >= 14
        # The enlarged structure remains complete and acyclic.
        g = extract_structure(bed.alive_nodes(), 0)
        ok, reason = is_complete_structure(g, source.node_id, set(bed.alive_ids()))
        assert ok, reason


class TestDagUnderStress:
    def test_dag_masks_failures_without_interruption(self):
        """The §II-G promise: with 2 parents, a failed parent causes no
        delivery gap at all for nodes keeping their second parent."""
        cfg = BrisaConfig(mode="dag", num_parents=2)
        bed = build_brisa_testbed(48, seed=84, config=cfg)
        source = bed.choose_source()
        bed.start_stream(source, StreamConfig(count=400, rate=10.0, payload_bytes=64))
        bed.sim.run(until=bed.sim.now + 4.0)
        # Kill 6 random non-source nodes at once.
        rng = bed.sim.rng("dag-kill")
        for v in rng.sample([n for n in bed.alive_nodes() if n is not source], 6):
            bed.network.crash(v.node_id)
        bed.sim.run(until=bed.sim.now + 36.0)
        injected = set(bed.metrics.streams[0].injections)
        incomplete = [
            n.node_id for n in bed.alive_nodes()
            if n is not source and (injected - n.streams[0].delivered)
        ]
        assert not incomplete, incomplete

    def test_source_neighbors_all_fail(self):
        """Even the source's whole neighbourhood dying must not partition
        the dissemination: HyParView promotes passive replacements and the
        stream resumes.  Messages injected *during* the blackout age out
        of the bounded §II-F buffers and are legitimately lost (the paper
        itself protects the source in its churn experiments), so the
        assertions cover resumption and bounded loss, not perfection."""
        bed = build_brisa_testbed(48, seed=85)
        source = bed.choose_source()
        bed.start_stream(source, StreamConfig(count=500, rate=10.0, payload_bytes=64))
        bed.sim.run(until=bed.sim.now + 3.0)
        for peer in list(source.active):
            bed.network.crash(peer)
        # Run past the stream's 50 s injection span plus a drain.
        bed.sim.run(until=bed.sim.now + 60.0)
        assert len(source.active) >= 1, "source never recovered neighbours"
        receivers = [n for n in bed.alive_nodes() if n is not source]
        # Service resumed: the stream's final messages reach almost all.
        tail = range(490, 500)
        with_tail = sum(
            1 for n in receivers
            if all(seq in n.streams[0].delivered for seq in tail)
        )
        assert with_tail >= len(receivers) - 3
        # Loss is bounded by the blackout window, not unbounded decay.
        for n in receivers:
            assert len(n.streams[0].delivered) >= 400, n.node_id
