"""Tests for the SimpleGossip baseline (§III-D)."""

import pytest

from repro.config import GossipConfig, StreamConfig
from repro.experiments.common import build_gossip_testbed


def gossip_run(n=48, msgs=20, seed=3, fanout=0, drain=20.0):
    cfg = GossipConfig(fanout=fanout)
    bed = build_gossip_testbed(n, seed=seed, gossip_config=cfg)
    source = bed.choose_source()
    result = bed.run_stream(
        source,
        StreamConfig(count=msgs, rate=5.0, payload_bytes=128),
        drain=drain,
    )
    return bed, source, result


class TestCompleteness:
    def test_push_plus_anti_entropy_reaches_everyone(self):
        bed, source, result = gossip_run()
        assert result.delivered_fraction() == 1.0

    def test_low_fanout_still_complete_thanks_to_anti_entropy(self):
        """With fanout 2 the push phase misses many nodes; the pull phase
        must fill the gaps (the Demers completeness argument)."""
        bed, source, result = gossip_run(fanout=2, drain=40.0)
        assert result.delivered_fraction() == 1.0


class TestDuplicates:
    def test_gossip_generates_many_duplicates(self):
        """§I: 'The cost is increased bandwidth and processor usage due to
        duplicates' — fanout ln(N) pushes several copies to every node."""
        bed, source, result = gossip_run()
        dups = result.duplicates_per_node()
        assert sum(dups) / len(dups) > 20  # >1 duplicate per message

    def test_anti_entropy_repairs_are_not_repushed(self):
        """Infect-and-die: cold (anti-entropy) rumors must not re-trigger
        fanout pushes, otherwise old messages circulate forever."""
        bed, source, result = gossip_run(n=24, msgs=10, seed=4, drain=30.0)
        # After the drain, no rumor traffic should remain in flight: the
        # pending event queue contains only periodic timers.
        sends_a = sum(bed.metrics.msg_counts["sg_rumor"].values())
        bed.sim.run(until=bed.sim.now + 10.0)
        sends_b = sum(bed.metrics.msg_counts["sg_rumor"].values())
        assert sends_b == sends_a


class TestStoreConsistency:
    def test_store_matches_recorded_deliveries(self):
        bed, source, result = gossip_run(n=24, msgs=10, seed=5)
        for node in bed.alive_nodes():
            if node is source:
                continue
            assert node.delivered_count(0) == 10

    def test_high_water_mark_tracks_contiguous_prefix(self):
        bed, source, result = gossip_run(n=24, msgs=10, seed=6)
        for node in bed.alive_nodes():
            per = node.store.get(0, {})
            hwm = node.seqs[0].max_contig
            assert all(s in per for s in range(hwm + 1))
            assert node.seqs[0].delivered == set(per)


class TestDigestAccounting:
    def test_digest_traffic_present_and_bounded(self):
        bed, source, result = gossip_run(n=24, msgs=10, seed=7)
        digests = sum(bed.metrics.msg_counts["sg_digest"].values())
        assert digests > 0
        # Anti-entropy runs at 10 Hz per node: digest count is bounded by
        # nodes * rate * runtime (plus joins), not quadratic.
        runtime = bed.sim.now
        assert digests <= 24 * (runtime / 0.1) * 1.2
