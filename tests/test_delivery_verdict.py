"""One delivery verdict (DESIGN.md §10, "Per-stream Metrics shards"):
every stack and kernel decides "first copy?" once, in the receiving
node's sequence record, and ``Metrics`` only books that verdict.

So on a jittered ``ClusterLatency`` bed in record mode, every live
receiver holds exactly one first-delivery record per seq its record
counts, and a source that hears its own message back books a duplicate,
never a delivery record.
"""

from __future__ import annotations

import pytest

from repro.baselines.plumtree import PlumTreeNode
from repro.baselines.pullgossip import PullGossipNode
from repro.config import HyParViewConfig, StreamConfig
from repro.core.brisa_slotted import SlottedBrisaKernel
from repro.experiments import common
from repro.experiments.common import (
    brisa_factory,
    build_gossip_testbed,
    build_simpletree_testbed,
    build_tag_testbed,
)
from repro.experiments.scale_flood import flood_node_factory
from repro.sim.latency import ClusterLatency

#: At this seed the flood, PlumTree, PullGossip and SimpleGossip beds
#: all echo their source.
N = 64
SEED = 2
HPV = HyParViewConfig(active_size=4)


def overlay_bed(factory, record_deliveries: bool = True) -> common.Testbed:
    """A HyParView join ramp of ``N`` nodes built by
    ``factory(network)`` over a jittered cluster."""
    bed = common.Testbed(
        seed=SEED, latency=ClusterLatency(seed=SEED),
        record_deliveries=record_deliveries,
    )
    bed.populate(N, factory(bed.network), settle=10.0)
    return bed


def flood(kernel: str):
    return lambda net: flood_node_factory(kernel, net, HPV)


def brisa(slotted: bool):
    return lambda net: brisa_factory(
        hpv_config=HPV, kernel=SlottedBrisaKernel(net) if slotted else None
    )


def over_hyparview(cls):
    return lambda net: (lambda network, nid: cls(network, nid, HPV))


#: stack -> () -> (bed, source); every bed records deliveries.
BEDS = {
    "flood-object": lambda: overlay_bed(flood("object")),
    "flood-slotted": lambda: overlay_bed(flood("slotted")),
    "flood-vectorized": lambda: overlay_bed(flood("vectorized")),
    "brisa-object": lambda: overlay_bed(brisa(False)),
    "brisa-slotted": lambda: overlay_bed(brisa(True)),
    "plumtree": lambda: overlay_bed(over_hyparview(PlumTreeNode)),
    "pullgossip": lambda: overlay_bed(over_hyparview(PullGossipNode)),
    "simplegossip": lambda: build_gossip_testbed(
        N, seed=SEED, latency=ClusterLatency(seed=SEED), settle=10.0
    ),
    "simpletree": lambda: build_simpletree_testbed(
        N, seed=SEED, latency=ClusterLatency(seed=SEED)
    )[0],
    "tag": lambda: build_tag_testbed(
        N, seed=SEED, latency=ClusterLatency(seed=SEED), settle=10.0
    )[0],
}

#: Beds whose source never hears its own message back: a tree pushes
#: away from its root, TAG's root pulls from nobody, and on these BRISA
#: beds every neighbour of the source has its first copy from it.
NO_ECHO = {"brisa-object", "brisa-slotted", "simpletree", "tag"}


def choose_source(stack: str, bed):
    # TAG's pulls flow child -> parent: the list head is the source.
    return bed.nodes[0] if stack == "tag" else bed.choose_source()


def run_counting_echoes(stack: str, bed, source) -> list:
    """Run a 20-message stream from ``source``; returns the data messages
    the source received back (its echoes)."""
    echoes = []
    handle = source.handle_message

    def counting(src, msg):
        if getattr(msg, "seq", None) is not None and hasattr(msg, "payload_bytes"):
            echoes.append(msg)
        handle(src, msg)

    source.handle_message = counting
    drain = 40.0 if stack == "tag" else 10.0
    stream = StreamConfig(count=20, rate=5.0, payload_bytes=1024)
    bed.run_stream(source, stream, drain=drain)
    return echoes


@pytest.mark.parametrize("stack", sorted(BEDS))
def test_each_receiver_holds_one_record_per_delivered_seq(stack):
    bed = BEDS[stack]()
    source = choose_source(stack, bed)
    echoes = run_counting_echoes(stack, bed, source)
    shard = bed.metrics.streams[0]
    records: dict[int, int] = {}
    for per_node in shard.deliveries.values():
        for node in per_node:
            records[node] = records.get(node, 0) + 1
    receivers = [node for node in bed.alive_nodes() if node is not source]
    assert sum(node.delivered_count(0) for node in receivers) > 0
    for node in receivers:
        assert records.get(node.node_id, 0) == node.delivered_count(0), node.node_id
    # The source's own message is never a first delivery, echoed or not.
    assert source.node_id not in records
    if stack not in NO_ECHO:
        assert echoes, "the bed must echo the source for this leg to bite"


@pytest.mark.parametrize("stack", ["brisa-object", "flood-object"])
def test_without_record_mode_no_delivery_is_kept(stack):
    """``record_deliveries=False`` keeps tallies only: the shard's
    ``deliveries`` stay empty, whatever the stack delivered."""
    factory = brisa(False) if stack == "brisa-object" else flood("object")
    bed = overlay_bed(factory, record_deliveries=False)
    bed.run_stream(bed.choose_source(), StreamConfig(count=20, rate=5.0))
    shard = bed.metrics.streams[0]
    assert shard.first_deliveries > 0 and shard.deliveries == {}
