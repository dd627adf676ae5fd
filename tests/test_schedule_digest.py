"""Golden digests of the per-destination delivery plan (DESIGN.md §2).

``ClusterLatency`` and ``PlanetLabLatency`` runs sample every message's
delay, FIFO-clamp it per pair and queue it behind the receiver's
occupancy horizon; every ``repro run`` artifact goes through that plan.
A change that claims to move only the simulator's cost must leave those
schedules exactly where they were.  Each digest hashes what one such run
decides: the engine counters, the final clock, message counts by kind,
the bytes sent, and every first delivery ``(stream, seq, node, time)``.

Four beds: a 64-node Table I churn bed (``ClusterLatency``, tree mode —
the join ramp, timers, kills, joiners and soft repair), the same bed in
DAG mode (two parents, depth labels: demotions, ``DepthUpdate`` pushes,
cycle drops, soft and hard repair), a static 64-node BRISA stream over
``PlanetLabLatency`` (the Fig. 9 / Fig. 13 model) and a static 64-node
Bloom-filter DAG (``BloomUpdate`` growth pushes).  The DAG and Bloom beds
pin the predictor-specific steps of §II-D / §II-G.  A fifth bed, a flood
overlay wired from CSR arrays and churned on the fused plan, pins the
link registry's failure notices and keep-alive books (DESIGN.md §8,
"The link registry stays in the arrays").  When a change
*means* to move a schedule, re-pin the digest and say why in the commit
message.

The same beds, plus the kernel parity harness's lossy tail-probe DAG,
also check the maintenance cache (DESIGN.md §11): a cached run and a
cache-free run of one bed must agree draw for draw.
"""

from __future__ import annotations

import hashlib
import json
from types import SimpleNamespace

import pytest

from repro.config import BrisaConfig, HyParViewConfig, StreamConfig
from repro.experiments import robustness
from repro.experiments.common import build_brisa_testbed
from repro.experiments.scale_flood import build_static_flood_overlay, flood_node_factory
from repro.sim.churn import ChurnDriver
from repro.sim.latency import PlanetLabLatency
from repro.sim.monitor import DISSEMINATION
from repro.sim.trace import ConstChurn, Trace
from tests.helpers import assert_brisa_state_consistent, cache_free
from tests.test_slotted_parity import brisa_run, brisa_structure_snapshot, snapshot

N = 64


def schedule_digest(bed) -> tuple[dict, str]:
    """(readable summary, SHA-256 of everything the run decided)."""
    sim, metrics = bed.sim, bed.metrics
    deliveries = sorted(
        (stream, seq, node, round(record.time, 12))
        for stream, shard in metrics.streams.items()
        for seq, per_node in shard.deliveries.items()
        for node, record in per_node.items()
    )
    summary = {
        "events": sim.events_processed,
        "peak_pending": sim.peak_pending,
        "now": repr(sim.now),
        "msg_counts": {
            kind: sum(per_phase.values())
            for kind, per_phase in sorted(metrics.msg_counts.items())
        },
        "bytes_sent": metrics.total_bytes(),
        "deliveries": len(deliveries),
    }
    blob = json.dumps([summary, deliveries], sort_keys=True).encode()
    return summary, hashlib.sha256(blob).hexdigest()


def table1_churn_bed(mode: str):
    """The 64-node Table I churn bed (``ClusterLatency``): tree mode at
    seed 11, DAG mode (two parents, depth labels) at seed 2.  Mode
    ``delay-aware`` is the tree bed with the delay-aware parent strategy
    over ``PlanetLabLatency``: its repairs score the path-delay EMA that
    the maintenance cache keeps current."""
    extra = {}
    if mode == "tree":
        seed, config = 11, BrisaConfig(mode="tree", num_parents=1)
    elif mode == "delay-aware":
        seed, config = 11, BrisaConfig(strategy="delay-aware")
        extra["latency"] = PlanetLabLatency(seed=seed)
    else:
        seed, config = 2, BrisaConfig(mode="dag", num_parents=2, cycle_predictor="depth")
    bed = build_brisa_testbed(
        N,
        seed=seed,
        config=config,
        hpv_config=HyParViewConfig(active_size=4),
        join_spacing=0.05,
        settle=10.0,
        **extra,
    )
    source = bed.choose_source()
    _, _, driver = robustness._run_churn(
        bed, source, churn_percent=5.0, duration=15.0, period=5.0, lead=5.0, drain=5.0
    )
    assert driver.stats.kills > 0 and driver.stats.joins > 0
    return bed


def static_stream_bed(kind: str):
    """A static 64-node stream of 20 messages at seed 4: tree mode over
    ``PlanetLabLatency`` (``planetlab``) or a Bloom-filter DAG over the
    default cluster model (``bloom``)."""
    if kind == "planetlab":
        extra = {"latency": PlanetLabLatency(seed=4)}
    else:
        extra = {
            "config": BrisaConfig(
                mode="dag", num_parents=2, cycle_predictor="bloom", bloom_bits=256
            )
        }
    bed = build_brisa_testbed(
        N,
        seed=4,
        hpv_config=HyParViewConfig(active_size=4),
        join_spacing=0.05,
        settle=10.0,
        **extra,
    )
    source = bed.choose_source()
    bed.run_stream(source, StreamConfig(count=20, rate=5.0, payload_bytes=1024), drain=10.0)
    return bed


def flood_churn_bed():
    """A 192-node flood bed wired from the synthesizer's CSR (slotted
    kernel, deliveries recorded) streaming 40 messages while 10 % of the
    population fails every 2 s for 8 s.  Each crash draws one
    failure-notice delay per peer, in its peer set's order, and joiners
    link one by one; keep-alives are charged at the end.  Returns the
    bed and the digest of its final link registry (keys and every peer
    set, in iteration order)."""
    sim, net, nodes = build_static_flood_overlay(
        192, seed=5, kernel="slotted", record_deliveries=True
    )
    source = nodes[0]
    net.autostart_timers = False  # message-driven joins: the heap drains
    factory = flood_node_factory(
        "slotted", net, source.hpv_config, slot_kernel=source.kernel
    )

    def join_fn():
        node = net.spawn(factory)
        node.join(source.node_id)
        return node

    trace = Trace((ConstChurn(0.0, 8.0, 10.0, 2.0),))
    driver = ChurnDriver(sim, net, trace, join_fn, protected=(source.node_id,))
    driver.apply()
    for seq in range(40):
        sim.call_at(0.25 * seq, source.inject, 0, seq, 512)
    sim.run_until_idle()
    assert driver.stats.kills > 0 and driver.stats.joins > 0
    net.account_keepalives(DISSEMINATION, sim.now)
    links = json.dumps([(nid, list(net.links[nid])) for nid in list(net.links)])
    bed = SimpleNamespace(sim=sim, metrics=net.metrics)
    return bed, hashlib.sha256(links.encode()).hexdigest()


def assert_pinned(bed, golden) -> dict:
    """The bed's schedule is the golden one, and the object kernel's
    per-stream state holds its invariants with the maintenance cache in
    use (primed somewhere)."""
    summary, digest = schedule_digest(bed)
    assert summary == golden[0]
    assert digest == golden[1]
    assert assert_brisa_state_consistent(bed, 1) > 0
    return summary


def test_table1_churn_bed_schedule_is_pinned():
    assert_pinned(table1_churn_bed("tree"), GOLDEN_CHURN)


def test_table1_dag_churn_bed_schedule_is_pinned():
    bed = table1_churn_bed("dag")
    assert [event.kind for event in bed.metrics.repair_events] == ["hard"]
    summary = assert_pinned(bed, GOLDEN_DAG_CHURN)
    assert summary["msg_counts"]["brisa_depth_update"] > 0


def test_csr_flood_churn_bed_schedule_is_pinned():
    bed, links = flood_churn_bed()
    assert schedule_digest(bed) == GOLDEN_FLOOD_CHURN
    assert links == "0bb1a1e749fc32408c1541721af5963aca3ee9cc592560f23b3500700dc40379"


def test_planetlab_static_stream_schedule_is_pinned():
    assert_pinned(static_stream_bed("planetlab"), GOLDEN_PLANETLAB)


def test_bloom_static_dag_schedule_is_pinned():
    summary = assert_pinned(static_stream_bed("bloom"), GOLDEN_BLOOM)
    assert summary["msg_counts"]["brisa_bloom_update"] > 0


#: The cached-vs-cache-free beds: the four golden beds, the lossy
#: tail-probe DAG of the kernel parity harness (96 nodes, 15 % loss,
#: seed 9: probes, retransmit serves and recovered-data cascades) and a
#: delay-aware churn bed (the one bed whose draws depend on the
#: candidates' path-delay EMA).
CACHE_BEDS = {
    "table1-tree": lambda: table1_churn_bed("tree"),
    "table1-tree-delay-aware": lambda: table1_churn_bed("delay-aware"),
    "table1-dag": lambda: table1_churn_bed("dag"),
    "planetlab": lambda: static_stream_bed("planetlab"),
    "bloom-dag": lambda: static_stream_bed("bloom"),
    "lossy-tail-probe-dag": lambda: brisa_run(
        "object", 96, 4, seed=9, config_kind="dag-depth", loss_percent=15.0,
        tail_probe=True,
    )[0],
}


@pytest.mark.parametrize("name", sorted(CACHE_BEDS))
def test_maintenance_cache_changes_no_draw(name):
    """The maintenance cache only skips work: a run with it and a run
    without it (every reception revalidated) agree draw for draw —
    metrics snapshot, emerged structure and schedule digest."""
    with cache_free():
        reference = CACHE_BEDS[name]()
    cached = CACHE_BEDS[name]()
    assert assert_brisa_state_consistent(reference, 1) == 0
    assert assert_brisa_state_consistent(cached, 1) > 0
    nodes = reference.alive_nodes()
    assert snapshot(reference.sim, reference.network, nodes) == snapshot(
        cached.sim, cached.network, cached.alive_nodes()
    )
    assert brisa_structure_snapshot(reference, 1) == brisa_structure_snapshot(cached, 1)
    assert schedule_digest(reference) == schedule_digest(cached)


GOLDEN_CHURN = (
    {
        "events": 26086,
        "peak_pending": 506,
        "now": "38.2",
        "msg_counts": {
            "brisa_activate": 10, "brisa_activate_ack": 5, "brisa_data": 8368,
            "brisa_deactivate": 351, "brisa_retransmit": 7, "hpv_disconnect": 97,
            "hpv_forward_join": 2187, "hpv_join": 65, "hpv_neighbor": 281,
            "hpv_neighbor_accept": 332, "hpv_neighbor_reject": 14,
            "hpv_shuffle": 788, "hpv_shuffle_reply": 196,
        },
        "bytes_sent": 9521384,
        "deliveries": 7994,
    },
    "9565b4c03b26adb2b0b788a85ec6a9efe9467cf25007a7ab73e319c4d84a2ea1",
)
GOLDEN_PLANETLAB = (
    {
        "events": 8092,
        "peak_pending": 332,
        "now": "27.0",
        "msg_counts": {
            "brisa_data": 1581, "brisa_deactivate": 254, "hpv_disconnect": 19,
            "hpv_forward_join": 918, "hpv_join": 63, "hpv_neighbor": 161,
            "hpv_neighbor_accept": 212, "hpv_neighbor_reject": 12,
            "hpv_shuffle": 512, "hpv_shuffle_reply": 128,
        },
        "bytes_sent": 2168649,
        "deliveries": 1260,
    },
    "e1d39ac74958a89f3f0166fcd198a72185367f2d42803df1a79d5e98a06515c9",
)
GOLDEN_DAG_CHURN = (
    {
        "events": 40011,
        "peak_pending": 620,
        "now": "38.2",
        "msg_counts": {
            "brisa_activate": 62, "brisa_activate_ack": 29, "brisa_data": 14964,
            "brisa_deactivate": 325, "brisa_depth_update": 586,
            "brisa_retransmit": 30, "hpv_disconnect": 88,
            "hpv_forward_join": 1954, "hpv_join": 64, "hpv_neighbor": 261,
            "hpv_neighbor_accept": 309, "hpv_neighbor_reject": 16,
            "hpv_shuffle": 784, "hpv_shuffle_reply": 196,
        },
        "bytes_sent": 16621805,
        "deliveries": 7945,
    },
    "0b27d29f496281008b9cec58c7f9a0a6a92e2d5a3628135b8b8ec63ede94bf6e",
)
GOLDEN_BLOOM = (
    {
        "events": 18585,
        "peak_pending": 1143,
        "now": "27.0",
        "msg_counts": {
            "brisa_activate": 18, "brisa_activate_ack": 9,
            "brisa_bloom_update": 2681, "brisa_data": 2565,
            "brisa_deactivate": 270, "brisa_retransmit": 9,
            "hpv_disconnect": 101, "hpv_forward_join": 2098, "hpv_join": 63,
            "hpv_neighbor": 264, "hpv_neighbor_accept": 314,
            "hpv_neighbor_reject": 13, "hpv_shuffle": 516,
            "hpv_shuffle_reply": 129,
        },
        "bytes_sent": 3611576,
        "deliveries": 1260,
    },
    "a16d29199562eb375de3b8e816cfefa89b7743dbc5f2a3c3fd574450b119dc30",
)
GOLDEN_FLOOD_CHURN = (
    {
        "events": 14736,
        "peak_pending": 241,
        "now": "9.754999999999997",
        "msg_counts": {
            "flood_data": 39473, "hpv_disconnect": 98, "hpv_forward_join": 4193,
            "hpv_join": 76, "hpv_neighbor": 697, "hpv_neighbor_accept": 690,
            "hpv_neighbor_reject": 42,
        },
        "bytes_sent": 23565734,
        "deliveries": 7574,
    },
    "902d59526953fe95918fe14a4508e413df5cedac20b84aff214627fccbc62e41",
)
