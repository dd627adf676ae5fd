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
pin the predictor-specific steps of §II-D / §II-G.  When a change
*means* to move a schedule, re-pin the digest and say why in the commit
message.
"""

from __future__ import annotations

import hashlib
import json

from repro.config import BrisaConfig, HyParViewConfig, StreamConfig
from repro.experiments import robustness
from repro.experiments.common import build_brisa_testbed
from repro.sim.latency import PlanetLabLatency

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


def test_table1_churn_bed_schedule_is_pinned():
    bed = build_brisa_testbed(
        N,
        seed=11,
        config=BrisaConfig(mode="tree", num_parents=1),
        hpv_config=HyParViewConfig(active_size=4),
        join_spacing=0.05,
        settle=10.0,
    )
    source = bed.choose_source()
    _, _, driver = robustness._run_churn(
        bed, source, churn_percent=5.0, duration=15.0, period=5.0, lead=5.0, drain=5.0
    )
    assert driver.stats.kills > 0 and driver.stats.joins > 0
    summary, digest = schedule_digest(bed)
    assert summary == GOLDEN_CHURN[0]
    assert digest == GOLDEN_CHURN[1]


def test_table1_dag_churn_bed_schedule_is_pinned():
    bed = build_brisa_testbed(
        N,
        seed=2,
        config=BrisaConfig(mode="dag", num_parents=2, cycle_predictor="depth"),
        hpv_config=HyParViewConfig(active_size=4),
        join_spacing=0.05,
        settle=10.0,
    )
    source = bed.choose_source()
    _, _, driver = robustness._run_churn(
        bed, source, churn_percent=5.0, duration=15.0, period=5.0, lead=5.0, drain=5.0
    )
    assert driver.stats.kills > 0 and driver.stats.joins > 0
    assert [event.kind for event in bed.metrics.repair_events] == ["hard"]
    summary, digest = schedule_digest(bed)
    assert summary["msg_counts"]["brisa_depth_update"] > 0
    assert summary == GOLDEN_DAG_CHURN[0]
    assert digest == GOLDEN_DAG_CHURN[1]


def test_planetlab_static_stream_schedule_is_pinned():
    bed = build_brisa_testbed(
        N,
        seed=4,
        hpv_config=HyParViewConfig(active_size=4),
        latency=PlanetLabLatency(seed=4),
        join_spacing=0.05,
        settle=10.0,
    )
    source = bed.choose_source()
    bed.run_stream(source, StreamConfig(count=20, rate=5.0, payload_bytes=1024), drain=10.0)
    summary, digest = schedule_digest(bed)
    assert summary == GOLDEN_PLANETLAB[0]
    assert digest == GOLDEN_PLANETLAB[1]


def test_bloom_static_dag_schedule_is_pinned():
    bed = build_brisa_testbed(
        N,
        seed=4,
        config=BrisaConfig(
            mode="dag", num_parents=2, cycle_predictor="bloom", bloom_bits=256
        ),
        hpv_config=HyParViewConfig(active_size=4),
        join_spacing=0.05,
        settle=10.0,
    )
    source = bed.choose_source()
    bed.run_stream(source, StreamConfig(count=20, rate=5.0, payload_bytes=1024), drain=10.0)
    summary, digest = schedule_digest(bed)
    assert summary["msg_counts"]["brisa_bloom_update"] > 0
    assert summary == GOLDEN_BLOOM[0]
    assert digest == GOLDEN_BLOOM[1]


GOLDEN_CHURN = (
    {
        "events": 28166,
        "peak_pending": 506,
        "now": "38.2",
        "msg_counts": {
            "brisa_activate": 10, "brisa_activate_ack": 5, "brisa_data": 9392,
            "brisa_deactivate": 351, "brisa_retransmit": 23, "hpv_disconnect": 97,
            "hpv_forward_join": 2187, "hpv_join": 65, "hpv_neighbor": 281,
            "hpv_neighbor_accept": 332, "hpv_neighbor_reject": 14,
            "hpv_shuffle": 788, "hpv_shuffle_reply": 196,
        },
        "bytes_sent": 10646600,
        "deliveries": 7994,
    },
    "e0266d7732e33b3783bac07358731a23a128cf2732dd4b12877c8a35b3da908c",
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
        "events": 42477,
        "peak_pending": 620,
        "now": "38.2",
        "msg_counts": {
            "brisa_activate": 62, "brisa_activate_ack": 29, "brisa_data": 16179,
            "brisa_deactivate": 324, "brisa_depth_update": 586,
            "brisa_retransmit": 49, "hpv_disconnect": 88,
            "hpv_forward_join": 1954, "hpv_join": 64, "hpv_neighbor": 261,
            "hpv_neighbor_accept": 309, "hpv_neighbor_reject": 16,
            "hpv_shuffle": 784, "hpv_shuffle_reply": 196,
        },
        "bytes_sent": 17947131,
        "deliveries": 7945,
    },
    "91e62495db7b22fe0ba3ba17489d5469c4ed5414b2e57abf89a6a08936f37ff2",
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
