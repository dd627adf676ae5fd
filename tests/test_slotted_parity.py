"""Differential harness: slotted vs object flood kernels (DESIGN.md §9).

The slotted kernel's contract is *draw-for-draw equivalence* with the
reference object implementation: for one seed, both kernels must produce
identical delivery sets (with timestamps, senders, hops and path
delays), duplicate counts, per-node byte totals and engine schedules —
under the zero-cost fused path and under occupancy-charging latency
models, with and without churn.  These property tests pin that contract
over random populations (16–512 nodes), stream lengths and seeds; any
divergence is a kernel bug by definition.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from repro.baselines.flood import SlottedFloodKernel
from repro.experiments.scale_flood import build_static_flood_overlay, run_scale_flood
from repro.sim.latency import ConstantLatency, OccupancyLatency
from tests.helpers import (
    assert_brisa_state_consistent,
    assert_link_activation_symmetric,
    cache_free,
)

#: Latency regimes the kernels must agree under: the uniform zero-cost
#: fused path (fan sink engaged) and deterministic occupancy charging
#: (per-message queueing chain, no fan sink).
LATENCIES = {
    "zero-cost": lambda seed: ConstantLatency(0.001, seed=seed),
    "occupancy": lambda seed: OccupancyLatency(
        0.001, tx_overhead=0.0001, rx_overhead=0.0005, seed=seed
    ),
}


def flood_run(kernel: str, n: int, messages: int, seed: int, latency_kind: str,
              streams: int = 1, topology: str = "uniform",
              loss_percent: float = 0.0, degree: int = 5):
    """One recorded flood run; returns (sim, net, nodes).

    ``streams`` > 1 drives K concurrent publishers spread over the
    population (the DESIGN.md §10 workload) through the same injection
    window."""
    from repro.experiments.scale_runner import spread_sources

    sim, net, nodes = build_static_flood_overlay(
        n,
        degree=degree,
        seed=seed,
        latency=LATENCIES[latency_kind](seed),
        record_deliveries=True,
        kernel=kernel,
        topology=topology,
        loss_percent=loss_percent,
    )
    start = sim.now
    for stream, source in enumerate(spread_sources(nodes, streams)):
        for seq in range(messages):
            sim.call_at(start + seq / 50.0, source.inject, stream, seq, 64)
    sim.run_until_idle()
    return sim, net, nodes


def snapshot(sim, net, nodes) -> dict:
    """Everything the parity contract covers, as comparable plain data."""
    m = net.metrics
    return {
        "now": sim.now,
        "events": sim.events_processed,
        "peak_pending": sim.peak_pending,
        "deliveries": {
            (stream, seq): {
                nid: (rec.time, rec.sender, rec.hops, rec.path_delay)
                for nid, rec in per_node.items()
            }
            for stream, shard in m.streams.items()
            for seq, per_node in shard.deliveries.items()
        },
        "duplicates": {
            stream: dict(shard.duplicates) for stream, shard in m.streams.items()
        },
        "sent_by_phase": {phase: dict(book) for phase, book in m.sent_by_phase.items()},
        "received_by_phase": {
            phase: dict(book) for phase, book in m.received_by_phase.items()
        },
        "msg_counts": {kind: dict(per) for kind, per in m.msg_counts.items()},
        "delivered_counts": {
            node.node_id: {
                stream: node.delivered_count(stream) for stream in m.streams
            }
            for node in nodes
        },
        "stream_shards": {
            stream: (
                shard.first_deliveries,
                shard.duplicate_receptions,
                shard.payload_bytes,
            )
            for stream, shard in m.streams.items()
        },
        "dropped": m.counters.get("dropped", 0),
        "dropped_crash": m.counters.get("dropped_crash", 0),
        "dropped_loss": m.counters.get("dropped_loss", 0),
    }


def assert_kernel_arrays_match_metrics(net, nodes) -> None:
    """The slotted arrays must agree with the mirrored Metrics records
    (receive bytes are compared with the object run in ``snapshot``)."""
    kernel: SlottedFloodKernel = nodes[0].kernel
    m = net.metrics
    for node in nodes:
        if not node.alive:
            continue
        slot = node.slot
        assert kernel.slot_duplicates(slot) == m.duplicates_per_node([node.node_id])[0]


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    n=st.integers(min_value=16, max_value=512),
    messages=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**20),
    latency_kind=st.sampled_from(sorted(LATENCIES)),
)
@example(n=16, messages=1, seed=0, latency_kind="zero-cost")
@example(n=512, messages=3, seed=1, latency_kind="zero-cost")
@example(n=512, messages=3, seed=1, latency_kind="occupancy")
@example(n=257, messages=2, seed=99, latency_kind="occupancy")
def test_slotted_kernel_matches_object_kernel(n, messages, seed, latency_kind):
    sim_o, net_o, nodes_o = flood_run("object", n, messages, seed, latency_kind)
    sim_s, net_s, nodes_s = flood_run("slotted", n, messages, seed, latency_kind)
    assert snapshot(sim_o, net_o, nodes_o) == snapshot(sim_s, net_s, nodes_s)
    assert_kernel_arrays_match_metrics(net_s, nodes_s)


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    n=st.integers(min_value=16, max_value=256),
    messages=st.integers(min_value=1, max_value=3),
    streams=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=2**20),
    latency_kind=st.sampled_from(sorted(LATENCIES)),
)
@example(n=64, messages=2, streams=4, seed=0, latency_kind="zero-cost")
@example(n=256, messages=3, streams=3, seed=7, latency_kind="occupancy")
def test_multistream_parity(n, messages, streams, seed, latency_kind):
    """K concurrent streams must stay draw-for-draw equivalent across
    kernels (DESIGN.md §10): per-stream slot planes vs per-node dicts,
    including the per-stream Metrics shards."""
    sim_o, net_o, nodes_o = flood_run(
        "object", n, messages, seed, latency_kind, streams=streams
    )
    sim_s, net_s, nodes_s = flood_run(
        "slotted", n, messages, seed, latency_kind, streams=streams
    )
    assert len(net_o.metrics.streams) == streams
    assert snapshot(sim_o, net_o, nodes_o) == snapshot(sim_s, net_s, nodes_s)
    assert_kernel_arrays_match_metrics(net_s, nodes_s)
    # The slotted planes' per-stream counters agree with the object
    # path's sharded Metrics, stream by stream.
    kernel = nodes_s[0].kernel
    assert set(kernel.plane_of) == set(net_s.metrics.streams)
    for stream, shard in net_o.metrics.streams.items():
        plane = kernel.plane(stream)
        assert sum(plane.duplicates) == shard.duplicate_receptions


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    n=st.integers(min_value=64, max_value=256),
    churn=st.floats(min_value=1.0, max_value=12.0),
    seed=st.integers(min_value=0, max_value=2**20),
)
@example(n=256, churn=8.0, seed=11)
def test_kernels_agree_under_churn(n, churn, seed):
    """Churn exercises slot recycling, CSR-link purging and the full
    HyParView repair machinery — both kernels must still walk the exact
    same simulation (delivered counts, receptions, kills, joins, events,
    clock)."""
    results = [
        run_scale_flood(n, 8, seed=seed, kernel=kernel, churn_percent=churn)
        for kernel in ("object", "slotted")
    ]
    a, b = (r.to_dict() for r in results)
    for field in (
        "deliveries", "receptions", "events", "sim_time", "delivered_fraction",
        "kills", "joins", "survivors", "peak_pending",
    ):
        assert a[field] == b[field], field


def test_kernels_agree_under_multistream_churn():
    """Concurrent streams + churn: slot-plane recycling across every
    plane must keep the two kernels on the same simulation, stream by
    stream."""
    results = [
        run_scale_flood(192, 6, seed=9, kernel=kernel, churn_percent=6.0, streams=3)
        for kernel in ("object", "slotted")
    ]
    a, b = (r.to_dict() for r in results)
    for field in (
        "deliveries", "receptions", "events", "sim_time", "delivered_fraction",
        "kills", "joins", "survivors", "peak_pending", "per_stream",
    ):
        assert a[field] == b[field], field
    assert a["streams"] == 3 and len(a["per_stream"]) == 3
    assert results[0].kills > 0


def test_slotted_source_echo_matches_object_semantics():
    """The source hearing its own message back is a recorded first
    delivery but not a re-flood — the subtlest corner of the object
    path's record/seen split.  On a static uniform-delay overlay every
    neighbour's first copy comes from the source itself (so the exclusion
    rule suppresses the echo); churn reordering makes it reachable, so it
    is triggered here explicitly on both kernels."""
    from repro.baselines.flood import FloodData

    runs = {}
    for kernel in ("object", "slotted"):
        sim, net, nodes = flood_run(kernel, 16, 1, 3, "zero-cost")
        source = nodes[0]
        echoer = next(iter(source.active))
        assert source.node_id not in net.metrics.streams[0].deliveries[0]
        events_before = sim.events_processed
        # A late echo of the source's own message, as a repaired overlay
        # path would produce it.
        net.send(echoer, source.node_id,
                 FloodData(0, 0, 64, hops=3, path_delay=0.01, sent_at=sim.now))
        sim.run_until_idle()
        runs[kernel] = (sim, net, nodes, sim.events_processed - events_before)

    for kernel, (sim, net, nodes, events) in runs.items():
        source = nodes[0]
        rec = net.metrics.streams[0].deliveries[0][source.node_id]
        assert rec.hops == 4, kernel  # recorded as a first delivery...
        assert source.delivered_count(0) == 1, kernel  # ...counted once...
        assert net.metrics.duplicates_per_node([source.node_id]) == [0], kernel
        assert events == 1, kernel  # ...and not re-flooded (delivery only)
    assert snapshot(*runs["object"][:3]) == snapshot(*runs["slotted"][:3])


def test_unknown_kernel_rejected():
    with pytest.raises(ValueError):
        build_static_flood_overlay(16, kernel="compiled")
    with pytest.raises(ValueError):
        run_scale_flood(16, 1, kernel="bogus")


# ======================================================================
# Vectorized flood kernel (DESIGN.md §12)
# ======================================================================
#
# The vectorized kernel executes each dissemination wave — one engine
# run entry, or a one-fan wave built from a single fused fan event — as
# masked numpy array ops; its contract is the same draw-for-draw
# equivalence the slotted kernel pins against the object path —
# including ``peak_pending``: a run entry leaves the heap before its
# forwards are scheduled, so the engine carries a ``pending_bias`` for
# the unprocessed remainder and the kernel replays the per-event push
# sequence over the wave to land the exact per-event high-water mark.

try:
    import numpy as _np
except ImportError:  # pragma: no cover - CI always installs numpy
    _np = None

requires_numpy = pytest.mark.skipif(
    _np is None, reason="the vectorized kernel needs numpy"
)

#: Scalar-result fields every kernel must agree on.
VECTOR_PARITY_FIELDS = (
    "deliveries", "receptions", "events", "sim_time", "delivered_fraction",
    "kills", "joins", "survivors", "peak_pending",
)


@requires_numpy
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    n=st.integers(min_value=16, max_value=512),
    messages=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**20),
    latency_kind=st.sampled_from(sorted(LATENCIES)),
)
@example(n=16, messages=1, seed=0, latency_kind="zero-cost")
@example(n=512, messages=3, seed=1, latency_kind="zero-cost")
@example(n=512, messages=3, seed=1, latency_kind="occupancy")
@example(n=257, messages=2, seed=99, latency_kind="occupancy")
def test_vectorized_kernel_matches_object_kernel(n, messages, seed, latency_kind):
    """Batched wave execution must reproduce the object path record for
    record: delivery tuples (time, sender, hops, path delay), duplicate
    counts, byte totals and engine schedules — under the fused zero-cost
    path (every fan event a wave) and under occupancy charging (scalar
    on_data fallback on the numpy storage)."""
    sim_o, net_o, nodes_o = flood_run("object", n, messages, seed, latency_kind)
    sim_v, net_v, nodes_v = flood_run("vectorized", n, messages, seed, latency_kind)
    assert snapshot(sim_o, net_o, nodes_o) == snapshot(sim_v, net_v, nodes_v)
    assert_kernel_arrays_match_metrics(net_v, nodes_v)


@requires_numpy
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    n=st.integers(min_value=16, max_value=256),
    messages=st.integers(min_value=1, max_value=3),
    streams=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=2**20),
    latency_kind=st.sampled_from(sorted(LATENCIES)),
)
@example(n=64, messages=2, streams=4, seed=0, latency_kind="zero-cost")
@example(n=256, messages=3, streams=3, seed=7, latency_kind="occupancy")
def test_vectorized_multistream_parity(n, messages, streams, seed, latency_kind):
    """Streams that inject at the same instants arrive at the same
    instants, yet each stream's waves stay separate (a wave carries one
    message); every stream's plane and Metrics shard must stay identical
    to the object run."""
    sim_o, net_o, nodes_o = flood_run(
        "object", n, messages, seed, latency_kind, streams=streams
    )
    sim_v, net_v, nodes_v = flood_run(
        "vectorized", n, messages, seed, latency_kind, streams=streams
    )
    assert len(net_o.metrics.streams) == streams
    assert snapshot(sim_o, net_o, nodes_o) == snapshot(sim_v, net_v, nodes_v)
    assert_kernel_arrays_match_metrics(net_v, nodes_v)
    kernel = nodes_v[0].kernel
    assert set(kernel.plane_of) == set(net_v.metrics.streams)
    for stream, shard in net_o.metrics.streams.items():
        plane = kernel.plane(stream)
        assert int(plane.duplicates.sum()) == shard.duplicate_receptions


@requires_numpy
@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    n=st.integers(min_value=64, max_value=256),
    churn=st.floats(min_value=1.0, max_value=12.0),
    seed=st.integers(min_value=0, max_value=2**20),
    degree=st.sampled_from([2, 3, 5]),
)
@example(n=256, churn=8.0, seed=11, degree=5)
@example(n=128, churn=10.0, seed=3, degree=2)
def test_vectorized_kernel_agrees_under_churn(n, churn, seed, degree):
    """Churn exercises slot release into the numpy planes, _slot_map
    invalidation (dead destinations fall back in flat order, so the
    failure-notice RNG draws line up), row-mirror invalidation and CSR
    staleness — the three kernels must still walk the same simulation.
    On a degree-2 overlay most waves have one or two fans, so dead
    destinations land in the smallest waves the array path runs."""
    results = [
        run_scale_flood(
            n, 8, seed=seed, kernel=kernel, churn_percent=churn, degree=degree
        )
        for kernel in ("object", "vectorized")
    ]
    a, b = (r.to_dict() for r in results)
    for field in VECTOR_PARITY_FIELDS:
        assert a[field] == b[field], field


@requires_numpy
def test_vectorized_kernel_agrees_under_multistream_churn():
    results = [
        run_scale_flood(192, 6, seed=9, kernel=kernel, churn_percent=6.0, streams=3)
        for kernel in ("slotted", "vectorized")
    ]
    a, b = (r.to_dict() for r in results)
    for field in VECTOR_PARITY_FIELDS + ("per_stream",):
        assert a[field] == b[field], field
    assert results[1].kills > 0


@requires_numpy
def test_vectorized_source_echo_matches_object_semantics():
    """The delayed source-echo corner (first delivery recorded, no
    re-flood) through the batch path's first-occurrence masks: a first
    ``_INJECTED`` cell is an echo, not a delivery and not a duplicate."""
    from repro.baselines.flood import FloodData

    runs = {}
    for kernel in ("object", "vectorized"):
        sim, net, nodes = flood_run(kernel, 16, 1, 3, "zero-cost")
        source = nodes[0]
        echoer = next(iter(source.active))
        events_before = sim.events_processed
        net.send(echoer, source.node_id,
                 FloodData(0, 0, 64, hops=3, path_delay=0.01, sent_at=sim.now))
        sim.run_until_idle()
        runs[kernel] = (sim, net, nodes, sim.events_processed - events_before)

    for kernel, (sim, net, nodes, events) in runs.items():
        source = nodes[0]
        assert source.delivered_count(0) == 1, kernel
        assert net.metrics.duplicates_per_node([source.node_id]) == [0], kernel
        assert events == 1, kernel
    assert snapshot(*runs["object"][:3]) == snapshot(*runs["vectorized"][:3])


def test_vectorized_kernel_without_numpy_is_a_clear_error(monkeypatch):
    """numpy is optional: importing the module works without it, while
    constructing the kernel names the missing dependency and the
    fallback."""
    import repro.core.flood_vectorized as fv
    from repro.errors import SimulationError

    monkeypatch.setattr(fv, "np", None)
    with pytest.raises(SimulationError, match="numpy"):
        build_static_flood_overlay(16, kernel="vectorized")


# ======================================================================
# BRISA kernels (DESIGN.md §11)
# ======================================================================
#
# Both BRISA kernels keep one StreamState per node and stream and take
# the same maintenance-cache steady path; the slotted one only loops
# over fused fan-outs.  The object leg runs with the cache off, so the
# pair also pins the cache against the cache-free reference.  The
# parity contract adds the structural plane to the flood contract:
# identical delivery records AND identical emerged structures (parent
# edges, levels, predictor positions), with the state invariants
# holding on every live state.

from repro.config import BrisaConfig
from repro.core.brisa_slotted import SlottedBrisaKernel
from repro.experiments.common import Testbed as _Testbed
from repro.experiments.common import brisa_factory
from repro.experiments.scale_brisa import run_scale_brisa
from repro.experiments.scale_runner import ScaleRunner, spread_sources

#: The three predictor regimes of §II-D/§II-G; small Bloom filters keep
#: false-positive parent rejections reachable at test populations.
BRISA_CONFIGS = {
    "tree-path": lambda: BrisaConfig(mode="tree"),
    "dag-depth": lambda: BrisaConfig(mode="dag", num_parents=2),
    "dag-bloom": lambda: BrisaConfig(
        mode="dag", num_parents=2, cycle_predictor="bloom", bloom_bits=256
    ),
}


def brisa_run(kernel: str, n: int, messages: int, seed: int, config_kind: str,
              latency_kind: str = "zero-cost", streams: int = 1,
              churn: bool = False, loss_percent: float = 0.0,
              tail_probe: bool = False):
    """One recorded BRISA run; returns (testbed, sources).

    Mirrors ``run_scale_brisa``'s synthesized-bootstrap construction but
    with ``record_deliveries=True`` so the full Metrics record set is
    comparable.  ``churn=True`` schedules three mid-stream crashes plus
    two joiners (slot release + recycling on the slotted side)."""
    cfg = BRISA_CONFIGS[config_kind]()
    if tail_probe:
        cfg = dataclasses.replace(cfg, tail_probe=True)
    bed = _Testbed(
        seed=seed,
        latency=LATENCIES[latency_kind](seed),
        record_deliveries=True,
        loss_percent=loss_percent,
    )
    slot_kernel = None
    if kernel == "slotted":
        slot_kernel = SlottedBrisaKernel(bed.network, cfg)
    bed.populate(
        n, brisa_factory(cfg, kernel=slot_kernel),
        bootstrap="synthesized", validate=True, defer_timers=True,
    )
    bed.stop_shuffles()
    sources = spread_sources(bed.nodes, streams)
    runner = ScaleRunner(
        bed.sim, bed.network, sources,
        messages=messages, rate=50.0, payload_bytes=64,
    )
    start = runner.schedule()
    if churn:
        _schedule_brisa_churn(bed, sources, start, span=messages / 50.0)
    runner.drain(start)
    return bed, sources


def brisa_legs(*args, **kwargs):
    """The parity pair for one ``brisa_run`` bed: the object kernel with
    its maintenance cache off (the cache-free reference) and the slotted
    kernel."""
    with cache_free():
        reference = brisa_run("object", *args, **kwargs)
    return reference, brisa_run("slotted", *args, **kwargs)


def _schedule_brisa_churn(bed, sources, start, span) -> None:
    """Three deterministic kills spread over the window + two joiners.

    Joiners arm no periodic timers (same idiom as the flood churn
    driver), so the heap still drains when the last repair settles."""
    net = bed.network
    net.autostart_timers = False
    protected = {s.node_id for s in sources}
    victims = [node for node in bed.nodes if node.node_id not in protected]
    picks = [victims[len(victims) // 4], victims[len(victims) // 2],
             victims[(3 * len(victims)) // 4]]
    for i, victim in enumerate(picks):
        bed.sim.call_at(start + span * (i + 1) / 5.0, net.crash, victim.node_id)
    for i in range(2):
        bed.sim.call_at(start + span * (i + 3) / 5.0 + 1e-4, bed.spawn_joiner)


def brisa_structure_snapshot(bed, streams: int) -> dict:
    """The §II-B structural plane, per stream: parent edges, levels and
    predictor positions of every live node."""
    out = {}
    for stream in range(streams):
        per = {}
        for node in bed.alive_nodes():
            state = node.streams.get(stream)
            per[node.node_id] = (
                sorted(node.tree_parents(stream)),
                None if state is None else state.hops,
                None if state is None else state.position,
            )
        out[stream] = per
    return out


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    n=st.integers(min_value=24, max_value=128),
    messages=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**20),
    config_kind=st.sampled_from(sorted(BRISA_CONFIGS)),
    latency_kind=st.sampled_from(sorted(LATENCIES)),
)
@example(n=64, messages=2, seed=3, config_kind="tree-path", latency_kind="zero-cost")
@example(n=64, messages=2, seed=3, config_kind="dag-depth", latency_kind="zero-cost")
@example(n=64, messages=2, seed=3, config_kind="dag-bloom", latency_kind="zero-cost")
@example(n=48, messages=2, seed=11, config_kind="dag-depth", latency_kind="occupancy")
def test_slotted_brisa_matches_object_kernel(
    n, messages, seed, config_kind, latency_kind
):
    """Full-stack BRISA parity: delivery records, duplicates, byte
    totals, schedules AND the emerged structure, across every predictor
    and both latency regimes."""
    (bed_o, _), (bed_s, _) = brisa_legs(n, messages, seed, config_kind, latency_kind)
    assert snapshot(bed_o.sim, bed_o.network, bed_o.alive_nodes()) == snapshot(
        bed_s.sim, bed_s.network, bed_s.alive_nodes()
    )
    assert brisa_structure_snapshot(bed_o, 1) == brisa_structure_snapshot(bed_s, 1)
    assert_brisa_state_consistent(bed_s, 1)


def test_slotted_brisa_multistream_parity():
    """K concurrent trees over one overlay (§IV): per-stream duplicate
    counts, per-stream Metrics shards and per-stream structures all
    agree."""
    streams = 3
    (bed_o, _), (bed_s, _) = brisa_legs(
        96, 3, seed=7, config_kind="dag-depth", streams=streams
    )
    assert len(bed_o.metrics.streams) == streams
    assert snapshot(bed_o.sim, bed_o.network, bed_o.alive_nodes()) == snapshot(
        bed_s.sim, bed_s.network, bed_s.alive_nodes()
    )
    assert brisa_structure_snapshot(bed_o, streams) == brisa_structure_snapshot(
        bed_s, streams
    )
    assert_brisa_state_consistent(bed_s, streams)
    for stream, shard in bed_o.metrics.streams.items():
        assert sum(
            node.streams[stream].duplicates
            for node in bed_s.alive_nodes() if stream in node.streams
        ) == shard.duplicate_receptions


def test_brisa_kernels_agree_under_churn():
    """Mid-stream crashes + joiners: crash teardown, joiners and the
    repair machinery must keep both kernels on the same simulation."""
    (bed_o, _), (bed_s, _) = brisa_legs(
        96, 6, seed=5, config_kind="tree-path", churn=True
    )
    assert len(bed_o.alive_nodes()) == 96 - 3 + 2
    assert snapshot(bed_o.sim, bed_o.network, bed_o.alive_nodes()) == snapshot(
        bed_s.sim, bed_s.network, bed_s.alive_nodes()
    )
    assert brisa_structure_snapshot(bed_o, 1) == brisa_structure_snapshot(bed_s, 1)
    assert_brisa_state_consistent(bed_s, 1)
    for bed in (bed_o, bed_s):
        bed.network.check_link_invariants()
        # The settled probe's counter survived crashes, joins and repairs.
        for node in bed.alive_nodes():
            for state in node.streams.values():
                assert state.active_in == sum(state.in_active.values())
    # Crashed nodes dropped their stream state, cache included.
    dead = [node for node in bed_s.nodes if not node.alive]
    assert len(dead) == 3
    assert all(node.streams == {} for node in dead)


@pytest.mark.parametrize("config_kind", ["tree-path", "dag-depth"])
def test_brisa_kernels_agree_under_loss_with_tail_probe(config_kind):
    """Lossy links + the quiescence tail probe: the probe timer arms in
    the shared ``stream_state`` materialization and reads only fields the
    steady path keeps current, so both kernels must stay on the same
    simulation — probes, retransmit serves and recovered-data cascades
    included."""
    (bed_o, _), (bed_s, _) = brisa_legs(
        96, 4, seed=9, config_kind=config_kind, loss_percent=15.0, tail_probe=True
    )
    snap_o = snapshot(bed_o.sim, bed_o.network, bed_o.alive_nodes())
    assert snap_o == snapshot(bed_s.sim, bed_s.network, bed_s.alive_nodes())
    assert snap_o["dropped_loss"] > 0
    assert brisa_structure_snapshot(bed_o, 1) == brisa_structure_snapshot(bed_s, 1)
    # Most nodes end on a primed cache, so its invariants were checked.
    assert assert_brisa_state_consistent(bed_s, 1) > len(bed_s.alive_nodes()) // 2
    if config_kind == "tree-path":
        # The DAG bed ends with one asymmetric edge (8 -> 33, node 33 still
        # fed by its other parent) after lost control traffic: ROADMAP 1(b).
        for bed in (bed_o, bed_s):
            assert_link_activation_symmetric(bed.nodes, 0)


def test_stream_state_keeps_no_instance_dict():
    """``StreamState`` is slotted: with ~30 fields an instance ``__dict__``
    stops sharing its keys across instances and costs peak memory on
    every node and stream.  No attribute can be hung on it either, so the
    cache cannot grow an undeclared side channel."""
    from repro.core.recovery import MessageBuffer
    from repro.core.state import StreamState

    state = StreamState(0, MessageBuffer(4))
    assert not hasattr(state, "__dict__")
    with pytest.raises(AttributeError):
        state.plane = None


def test_brisa_kernel_rejects_predictor_mismatch():
    """One kernel serves one rule table: attaching a node whose config
    selects a different predictor is a hard error, not silent skew."""
    from repro.errors import SimulationError

    bed = _Testbed(seed=1, latency=ConstantLatency(0.001, seed=1))
    kernel = SlottedBrisaKernel(bed.network, BrisaConfig(mode="tree"))
    with pytest.raises(SimulationError):
        bed.populate(
            4,
            brisa_factory(
                BrisaConfig(mode="dag", num_parents=2), kernel=kernel
            ),
            bootstrap="synthesized",
        )


def test_unknown_brisa_kernel_rejected():
    with pytest.raises(ValueError):
        run_scale_brisa(16, 1, kernel="vectorized")


# ======================================================================
# Lossy links + non-uniform topologies (DESIGN.md §14)
# ======================================================================
#
# The loss model draws one coin per (message, destination) from its own
# ``derive(seed, "loss")`` stream, *after* the latency sample for that
# destination — so every kernel consumes the latency, protocol and loss
# streams in the identical order and the whole parity surface (delivery
# records, drop counters, schedules, peak_pending) must keep holding.
# The vectorized path masks lost destinations out of the wave arrays
# before scheduling; a fully-lost fan-out schedules no event at all on
# any kernel.

@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    n=st.integers(min_value=16, max_value=256),
    messages=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**20),
    latency_kind=st.sampled_from(sorted(LATENCIES)),
    loss=st.floats(min_value=0.5, max_value=30.0),
    topology=st.sampled_from(["uniform", "powerlaw", "smallworld"]),
)
@example(n=128, messages=2, seed=1, latency_kind="zero-cost", loss=2.0,
         topology="powerlaw")
@example(n=128, messages=2, seed=1, latency_kind="occupancy", loss=10.0,
         topology="smallworld")
@example(n=64, messages=3, seed=42, latency_kind="zero-cost", loss=30.0,
         topology="uniform")
def test_slotted_kernel_matches_object_kernel_under_loss(
    n, messages, seed, latency_kind, loss, topology
):
    sim_o, net_o, nodes_o = flood_run(
        "object", n, messages, seed, latency_kind,
        topology=topology, loss_percent=loss,
    )
    sim_s, net_s, nodes_s = flood_run(
        "slotted", n, messages, seed, latency_kind,
        topology=topology, loss_percent=loss,
    )
    snap = snapshot(sim_o, net_o, nodes_o)
    assert snap == snapshot(sim_s, net_s, nodes_s)
    if loss >= 10.0 and n >= 64:
        assert snap["dropped_loss"] > 0  # the coin actually flipped
    assert snap["dropped"] == snap["dropped_loss"] + snap["dropped_crash"]
    assert_kernel_arrays_match_metrics(net_s, nodes_s)


@requires_numpy
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    n=st.integers(min_value=16, max_value=256),
    messages=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**20),
    latency_kind=st.sampled_from(sorted(LATENCIES)),
    loss=st.floats(min_value=0.5, max_value=30.0),
    topology=st.sampled_from(["uniform", "powerlaw", "smallworld"]),
    degree=st.sampled_from([2, 3, 5]),
)
@example(n=128, messages=2, seed=1, latency_kind="zero-cost", loss=2.0,
         topology="powerlaw", degree=5)
@example(n=128, messages=2, seed=1, latency_kind="occupancy", loss=10.0,
         topology="smallworld", degree=5)
@example(n=64, messages=3, seed=42, latency_kind="zero-cost", loss=30.0,
         topology="uniform", degree=5)
@example(n=96, messages=3, seed=5, latency_kind="zero-cost", loss=30.0,
         topology="uniform", degree=2)
def test_vectorized_kernel_matches_object_kernel_under_loss(
    n, messages, seed, latency_kind, loss, topology, degree
):
    """The wave-array masking must keep the batched path on the object
    path's exact simulation: same lost (message, destination) pairs,
    same surviving schedules (a fully-lost fan-out schedules nothing),
    same drop counters, same peak_pending.  On a degree-2 overlay most
    waves have one or two fans, so fully-lost fans empty whole waves."""
    # A small-world lattice needs degree >= 4; the bootstrap rejects less.
    assume(topology != "smallworld" or degree >= 4)
    sim_o, net_o, nodes_o = flood_run(
        "object", n, messages, seed, latency_kind,
        topology=topology, loss_percent=loss, degree=degree,
    )
    sim_v, net_v, nodes_v = flood_run(
        "vectorized", n, messages, seed, latency_kind,
        topology=topology, loss_percent=loss, degree=degree,
    )
    snap = snapshot(sim_o, net_o, nodes_o)
    assert snap == snapshot(sim_v, net_v, nodes_v)
    if loss >= 10.0 and n >= 64:
        assert snap["dropped_loss"] > 0  # the coin actually flipped
    assert snap["dropped"] == snap["dropped_loss"] + snap["dropped_crash"]
    assert_kernel_arrays_match_metrics(net_v, nodes_v)


def test_loss_does_not_perturb_latency_or_protocol_draws():
    """RNG-stream isolation: the loss coin comes from its own
    ``derive(seed, "loss")`` stream and is flipped *after* the latency
    sample for each destination, so an identical send sequence run with
    loss on drops some arrivals but never moves the surviving ones."""
    from repro.baselines.flood import FloodData
    from repro.sim.engine import Simulator
    from repro.sim.latency import ClusterLatency
    from repro.sim.monitor import Metrics
    from repro.sim.network import Network

    def run(loss: float):
        sim = Simulator(seed=9)
        net = Network(
            sim, ClusterLatency(seed=9), Metrics(record_deliveries=False),
            loss_percent=loss,
        )
        arrivals: dict = {}

        class Recorder:
            __slots__ = ("node_id", "alive")

            def __init__(self, nid):
                self.node_id = nid
                self.alive = True

            def handle_message(self, src, msg):
                arrivals[(self.node_id, msg.seq)] = sim.now

        for i in range(33):
            net.nodes[i] = Recorder(i)
        for seq in range(4):
            msg = FloodData(0, seq, 64)
            sim.call_at(seq * 0.1, net.send_many, 0, list(range(1, 33)), msg)
        sim.run_until_idle()
        return arrivals, net.metrics.counters.get("dropped_loss", 0)

    base, dropped_base = run(0.0)
    lossy, dropped = run(40.0)
    assert dropped_base == 0 and dropped > 0
    assert set(lossy) < set(base)  # strictly fewer arrivals...
    for key, t in lossy.items():
        assert base[key] == t  # ...at byte-identical times


def test_loss_rate_validated():
    from repro.sim.engine import Simulator
    from repro.sim.monitor import Metrics
    from repro.sim.network import Network

    for bad in (-1.0, 100.0, 250.0):
        with pytest.raises(ValueError):
            Network(
                Simulator(seed=1), ConstantLatency(0.001, seed=1), Metrics(),
                loss_percent=bad,
            )
