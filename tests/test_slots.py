"""Slot lifecycle of the shared slot store (core/slots.py, DESIGN.md §9).

One walk over every array kernel: a crash through ``Network.crash`` must
put the slot on the free list exactly once with *every* column the plane
class declares zeroed in *every* plane, and a later joiner must find
every column grown to cover its slot.  The columns are read off
``__slots__`` over the MRO, not a hand-written list, so a column added
to a plane but forgotten in ``grow`` / ``clear`` fails here instead of
leaking one node's state into a churn joiner.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import BrisaConfig
from repro.core.brisa_slotted import SlottedBrisaKernel
from repro.experiments.common import Testbed as _Testbed, brisa_factory
from repro.experiments.scale_flood import build_static_flood_overlay, flood_node_factory
from repro.sim.latency import ConstantLatency

BRISA_CONFIGS = {
    "brisa-path": BrisaConfig(mode="tree"),
    "brisa-bloom": BrisaConfig(
        mode="dag", num_parents=2, cycle_predictor="bloom", bloom_bits=256
    ),
}


def build(kind: str, n: int = 48, seed: int = 5, loss_percent: float = 0.0):
    """(sim, net, nodes, kernel, factory) for one kernel kind."""
    if kind.startswith("flood-"):
        name = kind.removeprefix("flood-")
        sim, net, nodes = build_static_flood_overlay(
            n, seed=seed, kernel=name, loss_percent=loss_percent
        )
        kernel = nodes[0].kernel
        factory = flood_node_factory(
            name, net, nodes[0].hpv_config, slot_kernel=kernel
        )
        return sim, net, nodes, kernel, factory
    cfg = BRISA_CONFIGS[kind]
    bed = _Testbed(seed=seed, latency=ConstantLatency(0.001, seed=seed),
                   record_deliveries=False, loss_percent=loss_percent)
    kernel = SlottedBrisaKernel(bed.network, cfg)
    factory = brisa_factory(cfg, kernel=kernel)
    bed.populate(n, factory, bootstrap="synthesized", defer_timers=True)
    bed.stop_shuffles()
    return bed.sim, bed.network, bed.nodes, kernel, factory


def cells(plane, slot: int) -> dict:
    """``slot``'s cell in every per-slot column ``plane``'s class declares
    (``rows`` holds one seen map per seq; the stream id is the plane's
    key, not a column)."""
    out = {}
    for cls in type(plane).__mro__:
        for name in getattr(cls, "__slots__", ()):
            if name == "stream":
                continue
            col = getattr(plane, name)
            out[name] = [row[slot] for row in col] if name == "rows" else col[slot]
    return out


def assert_zeroed(kernel, slot: int) -> None:
    assert not kernel.rx_bytes[slot]
    assert kernel.neighbor_rows[slot] == []
    for plane in kernel.planes:
        for name, cell in cells(plane, slot).items():
            assert not (any(cell) if name == "rows" else cell), (
                f"stream {plane.stream}: {name}[{slot}] = {cell!r} after release"
            )


@pytest.mark.parametrize(
    "kind", ["flood-slotted", "flood-vectorized", "brisa-path", "brisa-bloom"]
)
def test_crash_releases_every_declared_column(kind):
    sim, net, nodes, kernel, factory = build(kind)
    for stream, source in enumerate((nodes[0], nodes[len(nodes) // 2])):
        for seq in range(2):
            sim.call_at(sim.now + seq / 50.0, source.inject, stream, seq, 64)
    sim.run_until_idle()
    victim = nodes[len(nodes) // 3]
    slot = victim.slot
    assert len(kernel.planes) == 2
    # The streams left state behind at the victim, in both planes (the
    # flood kernels fan out from neighbor rows; BRISA keeps none)...
    assert kernel.rx_bytes[slot]
    if kind.startswith("flood-"):
        assert kernel.neighbor_rows[slot]
    for plane in kernel.planes:
        held = cells(plane, slot)
        assert held["delivered"] == 2 and all(held["rows"])

    net.crash(victim.node_id)
    # ...and the one release route zeroed all of it.
    assert victim.node_id not in kernel.slot_of
    assert kernel._free == [slot]
    assert len(kernel.slot_of) + len(kernel._free) == kernel.capacity
    assert_zeroed(kernel, slot)
    net.crash(victim.node_id)  # idempotent: the slot is freed exactly once
    assert kernel._free == [slot]
    sim.run_until_idle()  # failure notices + repairs settle

    # A joiner recycles the slot; the next one extends every column.
    net.autostart_timers = False
    capacity = kernel.capacity
    assert net.spawn(factory).slot == slot
    fresh = net.spawn(factory).slot
    assert fresh == capacity and kernel.capacity == capacity + 1
    assert kernel._free == []
    assert len(kernel.slot_of) == kernel.capacity
    assert_zeroed(kernel, fresh)


KINDS = ["flood-slotted", "flood-vectorized", "brisa-path", "brisa-bloom"]


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    seed=st.integers(min_value=0, max_value=2**16),
    loss=st.sampled_from([0.0, 2.0, 10.0]),
    kills=st.integers(min_value=0, max_value=4),
    streams=st.integers(min_value=1, max_value=3),
)
def test_delivered_column_equals_the_seen_map_walk(kind, seed, loss, kills, streams):
    """``delivered_count`` answers from the plane's ``delivered`` column;
    the walk over the seen maps is its oracle.  They must agree on every
    attached slot at every quiescent point — through loss (retransmits,
    the tail probe's cold path), crashes (release zeroes both) and
    joiners inheriting recycled slots."""
    sim, net, nodes, kernel, factory = build(kind, n=40, seed=seed, loss_percent=loss)
    sources = nodes[:streams]

    def publish(first_seq: int, count: int) -> None:
        for stream, source in enumerate(sources):
            for seq in range(first_seq, first_seq + count):
                sim.call_at(sim.now + (seq - first_seq) / 50.0, source.inject, stream, seq, 64)
        sim.run_until_idle()
        assert len(kernel.planes) == streams
        for slot in kernel.slot_of.values():
            for stream in range(streams):
                assert kernel.delivered_count(slot, stream) == kernel.delivered_walk(slot, stream)
        delivered = sum(
            kernel.delivered_count(slot, stream)
            for slot in kernel.slot_of.values() for stream in range(streams)
        )
        assert delivered >= streams * count  # the walk is not vacuous

    publish(0, 3)
    for victim in nodes[streams + 5 : streams + 5 + kills]:
        net.crash(victim.node_id)
    sim.run_until_idle()
    net.autostart_timers = False  # joiners stay message-driven: the heap drains
    for _ in range(kills):
        net.spawn(factory).join(sources[0].node_id)
    sim.run_until_idle()
    publish(3, 2)
