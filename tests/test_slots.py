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


def build(kind: str, n: int = 48, seed: int = 5):
    """(sim, net, nodes, kernel, factory) for one kernel kind."""
    if kind.startswith("flood-"):
        name = kind.removeprefix("flood-")
        sim, net, nodes = build_static_flood_overlay(n, seed=seed, kernel=name)
        kernel = nodes[0].kernel
        factory = flood_node_factory(
            name, net, nodes[0].hpv_config, slot_kernel=kernel
        )
        return sim, net, nodes, kernel, factory
    cfg = BRISA_CONFIGS[kind]
    bed = _Testbed(seed=seed, latency=ConstantLatency(0.001, seed=seed),
                   record_deliveries=False)
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
    # The streams left state behind at the victim, in both planes...
    assert kernel.rx_bytes[slot] and kernel.neighbor_rows[slot]
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
