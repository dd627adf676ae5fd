"""Slot lifecycle of the shared slot store (core/slots.py, DESIGN.md §9).

One walk over both array flood kernels (the slotted BRISA kernel keeps
its state on the node's ``StreamState`` and has no slots): a crash
through ``Network.crash`` must put the slot on the free list exactly
once with *every* column the plane class declares zeroed in *every*
plane, and a later joiner must find every column grown to cover its
slot.  The columns are read off
``__slots__`` over the MRO, not a hand-written list, so a column added
to a plane but forgotten in ``grow`` / ``clear`` fails here instead of
leaking one node's state into a churn joiner.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.bootstrap import synthesize_topology_arrays
from repro.experiments.scale_flood import build_static_flood_overlay, flood_node_factory


def build(kind: str, n: int = 48, seed: int = 5, loss_percent: float = 0.0):
    """(sim, net, nodes, kernel, factory) for one kernel kind."""
    name = kind.removeprefix("flood-")
    sim, net, nodes = build_static_flood_overlay(
        n, seed=seed, kernel=name, loss_percent=loss_percent
    )
    kernel = nodes[0].kernel
    factory = flood_node_factory(name, net, nodes[0].hpv_config, slot_kernel=kernel)
    return sim, net, nodes, kernel, factory


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
    assert kernel.row(slot) == []
    for plane in kernel.planes:
        for name, cell in cells(plane, slot).items():
            assert not (any(cell) if name == "rows" else cell), (
                f"stream {plane.stream}: {name}[{slot}] = {cell!r} after release"
            )


KINDS = ["flood-slotted", "flood-vectorized"]


@pytest.mark.parametrize("kind", KINDS)
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
    assert kernel.row(slot)
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
    attached slot at every quiescent point — through loss, crashes
    (release zeroes both) and joiners inheriting recycled slots."""
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


def churned(kind: str):
    """A 48-node bed on ``kind``'s kernel: a message, three crashes, two
    joiners, a second message.  Returns (net, nodes, initial views) with
    the joiners last in ``nodes``."""
    name = kind.removeprefix("flood-")
    sim, net, nodes = build_static_flood_overlay(48, seed=5, kernel=name)
    initial = {node.node_id: list(node.active) for node in nodes} if name == "object" else None
    kernel = getattr(nodes[0], "kernel", None)
    factory = flood_node_factory(name, net, nodes[0].hpv_config, slot_kernel=kernel)
    nodes[0].inject(0, 0, 64)
    sim.run_until_idle()
    for victim in (nodes[7], nodes[20], nodes[33]):
        net.crash(victim.node_id)
    sim.run_until_idle()
    net.autostart_timers = False  # joiners stay message-driven: the heap drains
    for _ in range(2):
        joiner = net.spawn(factory)
        joiner.join(nodes[0].node_id)
        nodes.append(joiner)
    sim.run_until_idle()
    nodes[0].inject(0, 1, 64)
    sim.run_until_idle()
    return net, nodes, initial


@pytest.mark.parametrize("kind", KINDS)
def test_a_static_run_keeps_the_installed_csr(kind):
    """No link changes, no override: every row is read from the
    synthesizer's CSR, and the vectorized snapshot is that CSR."""
    sim, net, nodes, kernel, _ = build(kind, loss_percent=0.0)
    nodes[0].inject(0, 0, 64)
    sim.run_until_idle()
    assert all(node.delivered_count(0) == 1 for node in nodes)
    assert kernel._rows == {}
    assert kernel._base_n == len(nodes)
    if kind == "flood-vectorized":
        assert kernel._csr_data is kernel._base_peers


@pytest.mark.parametrize("kind", KINDS)
def test_rows_follow_the_active_view_through_churn(kind):
    """After crashes and joins (``release_node``, ``row_append``,
    ``row_remove``), every live row equals the object kernel's active
    view of the same node, in order.  Exactly the rows that changed are
    overridden (a joiner's among them), plus the freed slots."""
    ref_net, ref_nodes, initial = churned("flood-object")
    net, nodes, _ = churned(kind)
    kernel = nodes[0].kernel
    live = [node for node in nodes if net.alive(node.node_id)]
    assert [node.node_id for node in live] == [
        node.node_id for node in ref_nodes if ref_net.alive(node.node_id)
    ]
    for node in live:
        assert kernel.row(node.slot) == list(ref_net.nodes[node.node_id].active)
    changed = {
        node.slot for node in live
        if list(ref_net.nodes[node.node_id].active) != initial.get(node.node_id)
    }
    assert changed and len(changed) < len(live)
    assert set(kernel._rows) == changed | set(kernel._free)
    if kind == "flood-vectorized":
        # The snapshot rebuilt from the CSR and the overrides, the row
        # lengths and the id -> slot vector agree with the rows.
        kernel._rebuild_csr()
        offs = kernel._csr_offs
        slot_map = kernel._slots()
        for node in live:
            slot = node.slot
            assert kernel._csr_data[offs[slot] : offs[slot + 1]].tolist() == kernel.row(slot)
            assert kernel._row_len[slot] == len(kernel.row(slot))
            assert slot_map[node.node_id] == slot
        for node in nodes:
            if node not in live:
                assert slot_map[node.node_id] == -1


@pytest.mark.parametrize("kind", KINDS)
def test_an_install_over_recycled_slots_writes_overrides(kind):
    """A second install, over slots that are not one run in id order,
    writes its rows as overrides; the first population keeps its CSR."""
    sim, net, nodes, kernel, factory = build(kind, n=16)
    before = {node.slot: kernel.row(node.slot) for node in nodes}
    for victim in (nodes[3], nodes[9]):
        net.crash(victim.node_id)
    net.autostart_timers = False
    extra = net.spawn_many(factory, 6)
    assert {nodes[3].slot, nodes[9].slot} <= {node.slot for node in extra}
    topo = synthesize_topology_arrays(6, degree=2, max_degree=4, rng=random.Random(1))
    ids = [node.node_id for node in extra]
    kernel.install_rows(ids, topo)
    for i, node in enumerate(extra):
        row = topo.neighbors[topo.offsets[i] : topo.offsets[i + 1]]
        assert kernel.row(node.slot) == [ids[j] for j in row]
    assert set(kernel._rows) == {node.slot for node in extra}
    for node in nodes:
        if node not in (nodes[3], nodes[9]):
            assert kernel.row(node.slot) == before[node.slot]
    if kind == "flood-vectorized":
        offs = kernel._csr_offs
        for slot in kernel.slot_of.values():
            assert kernel._csr_data[offs[slot] : offs[slot + 1]].tolist() == kernel.row(slot)
