"""Shared test helpers: tiny recording nodes, network builders and BRISA
state checks."""

from __future__ import annotations

import contextlib

import pytest

from repro.core.brisa import BrisaNode
from repro.sim.engine import Simulator
from repro.sim.latency import ConstantLatency
from repro.sim.message import Message
from repro.sim.monitor import Metrics
from repro.sim.network import Network
from repro.sim.node import ProtocolNode


class Ping(Message):
    kind = "ping"
    __slots__ = ("payload",)

    def __init__(self, payload: int = 0) -> None:
        self.payload = payload

    def body_bytes(self) -> int:
        return 8


class RecorderNode(ProtocolNode):
    """Records every message and link-failure notification it receives."""

    def __init__(self, network, node_id) -> None:
        super().__init__(network, node_id)
        self.received: list[tuple[float, int, Message]] = []
        self.link_failures: list[tuple[float, int]] = []

    def on_ping(self, src, msg) -> None:
        self.received.append((self.clock.now, src, msg))

    def on_link_failed(self, peer) -> None:
        self.link_failures.append((self.clock.now, peer))


def make_network(
    n: int = 0,
    *,
    seed: int = 42,
    delay: float = 0.001,
    node_cls=RecorderNode,
    record_deliveries: bool = True,
):
    """Build a simulator + network with ``n`` recorder nodes."""
    sim = Simulator(seed=seed)
    net = Network(
        sim,
        ConstantLatency(delay),
        Metrics(record_deliveries=record_deliveries),
    )
    nodes = [net.spawn(node_cls) for _ in range(n)]
    return sim, net, nodes


def assert_link_activation_symmetric(nodes, stream: int) -> None:
    """BRISA link-activation symmetry on ``stream`` at a quiescent point:
    no live node holds a live parent that stopped relaying to it (the
    child is in the parent's ``out_deactivated``)."""
    by_id = {node.node_id: node for node in nodes}
    asymmetric = []
    for child in nodes:
        state = child.streams.get(stream) if child.alive else None
        if state is None:
            continue
        for parent_id in state.parents:
            parent = by_id.get(parent_id)
            if parent is None or not parent.alive:
                continue
            parent_state = parent.streams.get(stream)
            if parent_state is not None and child.node_id in parent_state.out_deactivated:
                asymmetric.append((parent_id, child.node_id))
    assert not asymmetric, f"parent -> child edges muted at the parent: {asymmetric}"


def position_violations(nodes, stream: int) -> list[tuple]:
    """``(parent, child)`` edges on ``stream`` whose child's position is
    not consistent with its live parent's (:mod:`repro.core.cycle`): a
    position is consistent iff joining the parent's position leaves it
    unchanged — path: the parent's path plus the child (§II-D); depth:
    strictly below the parent (§II-G); Bloom: a superset of the parent's
    filter.  A parent mid-hard-repair (no position) is not checked, as in
    the rule table's ``PARENT_SKIP``."""
    by_id = {node.node_id: node for node in nodes}
    violations = []
    for child in nodes:
        state = child.streams.get(stream) if child.alive else None
        if state is None:
            continue
        for parent_id in state.parents:
            parent = by_id.get(parent_id)
            if parent is None or not parent.alive:
                continue
            parent_state = parent.streams.get(stream)
            if parent_state is None or parent_state.position is None:
                continue
            joined = child.predictor.join(
                child.node_id, state.position, parent_state.position
            )
            if joined != state.position:
                violations.append((parent_id, child.node_id))
    return violations


def assert_positions_consistent(nodes, stream: int) -> None:
    """Every live node with parents stands where its predictor puts a
    child of each live parent, at a quiescent point on ``stream``."""
    violations = position_violations(nodes, stream)
    assert not violations, f"parent -> child edges with inconsistent positions: {violations}"


@contextlib.contextmanager
def cache_free():
    """Run BRISA without its maintenance cache (DESIGN.md §11) inside the
    block: priming is a no-op, so every reception takes the cold path —
    the full Fig. 3 / §II-G revalidation — on every kernel and plan.
    The cache-free run is the reference a cached run must match draw for
    draw; a context manager, so one test can run both legs."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(BrisaNode, "_prime", staticmethod(lambda state, src, meta: None))
        yield


def assert_brisa_state_consistent(bed, streams: int) -> int:
    """Every live node's per-stream state agrees with itself and with
    Metrics: its duplicate count with ``Metrics.duplicates_per_node``,
    its active-inbound-link count with ``in_active``, its sequence
    record is sound (:func:`assert_seq_record_sound`), and its
    maintenance cache holds its invariants — a primed cache only on a
    parent whose pinned Candidate is the live one, and a cached
    relay-target list (order included) equal to the relay rule applied
    to the cached source.  Returns the number of primed caches, so a
    caller can check the cache part was not vacuous."""
    m = bed.metrics
    primed = 0
    for node in bed.alive_nodes():
        assert sum(s.duplicates for s in node.streams.values()) == (
            m.duplicates_per_node([node.node_id])[0]
        )
        for stream in range(streams):
            state = node.streams.get(stream)
            if state is None:
                continue
            if state.maint_src is not None:
                primed += 1
                assert state.maint_src in state.parents
                assert state.maint_cand is state.candidates[state.maint_src]
            if state.maint_targets is not None:
                assert state.maint_targets == node._relay_targets(
                    state, state.maint_src
                )
            assert state.active_in == sum(
                1 for active in state.in_active.values() if active
            )
            assert_seq_record_sound(state, state.buffer.capacity)
    return primed


def assert_seq_record_sound(record, capacity: int) -> None:
    """A sequence record in canonical form (DESIGN.md §14, "The sequence
    record"): ``holes`` sorted, disjoint, non-adjacent runs at or below
    ``max_contig``; ``ahead`` entirely above ``max_contig + 1`` and at
    most ``capacity`` (the recovery horizon) long; and ``delivered_n``
    the size of what the two describe."""
    contig, holes, ahead = record.max_contig, record.holes, record.ahead
    assert len(holes) % 2 == 0, holes
    assert all(lo < hi for lo, hi in zip(holes[::2], holes[1::2])), holes
    # Non-adjacent: a delivered seq separates each run from the next.
    assert all(hi < lo for hi, lo in zip(holes[1::2], holes[2::2])), holes
    assert not holes or (holes[0] >= 0 and holes[-1] <= contig + 1), (holes, contig)
    assert all(seq > contig + 1 for seq in ahead), (contig, sorted(ahead))
    assert len(ahead) <= capacity, (len(ahead), capacity)
    missing = sum(hi - lo for lo, hi in zip(holes[::2], holes[1::2]))
    assert record.delivered_n == contig + 1 - missing + len(ahead)


def to_networkx(g):
    """``g`` (a :class:`~repro.core.structure.Structure`) as a networkx
    ``DiGraph`` with the same nodes and edges, in the same order: the
    reference implementation the structure functions are checked
    against.  networkx is a test dependency only (DESIGN.md §17)."""
    import networkx as nx

    ref = nx.DiGraph()
    ref.add_nodes_from(g.nodes)
    ref.add_edges_from(g.edges)
    return ref


class DictLinks(dict):
    """The dict of sets ``Network.links`` was, written by the code that
    wrote it: the reference the link registry is checked against
    (DESIGN.md §8, "The link registry stays in the arrays")."""

    def install(self, ids, offsets, neighbors) -> None:
        for i, nid in enumerate(ids):
            peers = {ids[j] for j in neighbors[offsets[i] : offsets[i + 1]]}
            if peers:
                existing = self.get(nid)
                if existing is None:
                    self[nid] = peers
                else:
                    existing |= peers

    def add(self, a, b) -> None:
        peers = self.get(a)
        if peers is None:
            peers = self[a] = set()
        peers.add(b)

    def discard(self, a, b) -> None:
        peers = self.get(a)
        if peers is not None:
            peers.discard(b)
            if not peers:
                del self[a]

    def crash(self, nid) -> list:
        """Unlink ``nid`` as ``Network.crash`` did; returns its peers in
        the order their failure notices were drawn."""
        peers = list(self.get(nid, ()))
        for peer in peers:
            self.discard(nid, peer)
            self.discard(peer, nid)
        self.pop(nid, None)
        return peers

    def violated(self, nodes) -> bool:
        """What ``Network.check_link_invariants`` decided on this dict."""
        for nid, peers in self.items():
            node = nodes.get(nid)
            if node is None or not node.alive or not peers:
                return True
            if any(nid not in self.get(peer, ()) for peer in peers):
                return True
        return False
