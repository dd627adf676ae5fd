"""Shared test helpers: tiny recording nodes and network builders."""

from __future__ import annotations

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
