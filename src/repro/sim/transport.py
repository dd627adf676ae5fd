"""Connection-setup cost modelling.

BRISA/HyParView keep persistent TCP connections to active-view neighbours,
so their messages pay only propagation delay.  TAG tears connections down
between list-traversal hops; §III-D attributes TAG's poor PlanetLab
construction time exactly to this per-hop "create a connection, exchange
messages, tear it down" cost.  :class:`TransientConnCost` exposes that
cost so the TAG implementation can model it without the simulator growing
a full TCP state machine.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.ids import NodeId
from repro.sim.network import Network


class TransientConnCost:
    """Per-node helper for protocols with non-persistent connections."""

    def __init__(self, network: Network, node_id: NodeId, setup_rtts: float = 1.5) -> None:
        self.network = network
        self.node_id = node_id
        self.setup_rtts = setup_rtts

    def setup_delay(self, peer: NodeId) -> float:
        """Connection establishment cost towards ``peer`` (3-way handshake)."""
        return self.setup_rtts * self.network.rtt(self.node_id, peer)

    def connect(
        self,
        peer: NodeId,
        on_ready: Callable[[], None],
        on_fail: Optional[Callable[[], None]] = None,
    ) -> None:
        """Open a transient connection: ``on_ready`` fires after the setup
        delay if the peer is still alive, ``on_fail`` otherwise (with the
        same delay — a timed-out handshake is not free)."""

        def complete() -> None:
            if self.network.alive(peer):
                on_ready()
            elif on_fail is not None:
                on_fail()

        self.network.sim.schedule(self.setup_delay(peer), complete)

