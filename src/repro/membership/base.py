"""Peer-sampling-service interface.

The dissemination layers (BRISA and the baselines) consume membership
through this narrow interface: a ``neighbors()`` view plus up/down
callbacks.  Both HyParView and Cyclon implement it, so protocol code never
depends on a concrete PSS — mirroring the paper's layering, where BRISA
only assumes "a view of non-faulty nodes chosen at random" with
connectivity and bidirectionality guarantees supplied by HyParView.
"""

from __future__ import annotations

from repro.ids import NodeId
from repro.sim.node import ProtocolNode


class PeerSamplingNode(ProtocolNode):
    """Base class for nodes that expose a peer-sampling view."""

    # -- view ------------------------------------------------------------
    def neighbors(self) -> list[NodeId]:
        """The current exposed view (HyParView: the active view)."""
        raise NotImplementedError

    def join(self, contact: NodeId) -> None:
        """Start the join procedure through an existing system node."""
        raise NotImplementedError

    # -- membership hooks (the dissemination layer overrides them) -------
    def neighbor_up(self, peer: NodeId) -> None:
        """``peer`` entered the exposed view."""

    def neighbor_down(self, peer: NodeId, failure: bool) -> None:
        """``peer`` left the view; ``failure`` distinguishes crashes from
        graceful evictions/disconnects."""
