"""SimpleTree: centralized random tree with push dissemination (§III-D).

"We consider a tree created randomly with the help of a centralized node.
The only criteria for a node joining the tree is to connect to a parent
that joined earlier in the past ... This parent is provided by the
centralized node that randomly picks any of the previously joined nodes
as a parent for a newly joined node.  Dissemination is done by pushing
the messages immediately through tree links thus minimizing latency."

The coordinator is a real simulated node, so the "single communication
step with the centralized node" shows up in the stabilization bandwidth
exactly as in Fig. 12.  SimpleTree deliberately has **no** failure
handling — the paper excludes it from every dynamic experiment.
"""

from __future__ import annotations

from repro.config import SimpleTreeConfig
from repro.ids import NODE_ID_BYTES, SEQ_BYTES, NodeId, StreamId
from repro.sim.message import Message
from repro.sim.node import ProtocolNode

STREAM_BYTES = 2
MEASURE_BYTES = 8


class TreeJoin(Message):
    kind = "st_join"
    __slots__ = ()


class TreeJoinReply(Message):
    kind = "st_join_reply"
    __slots__ = ("parent",)

    def __init__(self, parent: NodeId) -> None:
        self.parent = parent

    def body_bytes(self) -> int:
        return NODE_ID_BYTES


class TreeAttach(Message):
    kind = "st_attach"
    __slots__ = ()


class TreeData(Message):
    kind = "st_data"
    __slots__ = ("stream", "seq", "payload_bytes", "hops", "path_delay", "sent_at")

    def __init__(
        self,
        stream: StreamId,
        seq: int,
        payload_bytes: int,
        hops: int = 0,
        path_delay: float = 0.0,
        sent_at: float = 0.0,
    ) -> None:
        self.stream = stream
        self.seq = seq
        self.payload_bytes = payload_bytes
        self.hops = hops
        self.path_delay = path_delay
        self.sent_at = sent_at

    def body_bytes(self) -> int:
        return STREAM_BYTES + SEQ_BYTES + MEASURE_BYTES + self.payload_bytes


class SimpleTreeCoordinator(ProtocolNode):
    """The centralized node: hands each joiner a random earlier joiner."""

    def __init__(self, network, node_id: NodeId, config: SimpleTreeConfig | None = None) -> None:
        super().__init__(network, node_id)
        self.config = config if config is not None else SimpleTreeConfig()
        #: Nodes in join order; index 0 is the first (root candidate).
        self.members: list[NodeId] = []
        #: Children handed out per member (for optional degree caps).
        self.assigned: dict[NodeId, int] = {}

    def on_st_join(self, src: NodeId, msg: TreeJoin) -> None:
        if not self.members:
            self.members.append(src)
            self.send(src, TreeJoinReply(src))  # joiner is the root
            return
        candidates = self.members
        if self.config.max_children:
            limited = [
                m for m in self.members
                if self.assigned.get(m, 0) < self.config.max_children
            ]
            candidates = limited or self.members
        parent = self._rng.choice(candidates)
        self.assigned[parent] = self.assigned.get(parent, 0) + 1
        self.members.append(src)
        self.send(src, TreeJoinReply(parent))


class SimpleTreeNode(ProtocolNode):
    """One SimpleTree participant."""

    def __init__(self, network, node_id: NodeId, coordinator_id: NodeId) -> None:
        super().__init__(network, node_id)
        self.coordinator_id = coordinator_id
        self.parent: NodeId | None = None
        self.children: list[NodeId] = []
        self.delivered: dict[StreamId, set[int]] = {}
        self.joined = False

    def delivered_count(self, stream: StreamId = 0) -> int:
        return len(self.delivered.get(stream, ()))

    # ------------------------------------------------------------------
    # Join
    # ------------------------------------------------------------------
    def join(self, contact: NodeId = -1) -> None:
        """Join through the coordinator (the contact argument exists only
        for testbed API compatibility and is ignored)."""
        self.send(self.coordinator_id, TreeJoin())

    def on_st_join_reply(self, src: NodeId, msg: TreeJoinReply) -> None:
        self.joined = True
        if msg.parent == self.node_id:
            return  # we are the root
        self.parent = msg.parent
        self.send(msg.parent, TreeAttach())

    def on_st_attach(self, src: NodeId, msg: TreeAttach) -> None:
        if src not in self.children:
            self.children.append(src)

    # ------------------------------------------------------------------
    # Dissemination (push through tree links)
    # ------------------------------------------------------------------
    def inject(self, stream: StreamId, seq: int, payload_bytes: int) -> None:
        self.transport.metrics.record_injection(stream, seq, self.clock.now)
        self.delivered.setdefault(stream, set()).add(seq)
        self._push(stream, seq, payload_bytes, hops=0, path_delay=0.0, exclude=None)

    def _push(
        self,
        stream: StreamId,
        seq: int,
        payload_bytes: int,
        hops: int,
        path_delay: float,
        exclude: NodeId | None,
    ) -> None:
        targets = list(self.children)
        # A non-root source also pushes up towards its parent so the whole
        # tree is covered regardless of which node injects.
        if self.parent is not None and self.parent != exclude:
            targets.append(self.parent)
        for peer in targets:
            if peer != exclude:
                self.send(
                    peer,
                    TreeData(
                        stream, seq, payload_bytes,
                        hops=hops, path_delay=path_delay, sent_at=self.clock.now,
                    ),
                )

    def on_st_data(self, src: NodeId, msg: TreeData) -> None:
        seen = self.delivered.setdefault(msg.stream, set())
        hop_delay = self.clock.now - msg.sent_at
        path_delay = msg.path_delay + hop_delay
        hops = msg.hops + 1
        self.transport.metrics.record_delivery(
            self.node_id, msg.stream, msg.seq, self.clock.now, src, hops, path_delay,
            msg.payload_bytes,
        )
        if msg.seq in seen:
            return
        seen.add(msg.seq)
        self._push(msg.stream, msg.seq, msg.payload_bytes, hops, path_delay, exclude=src)

    def on_crash(self) -> None:
        super().on_crash()
        self.delivered.clear()
