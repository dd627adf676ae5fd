"""SimpleGossip: Cyclon + rumor mongering + anti-entropy (§III-D).

"We use Cyclon as the PSS.  Due to its proactive nature we use a
combination of rumor mongering (push) to infect most of the nodes and
anti-entropy (pull) to ensure completeness.  Rumor mongering follows an
infect and die strategy with a fanout of ln(N) ... anti-entropy exchanges
updates with a single random node with a frequency that is the double of
the message creation ratio."

Nodes keep a message store (seq -> payload size) per stream to serve
anti-entropy pulls; digests carry the contiguous high-water mark plus the
out-of-order extras so the responder can compute the exact gap set.
"""

from __future__ import annotations

from repro.config import CyclonConfig, GossipConfig
from repro.ids import SEQ_BYTES, NodeId, StreamId
from repro.membership.cyclon import CyclonNode
from repro.sim.message import Message

STREAM_BYTES = 2
MEASURE_BYTES = 8

#: Messages served per anti-entropy exchange (bounds burst size).
ANTI_ENTROPY_BATCH = 16


class Rumor(Message):
    """Push phase: infect-and-die rumor.  ``hot=False`` marks anti-entropy
    repairs, which are stored but not re-pushed (old news travels by pull,
    per Demers et al.)."""

    kind = "sg_rumor"
    __slots__ = (
        "stream", "seq", "payload_bytes", "hops", "path_delay", "sent_at", "hot",
    )

    def __init__(
        self,
        stream: StreamId,
        seq: int,
        payload_bytes: int,
        hops: int = 0,
        path_delay: float = 0.0,
        sent_at: float = 0.0,
        hot: bool = True,
    ) -> None:
        self.stream = stream
        self.seq = seq
        self.payload_bytes = payload_bytes
        self.hops = hops
        self.path_delay = path_delay
        self.sent_at = sent_at
        self.hot = hot

    def body_bytes(self) -> int:
        return STREAM_BYTES + SEQ_BYTES + MEASURE_BYTES + self.payload_bytes


class Digest(Message):
    """Anti-entropy request: what the sender already has."""

    kind = "sg_digest"
    __slots__ = ("stream", "max_contig", "extras")

    def __init__(self, stream: StreamId, max_contig: int, extras: frozenset[int]) -> None:
        self.stream = stream
        self.max_contig = max_contig
        self.extras = extras

    def body_bytes(self) -> int:
        return STREAM_BYTES + SEQ_BYTES + len(self.extras) * SEQ_BYTES


class SimpleGossipNode(CyclonNode):
    """One SimpleGossip participant."""

    def __init__(
        self,
        network,
        node_id: NodeId,
        gossip_config: GossipConfig | None = None,
        *,
        anti_entropy_period: float = 0.1,
        cyclon_config: CyclonConfig | None = None,
    ) -> None:
        cfg = gossip_config if gossip_config is not None else GossipConfig()
        super().__init__(network, node_id, cyclon_config or cfg.cyclon)
        self.gossip_config = cfg
        #: stream -> {seq: payload_bytes} (serves anti-entropy pulls)
        self.store: dict[StreamId, dict[int, int]] = {}
        #: stream -> contiguous high-water mark
        self.max_contig: dict[StreamId, int] = {}
        self._anti_entropy_task = self.periodic(
            anti_entropy_period, self._anti_entropy, jitter=0.2
        )

    # ------------------------------------------------------------------
    def delivered_count(self, stream: StreamId = 0) -> int:
        return len(self.store.get(stream, ()))

    def _fanout(self) -> int:
        return self.gossip_config.effective_fanout(len(self.transport.nodes))

    def _store(self, stream: StreamId, seq: int, payload_bytes: int) -> None:
        per = self.store.setdefault(stream, {})
        per[seq] = payload_bytes
        hwm = self.max_contig.get(stream, -1)
        while (hwm + 1) in per:
            hwm += 1
        self.max_contig[stream] = hwm

    # ------------------------------------------------------------------
    # Push phase: rumor mongering, infect and die
    # ------------------------------------------------------------------
    def inject(self, stream: StreamId, seq: int, payload_bytes: int) -> None:
        self.transport.metrics.record_injection(stream, seq, self.clock.now)
        self._store(stream, seq, payload_bytes)
        self._push_rumor(stream, seq, payload_bytes, exclude=None, hops=0, path_delay=0.0)

    def _push_rumor(
        self,
        stream: StreamId,
        seq: int,
        payload_bytes: int,
        exclude: NodeId | None,
        hops: int,
        path_delay: float,
    ) -> None:
        peers = [p for p in self.view if p != exclude]
        fanout = min(self._fanout(), len(peers))
        for peer in self._rng.sample(peers, fanout):
            self.send(
                peer,
                Rumor(
                    stream, seq, payload_bytes,
                    hops=hops, path_delay=path_delay, sent_at=self.clock.now,
                ),
            )

    def on_sg_rumor(self, src: NodeId, msg: Rumor) -> None:
        per = self.store.get(msg.stream, {})
        hop_delay = self.clock.now - msg.sent_at
        path_delay = msg.path_delay + hop_delay
        hops = msg.hops + 1
        self.transport.metrics.record_delivery(
            self.node_id, msg.stream, msg.seq, self.clock.now, src, hops, path_delay,
            msg.payload_bytes,
        )
        if msg.seq in per:
            return  # infect-and-die: duplicates are dropped, not relayed
        self._store(msg.stream, msg.seq, msg.payload_bytes)
        if msg.hot:
            self._push_rumor(
                msg.stream, msg.seq, msg.payload_bytes,
                exclude=src, hops=hops, path_delay=path_delay,
            )

    # ------------------------------------------------------------------
    # Pull phase: anti-entropy for completeness
    # ------------------------------------------------------------------
    def _anti_entropy(self) -> None:
        if not self.view:
            return
        peer = self._rng.choice(list(self.view))
        for stream in self.store.keys() | {0}:
            per = self.store.get(stream, {})
            hwm = self.max_contig.get(stream, -1)
            extras = frozenset(s for s in per if s > hwm)
            self.send(peer, Digest(stream, hwm, extras))

    def on_sg_digest(self, src: NodeId, msg: Digest) -> None:
        per = self.store.get(msg.stream)
        if not per:
            return
        have = msg.extras
        sent = 0
        for seq in sorted(per):
            if seq <= msg.max_contig or seq in have:
                continue
            self.send(
                src,
                Rumor(
                    msg.stream, seq, per[seq],
                    hops=0, path_delay=0.0, sent_at=self.clock.now, hot=False,
                ),
            )
            sent += 1
            if sent >= ANTI_ENTROPY_BATCH:
                break

    def on_crash(self) -> None:
        super().on_crash()
        self.store.clear()
        self.max_contig.clear()
