"""Lazy probabilistic broadcast: eager push to a fanout + pull recovery.

The literature-standard comparator for BRISA's §II-F repair machinery
(Guerraoui & Rodrigues' *Lazy Probabilistic Broadcast*; cf. the gossip
reference in SNIPPETS.md): instead of flooding every overlay link, a
node receiving a message for the first time *gossips* it to a small
random sample of its active view (``GOSSIP_FANOUT``), bounded by a hop
TTL.  Push alone is probabilistic — it reaches roughly ``1 - e^-K`` of
the population — so delivery is completed by a **pull phase**: stream
sequence numbers expose gaps, and a node that observes ``seq`` while
missing earlier sequences requests them from a random active neighbour
after a short detection delay, retrying (elsewhere) a bounded number of
rounds.

Honest limitations of the scheme, kept deliberately (they are what make
it a *baseline* rather than a competitor):

- **Tail blindness** — a node that misses the final sequences of a
  stream and never sees a later one cannot know they exist, so it never
  pulls them.  Delivery therefore converges below 1.0 even on lossless
  links, unlike flooding (complete by bidirectionality) or BRISA
  (parent-buffer recovery down the emerged structure).
- **No anti-entropy** — recovery is driven only by observed gaps;
  there is no periodic digest exchange, so the heap drains and the
  scenario terminates exactly when the bounded pull rounds do.

Every per-node random draw (gossip targets, pull servers) comes from the
node's own derived stream (``rng_kind``), so runs are draw-for-draw
deterministic and independent of the latency and loss streams.
"""

from __future__ import annotations

from repro.config import HyParViewConfig
from repro.ids import SEQ_BYTES, NodeId, StreamId
from repro.membership.hyparview import HyParViewNode
from repro.sim.message import Message

from repro.baselines.flood import MEASURE_BYTES, STREAM_BYTES

#: Random peers a first delivery is gossiped to (K; coverage ~ 1-e^-K).
GOSSIP_FANOUT = 3
#: Hop TTL bounding the eager-push epidemic (diameter of the synthesized
#: overlays is O(log n); 12 covers the xl rung with a wide margin).
GOSSIP_TTL = 12
#: Seconds between observing a gap and asking a neighbour for it —
#: in-flight copies usually land within a couple of hop latencies, and
#: pulling too eagerly just buys duplicates.
PULL_DELAY = 0.05
#: Bounded retry rounds per missing sequence; after these the node gives
#: up (keeps drain-to-idle finite even when every request is lost).
PULL_ROUNDS = 8
#: Missing sequences batched into one request.
PULL_BATCH = 32


class PullData(Message):
    """One eagerly-pushed stream message (gossip copy)."""

    kind = "pull_data"
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


class PullRequest(Message):
    """Ask a neighbour for sequences this node observed gaps for."""

    kind = "pull_request"
    __slots__ = ("stream", "seqs")

    def __init__(self, stream: StreamId, seqs: tuple) -> None:
        self.stream = stream
        self.seqs = seqs

    def body_bytes(self) -> int:
        return STREAM_BYTES + SEQ_BYTES * len(self.seqs)


class PullReply(Message):
    """One recovered message served from a neighbour's store."""

    kind = "pull_reply"
    __slots__ = ("stream", "seq", "payload_bytes", "sent_at")

    def __init__(
        self, stream: StreamId, seq: int, payload_bytes: int, sent_at: float = 0.0
    ) -> None:
        self.stream = stream
        self.seq = seq
        self.payload_bytes = payload_bytes
        self.sent_at = sent_at

    def body_bytes(self) -> int:
        return STREAM_BYTES + SEQ_BYTES + MEASURE_BYTES + self.payload_bytes


class PullGossipNode(HyParViewNode):
    """HyParView participant running lazy push + pull recovery."""

    def __init__(
        self,
        network,
        node_id: NodeId,
        hpv_config: HyParViewConfig | None = None,
    ) -> None:
        super().__init__(network, node_id, hpv_config)
        #: stream -> delivered sequence numbers (the scale-accounting book).
        self.delivered: dict[StreamId, set[int]] = {}
        #: stream -> seq -> payload size; the store pull requests are
        #: served from (sizes only — payloads are synthetic at scale).
        self.store: dict[StreamId, dict[int, int]] = {}
        #: stream -> highest sequence ever observed.
        self.max_seen: dict[StreamId, int] = {}
        #: stream -> seq -> pull attempts spent so far.
        self.missing: dict[StreamId, dict[int, int]] = {}
        #: Streams with a pull timer currently armed.
        self._pull_armed: set[StreamId] = set()

    def delivered_count(self, stream: StreamId = 0) -> int:
        return len(self.delivered.get(stream, ()))

    # ------------------------------------------------------------------
    # Eager (probabilistic) push
    # ------------------------------------------------------------------
    def inject(self, stream: StreamId, seq: int, payload_bytes: int) -> None:
        self.transport.metrics.record_injection(stream, seq, self.clock.now)
        self.delivered.setdefault(stream, set()).add(seq)
        self.store.setdefault(stream, {})[seq] = payload_bytes
        prior = self.max_seen.get(stream, -1)
        if seq > prior:
            self.max_seen[stream] = seq
        self._gossip(stream, seq, payload_bytes, exclude=None, hops=0, path_delay=0.0)

    def _gossip(
        self,
        stream: StreamId,
        seq: int,
        payload_bytes: int,
        exclude: NodeId | None,
        hops: int,
        path_delay: float,
    ) -> None:
        peers = [peer for peer in self.active if peer != exclude]
        if not peers:
            return
        if len(peers) > GOSSIP_FANOUT:
            peers = self._rng.sample(peers, GOSSIP_FANOUT)
        self.send_many(
            peers,
            PullData(
                stream, seq, payload_bytes,
                hops=hops, path_delay=path_delay, sent_at=self.clock.now,
            ),
        )

    def on_pull_data(self, src: NodeId, msg: PullData) -> None:
        hop_delay = self.clock.now - msg.sent_at
        path_delay = msg.path_delay + hop_delay
        hops = msg.hops + 1
        first = self._deliver(
            msg.stream, msg.seq, msg.payload_bytes, src, hops, path_delay
        )
        if first and hops < GOSSIP_TTL:
            self._gossip(
                msg.stream, msg.seq, msg.payload_bytes,
                exclude=src, hops=hops, path_delay=path_delay,
            )

    # ------------------------------------------------------------------
    # Delivery + gap tracking
    # ------------------------------------------------------------------
    def _deliver(
        self,
        stream: StreamId,
        seq: int,
        payload_bytes: int,
        src: NodeId,
        hops: int,
        path_delay: float,
    ) -> bool:
        """Record one reception; track gaps; return True iff first."""
        seen = self.delivered.setdefault(stream, set())
        self.transport.metrics.record_delivery(
            self.node_id, stream, seq, self.clock.now, src, hops, path_delay,
            payload_bytes,
        )
        if seq in seen:
            return False
        seen.add(seq)
        self.store.setdefault(stream, {})[seq] = payload_bytes
        missing = self.missing.setdefault(stream, {})
        missing.pop(seq, None)
        prior = self.max_seen.get(stream, -1)
        if seq > prior:
            for gap in range(prior + 1, seq):
                if gap not in seen and gap not in missing:
                    missing[gap] = 0
            self.max_seen[stream] = seq
        if missing:
            self._arm_pull(stream)
        return True

    # ------------------------------------------------------------------
    # Pull recovery
    # ------------------------------------------------------------------
    def _arm_pull(self, stream: StreamId) -> None:
        if stream in self._pull_armed:
            return
        self._pull_armed.add(stream)
        self.after(PULL_DELAY, self._pull_round, stream)

    def _pull_round(self, stream: StreamId) -> None:
        self._pull_armed.discard(stream)
        missing = self.missing.get(stream)
        if not missing:
            return
        # Retire sequences whose retry budget is spent — the bound that
        # keeps drain-to-idle finite when every request or reply is lost.
        for seq in [s for s, tries in missing.items() if tries >= PULL_ROUNDS]:
            del missing[seq]
        if not missing:
            return
        batch = sorted(missing)[:PULL_BATCH]
        for seq in batch:
            missing[seq] += 1
        peers = list(self.active)
        if peers:
            server = self._rng.choice(peers)
            self.send(server, PullRequest(stream, tuple(batch)))
        # Re-arm while anything retriable remains: retries for this batch
        # and first attempts for sequences beyond the batch window.
        if any(tries < PULL_ROUNDS for tries in missing.values()):
            self._arm_pull(stream)

    def on_pull_request(self, src: NodeId, msg: PullRequest) -> None:
        held = self.store.get(msg.stream)
        if not held:
            return
        now = self.clock.now
        for seq in msg.seqs:
            payload_bytes = held.get(seq)
            if payload_bytes is not None:
                self.send(src, PullReply(msg.stream, seq, payload_bytes, sent_at=now))

    def on_pull_reply(self, src: NodeId, msg: PullReply) -> None:
        # Recovered copies are not re-gossiped (lazy push already ran its
        # course for this sequence) — recovery repairs, it does not flood.
        self._deliver(
            msg.stream, msg.seq, msg.payload_bytes, src,
            hops=1, path_delay=self.clock.now - msg.sent_at,
        )

    def on_crash(self) -> None:
        super().on_crash()
        self.delivered.clear()
        self.store.clear()
        self.max_seen.clear()
        self.missing.clear()
        self._pull_armed.clear()
