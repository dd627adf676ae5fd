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

from repro.baselines.base import BaselineNode
from repro.config import HyParViewConfig
from repro.ids import SEQ_BYTES, STREAM_BYTES, NodeId, StreamId
from repro.membership.hyparview import HyParViewNode
from repro.sim.message import Message, StreamData

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
#: Recovery horizon of the delivered-seq records, see DESIGN.md §14,
#: "The sequence record": a given-up seq never arrives, so without one
#: every later seq would stay in ``ahead``.  Membership is exact whatever
#: the value; it bounds ``ahead`` and the scan for the highest delivered.
PULL_HORIZON = 64


class PullData(StreamData):
    """One eagerly-pushed stream message (gossip copy)."""

    kind = "pull_data"
    __slots__ = ()


class PullRequest(Message):
    """Ask a neighbour for sequences this node observed gaps for."""

    kind = "pull_request"
    __slots__ = ("stream", "seqs")

    def __init__(self, stream: StreamId, seqs: tuple) -> None:
        self.stream = stream
        self.seqs = seqs

    def body_bytes(self) -> int:
        return STREAM_BYTES + SEQ_BYTES * len(self.seqs)


class PullReply(StreamData):
    """One recovered message served from a neighbour's store.  It is sent
    with ``hops = 0`` and ``path_delay = 0``: its receiver books it one
    hop from the server, delayed by that hop alone."""

    kind = "pull_reply"
    __slots__ = ()


class PullGossipNode(BaselineNode, HyParViewNode):
    """HyParView participant running lazy push + pull recovery."""

    seq_horizon = PULL_HORIZON

    def __init__(
        self,
        network,
        node_id: NodeId,
        hpv_config: HyParViewConfig | None = None,
    ) -> None:
        super().__init__(network, node_id, hpv_config)
        #: stream -> seq -> payload size, which pull requests are served
        #: from: every seq (DESIGN.md §14, "Serving stores").
        self.store: dict[StreamId, dict[int, int]] = {}
        #: stream -> seq -> pull attempts spent so far.
        self.missing: dict[StreamId, dict[int, int]] = {}
        #: Streams with a pull timer currently armed.
        self._pull_armed: set[StreamId] = set()

    # ------------------------------------------------------------------
    # Eager (probabilistic) push
    # ------------------------------------------------------------------
    def inject(self, stream: StreamId, seq: int, payload_bytes: int) -> None:
        self.book_injection(stream, seq)
        self.store.setdefault(stream, {})[seq] = payload_bytes
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
        first, hops, path_delay = self._deliver(src, msg)
        if first and hops < GOSSIP_TTL:
            self._gossip(
                msg.stream, msg.seq, msg.payload_bytes,
                exclude=src, hops=hops, path_delay=path_delay,
            )

    # ------------------------------------------------------------------
    # Delivery + gap tracking
    # ------------------------------------------------------------------
    def _deliver(self, src: NodeId, msg: StreamData) -> tuple[bool, int, float]:
        """Book one reception and track the gaps a first copy opens;
        returns :meth:`book_reception`'s ``(first, hops, path_delay)``."""
        stream, seq = msg.stream, msg.seq
        record = self.seqs[stream]
        # Only a seq whose predecessor is missing above the prefix opens
        # gaps: those above the highest seq delivered so far.
        top = seq
        ahead = record.ahead
        if seq - 1 > record.max_contig and seq - 1 not in ahead:
            top = max(ahead, default=record.max_contig)
        first, hops, path_delay = self.book_reception(src, msg)
        if first:
            self.store.setdefault(stream, {})[seq] = msg.payload_bytes
            missing = self.missing.setdefault(stream, {})
            missing.pop(seq, None)
            for gap in range(top + 1, seq):
                missing[gap] = 0
            if missing:
                self._arm_pull(stream)
        return first, hops, path_delay

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
        self._deliver(src, msg)

    def on_crash(self) -> None:
        super().on_crash()
        self.store.clear()
        self.missing.clear()
        self._pull_armed.clear()
