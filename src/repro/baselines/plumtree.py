"""PlumTree — Epidemic Broadcast Trees (Leitão, Pereira, Rodrigues 2007).

BRISA's closest relative and §V's main point of comparison: PlumTree
also prunes an embedded spanning tree out of an unstructured overlay by
detecting duplicates, but keeps the pruned links alive through *lazy
push* — every message's id is advertised (``IHave``) over inactive
links, and a missing-payload timer triggers a ``Graft`` that both
repairs the tree and recovers the message.

The §V trade-off this module lets the benches measure:

    "Due to the use of message advertisements to manage faults both
    PlumTree and GoCast fall in an undesirable tradeoff: either
    advertisements are sent sparingly to conserve bandwidth with an
    impact on recovery time, or advertisements are eagerly sent imposing
    a constant management overhead."

BRISA's steady state spends zero control messages per data message;
PlumTree pays one ``IHave`` per lazy link per message, forever.

Implementation follows the original paper over our HyParView layer:
``eager`` / ``lazy`` peer sets, PRUNE on duplicates, GRAFT on missing
payloads, with the missing-timer set from the configured interval.
"""

from __future__ import annotations

from collections import defaultdict

from repro.baselines.base import BaselineNode
from repro.config import HyParViewConfig
from repro.core.recovery import MessageBuffer
from repro.ids import SEQ_BYTES, STREAM_BYTES, NodeId, StreamId
from repro.membership.hyparview import HyParViewNode
from repro.sim.message import Message, StreamData


class Gossip(StreamData):
    """Eager push: full payload."""

    kind = "pt_gossip"
    __slots__ = ()


class IHave(Message):
    """Lazy push: message id only."""

    kind = "pt_ihave"
    __slots__ = ("stream", "seq")

    def __init__(self, stream: StreamId, seq: int) -> None:
        self.stream = stream
        self.seq = seq

    def body_bytes(self) -> int:
        return STREAM_BYTES + SEQ_BYTES


class Prune(Message):
    kind = "pt_prune"
    __slots__ = ("stream",)

    def __init__(self, stream: StreamId) -> None:
        self.stream = stream

    def body_bytes(self) -> int:
        return STREAM_BYTES


class Graft(Message):
    """Repair: re-attach the link eagerly and request a missing message."""

    kind = "pt_graft"
    __slots__ = ("stream", "seq")

    def __init__(self, stream: StreamId, seq: int) -> None:
        self.stream = stream
        self.seq = seq

    def body_bytes(self) -> int:
        return STREAM_BYTES + SEQ_BYTES


class PlumTreeNode(BaselineNode, HyParViewNode):
    """One PlumTree participant."""

    def __init__(
        self,
        network,
        node_id: NodeId,
        hpv_config: HyParViewConfig | None = None,
        *,
        missing_timeout: float = 0.3,
    ) -> None:
        super().__init__(network, node_id, hpv_config)
        self.missing_timeout = missing_timeout
        #: Per-stream eager/lazy split of the current neighbours.
        self.lazy: dict[StreamId, set[NodeId]] = {}
        #: stream -> the newest seqs and payload sizes, which grafts are
        #: served from (DESIGN.md §14, "Serving stores").
        self.store: defaultdict[StreamId, MessageBuffer] = defaultdict(MessageBuffer)
        #: (stream, seq) -> peers that advertised it (graft candidates).
        self._announced: dict[tuple[StreamId, int], list[NodeId]] = {}
        #: (stream, seq) already being waited for.
        self._pending_graft: set[tuple[StreamId, int]] = set()

    # ------------------------------------------------------------------
    # Broadcast
    # ------------------------------------------------------------------
    def inject(self, stream: StreamId, seq: int, payload_bytes: int) -> None:
        self.book_injection(stream, seq)
        self.store[stream].store(seq, payload_bytes)
        self._push(stream, seq, payload_bytes, exclude=None, hops=0, path_delay=0.0)

    def _push(
        self,
        stream: StreamId,
        seq: int,
        payload_bytes: int,
        exclude: NodeId | None,
        hops: int,
        path_delay: float,
    ) -> None:
        lazy = self.lazy.setdefault(stream, set())
        for peer in self.active:
            if peer == exclude:
                continue
            if peer in lazy:
                self.send(peer, IHave(stream, seq))
            else:
                self.send(
                    peer,
                    Gossip(
                        stream, seq, payload_bytes,
                        hops=hops, path_delay=path_delay, sent_at=self.clock.now,
                    ),
                )

    def on_pt_gossip(self, src: NodeId, msg: Gossip) -> None:
        first, hops, path_delay = self.book_reception(src, msg)
        lazy = self.lazy.setdefault(msg.stream, set())
        if not first:
            # Duplicate: prune the link (move the sender to lazy push).
            if src not in lazy:
                lazy.add(src)
                self.send(src, Prune(msg.stream))
            return
        # Delivered: no graft will ask who announced it.
        key = (msg.stream, msg.seq)
        self._pending_graft.discard(key)
        self._announced.pop(key, None)
        self.store[msg.stream].store(msg.seq, msg.payload_bytes)
        lazy.discard(src)  # an eager provider proves itself useful
        self._push(
            msg.stream, msg.seq, msg.payload_bytes,
            exclude=src, hops=hops, path_delay=path_delay,
        )

    def on_pt_prune(self, src: NodeId, msg: Prune) -> None:
        self.lazy.setdefault(msg.stream, set()).add(src)

    # ------------------------------------------------------------------
    # Lazy push + repair
    # ------------------------------------------------------------------
    def on_pt_ihave(self, src: NodeId, msg: IHave) -> None:
        key = (msg.stream, msg.seq)
        if msg.seq in self.seqs[msg.stream]:
            return
        self._announced.setdefault(key, []).append(src)
        if key not in self._pending_graft:
            self._pending_graft.add(key)
            self.after(self.missing_timeout, self._graft_timer, msg.stream, msg.seq)

    def _graft_timer(self, stream: StreamId, seq: int) -> None:
        key = (stream, seq)
        if key not in self._pending_graft:
            return  # payload arrived in time
        if seq in self.seqs[stream]:
            self._pending_graft.discard(key)
            return
        candidates = [
            p for p in self._announced.get(key, []) if self.is_active(p)
        ]
        if not candidates:
            self._pending_graft.discard(key)
            return
        target = candidates[0]
        self._announced[key] = candidates[1:]
        # Graft: the link becomes eager again and the payload is pulled.
        self.lazy.setdefault(stream, set()).discard(target)
        self.send(target, Graft(stream, seq))
        # Re-arm in case the grafted peer fails too.
        self.after(self.missing_timeout, self._graft_timer, stream, seq)

    def on_pt_graft(self, src: NodeId, msg: Graft) -> None:
        self.lazy.setdefault(msg.stream, set()).discard(src)
        payload = self.store[msg.stream].get(msg.seq)
        if payload is not None:
            self.send(
                src,
                Gossip(msg.stream, msg.seq, payload, sent_at=self.clock.now),
            )

    # ------------------------------------------------------------------
    def neighbor_down(self, peer: NodeId, failure: bool) -> None:
        for lazy in self.lazy.values():
            lazy.discard(peer)

    def on_crash(self) -> None:
        super().on_crash()
        self.store.clear()
        self.lazy.clear()
        self._announced.clear()
        self._pending_graft.clear()
