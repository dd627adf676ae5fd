"""TAG: tree-assisted gossip (Liu & Zhou 2006), as described in §III-D.

"TAG maintains a tree and a gossip-based overlay ... Nodes are further
organized in a linked list structure sorted by joining time, with nodes
maintaining information about their predecessors/successors up to two
hops away.  New nodes traverse this list backwards until an application
specific condition is met.  In the traversal, nodes pick k random peers
to form the gossip overlay and join the tree by choosing a suitable
parent.  Upon parent failures, nodes update the linked list and traverse
it to find a new parent and thus restore the tree.  With respect to
dissemination, TAG uses a pull-based approach with nodes pulling content
both from the tree and from gossip neighbors."

Key modelled behaviours (they drive Figs. 12–14 and Table II):

- **Per-hop connection setup.**  The traversal opens a fresh TCP
  connection at every hop (setup = 1.5 RTT), tears it down, and moves on;
  on wide-area latencies this dominates construction time (Fig. 13) —
  unlike BRISA, which keeps its HyParView connections open.
- **Pull-based dissemination.**  A child pulls from its parent every
  ``pull_period`` seconds, fetching at most ``pull_batch`` messages, and
  prefetches from a random gossip partner every ``gossip_pull_period``.
  The extra round trips and the bounded fetch rate are what double TAG's
  dissemination latency in Table II.
- **List-based repair.**  A failed parent/predecessor is patched from the
  2-hop list knowledge (soft); two consecutive failures break the list
  and force a re-insertion traversal (hard) — the recovery-delay CDF of
  Fig. 14.

The join entry point (learning the current list tail) goes through a
zero-cost tracker object, standing in for the rendezvous service any
join-time-ordered system needs; all traversal traffic and connection
setups are fully accounted.
"""

from __future__ import annotations

from typing import Optional

from repro.baselines.base import BaselineNode
from repro.config import TagConfig
from repro.ids import NODE_ID_BYTES, SEQ_BYTES, STREAM_BYTES, NodeId, StreamId
from repro.sim.message import Message, StreamData
from repro.sim.transport import TransientConnCost


# ----------------------------------------------------------------------
# Messages
# ----------------------------------------------------------------------
class ListProbe(Message):
    """Traversal step: ask a list node for its state (capacity, pred)."""

    kind = "tag_probe"
    __slots__ = ()


class ListProbeReply(Message):
    kind = "tag_probe_reply"
    __slots__ = ("pred", "pred2", "has_capacity")

    def __init__(self, pred: Optional[NodeId], pred2: Optional[NodeId], has_capacity: bool) -> None:
        self.pred = pred
        self.pred2 = pred2
        self.has_capacity = has_capacity

    def body_bytes(self) -> int:
        return 2 * NODE_ID_BYTES + 1


class ListAppend(Message):
    """Attach the sender as the new list successor (tail append)."""

    kind = "tag_append"
    __slots__ = ()


class ListAppendReply(Message):
    kind = "tag_append_reply"
    __slots__ = ("pred", "pred2")

    def __init__(self, pred: Optional[NodeId], pred2: Optional[NodeId]) -> None:
        self.pred = pred
        self.pred2 = pred2

    def body_bytes(self) -> int:
        return 2 * NODE_ID_BYTES


class ListSuccUpdate(Message):
    """Propagate successor knowledge one hop back (2-hop horizon)."""

    kind = "tag_succ_update"
    __slots__ = ("succ", "succ2")

    def __init__(self, succ: Optional[NodeId], succ2: Optional[NodeId]) -> None:
        self.succ = succ
        self.succ2 = succ2

    def body_bytes(self) -> int:
        return 2 * NODE_ID_BYTES


class TreeAttach(Message):
    """Ask a node to adopt the sender as a tree child."""

    kind = "tag_attach"
    __slots__ = ()


class TreeAttachReply(Message):
    kind = "tag_attach_reply"
    __slots__ = ("accepted",)

    def __init__(self, accepted: bool) -> None:
        self.accepted = accepted

    def body_bytes(self) -> int:
        return 1


class Pull(Message):
    """Pull request: the sender's high-water mark per known stream.  The
    responder serves gaps for every stream *it* knows, so new streams are
    discovered through the regular pull path."""

    kind = "tag_pull"
    __slots__ = ("have",)

    def __init__(self, have: tuple[tuple[StreamId, int], ...]) -> None:
        self.have = have

    def body_bytes(self) -> int:
        return max(1, len(self.have)) * (STREAM_BYTES + SEQ_BYTES)


class Segment(StreamData):
    """Pulled content segment."""

    kind = "tag_segment"
    __slots__ = ()


# ----------------------------------------------------------------------
# Tracker (join entry point)
# ----------------------------------------------------------------------
class TagTracker:
    """Rendezvous registry: remembers the current list tail.

    Zero-cost by design (see module docstring); every message the joiner
    exchanges afterwards is fully accounted.
    """

    def __init__(self) -> None:
        self.tail: Optional[NodeId] = None
        self.members: list[NodeId] = []

    def register_tail(self, node_id: NodeId) -> Optional[NodeId]:
        """Append a node; returns the previous tail (None for the first)."""
        prev = self.tail
        self.tail = node_id
        self.members.append(node_id)
        return prev

    def current_tail(self, exclude: NodeId) -> Optional[NodeId]:
        for member in reversed(self.members):
            if member != exclude:
                return member
        return None


# ----------------------------------------------------------------------
# Node
# ----------------------------------------------------------------------
class TagNode(BaselineNode):
    """One TAG participant."""

    def __init__(
        self,
        network,
        node_id: NodeId,
        tracker: TagTracker,
        config: TagConfig | None = None,
    ) -> None:
        super().__init__(network, node_id)
        self.config = config if config is not None else TagConfig()
        self.tracker = tracker
        self.conn_cost = TransientConnCost(network, node_id, self.config.connection_setup_rtts)

        # Linked list state (2-hop horizon in both directions).
        self.pred: Optional[NodeId] = None
        self.pred2: Optional[NodeId] = None
        self.succ: Optional[NodeId] = None
        self.succ2: Optional[NodeId] = None

        # Tree state.
        self.parent: Optional[NodeId] = None
        self.children: list[NodeId] = []

        # Gossip overlay.
        self.partners: list[NodeId] = []

        # Content: every seq is kept, since a joiner pulls from -1
        # (DESIGN.md §14, "Serving stores").
        self.store: dict[StreamId, dict[int, int]] = {}
        self.hops_estimate = 0

        # Join bookkeeping.
        self.joined = False
        self.join_started: Optional[float] = None
        self.settled_at: Optional[float] = None
        self._traversal_target: Optional[NodeId] = None
        self._repairing_since: Optional[float] = None
        self._repair_hard = False

        self._pull_task = self.periodic(self.config.pull_period, self._pull_parent, jitter=0.2)
        self._gossip_task = self.periodic(
            self.config.gossip_pull_period, self._pull_partner, jitter=0.2
        )

    # ------------------------------------------------------------------
    # Join: tail append + backwards traversal (§III-D)
    # ------------------------------------------------------------------
    def join(self, contact: NodeId = -1) -> None:
        """Join the system: append to the list tail, then traverse
        backwards collecting gossip partners until a parent with spare
        capacity is found.  ``contact`` is unused (tracker entry point)."""
        self.join_started = self.clock.now
        prev_tail = self.tracker.register_tail(self.node_id)
        if prev_tail is None:
            self.joined = True
            self.settled_at = self.clock.now
            return  # first node: list head and tree root
        self.conn_cost.connect(
            prev_tail,
            on_ready=lambda: self.send(prev_tail, ListAppend()),
            on_fail=lambda: self._retry_join(),
        )

    def _retry_join(self) -> None:
        if self.alive and not self.joined:
            tail = self.tracker.current_tail(self.node_id)
            if tail is None:
                self.joined = True
                self.settled_at = self.clock.now
                return
            self.conn_cost.connect(
                tail,
                on_ready=lambda: self.send(tail, ListAppend()),
                on_fail=lambda: self._retry_join(),
            )

    def on_tag_append(self, src: NodeId, msg: ListAppend) -> None:
        old_succ = self.succ
        self.succ = src
        self.succ2 = None
        self.send(src, ListAppendReply(self.node_id, self.pred))
        self.transport.register_link(self.node_id, src)
        # Keep the 2-hop horizon of our predecessor up to date.
        if self.pred is not None:
            self.send(self.pred, ListSuccUpdate(self.node_id, src))

    def on_tag_append_reply(self, src: NodeId, msg: ListAppendReply) -> None:
        self.pred = msg.pred
        # A re-inserting node can be its new predecessor's predecessor;
        # the 2-hop horizon never names the node itself.
        self.pred2 = msg.pred2 if msg.pred2 != self.node_id else None
        self.transport.register_link(self.node_id, src)
        self.joined = True
        # Traverse backwards for partners + parent.
        self._traverse(src)

    def on_tag_succ_update(self, src: NodeId, msg: ListSuccUpdate) -> None:
        if src == self.succ:
            self.succ2 = msg.succ if msg.succ != self.node_id else None

    def _traverse(self, target: NodeId) -> None:
        """One backwards traversal hop: fresh connection + probe."""
        self._traversal_target = target
        self.conn_cost.connect(
            target,
            on_ready=lambda: self.send(target, ListProbe()),
            on_fail=lambda: self._traverse_failed(target),
        )

    def _traverse_failed(self, target: NodeId) -> None:
        # Dead hop: restart the traversal from our own predecessor
        # knowledge, or re-insert from the tracker if the list is broken.
        if not self.alive:
            return
        if self.pred is not None and self.transport.alive(self.pred):
            self._traverse(self.pred)
        elif self.pred2 is not None and self.transport.alive(self.pred2):
            self._traverse(self.pred2)
        else:
            self._retry_join()

    def on_tag_probe(self, src: NodeId, msg: ListProbe) -> None:
        # Eligible parents need spare fan-out *and* enough buffered
        # content ahead of the joiner (the min_parent_age proxy for TAG's
        # application-specific traversal condition).
        eligible = (
            len(self.children) < self.config.max_children
            and self.uptime >= self.config.min_parent_age
        )
        self.send(src, ListProbeReply(self.pred, self.pred2, eligible))

    def on_tag_probe_reply(self, src: NodeId, msg: ListProbeReply) -> None:
        if src != self._traversal_target:
            return  # stale traversal step
        # Collect gossip partners along the traversal.
        if (
            src != self.node_id
            and src not in self.partners
            and len(self.partners) < self.config.gossip_partners
        ):
            self.partners.append(src)
        if msg.has_capacity:
            self.conn_cost.connect(
                src,
                on_ready=lambda: self.send(src, TreeAttach()),
                on_fail=lambda: self._traverse_failed(src),
            )
            return
        # A node that re-inserted behind its own successor finds itself
        # in that successor's list state: a traversal never steps onto
        # the node itself.
        pred = msg.pred if msg.pred != self.node_id else None
        pred2 = msg.pred2 if msg.pred2 != self.node_id else None
        if pred is not None:
            self._traverse(pred)
        elif pred2 is not None:
            self._traverse(pred2)
        else:
            # Reached the list head without capacity: attach to the head.
            self.conn_cost.connect(
                src,
                on_ready=lambda: self.send(src, TreeAttach()),
                on_fail=lambda: self._retry_join(),
            )

    def on_tag_attach(self, src: NodeId, msg: TreeAttach) -> None:
        if len(self.children) < self.config.max_children or not self.children:
            if src not in self.children:
                self.children.append(src)
            self.transport.register_link(self.node_id, src)
            self.send(src, TreeAttachReply(True))
        else:
            self.send(src, TreeAttachReply(False))

    def on_tag_attach_reply(self, src: NodeId, msg: TreeAttachReply) -> None:
        if not msg.accepted:
            self._traverse_failed(src)
            return
        self.parent = src
        self.transport.register_link(self.node_id, src)
        if self.settled_at is None:
            self.settled_at = self.clock.now
            if self.join_started is not None:
                self.transport.metrics.record_construction(
                    self.node_id, self.join_started, self.settled_at
                )
        if self._repairing_since is not None:
            duration = self.clock.now - self._repairing_since
            kind = "hard" if self._repair_hard else "soft"
            self.transport.metrics.record_repair(self.clock.now, self.node_id, kind, duration)
            self._repairing_since = None
            self._repair_hard = False

    # ------------------------------------------------------------------
    # Dissemination: pull from parent + prefetch from partners
    # ------------------------------------------------------------------
    def inject(self, stream: StreamId, seq: int, payload_bytes: int) -> None:
        self.book_injection(stream, seq)
        self.store.setdefault(stream, {})[seq] = payload_bytes

    def _have_marks(self) -> tuple[tuple[StreamId, int], ...]:
        return tuple((s, self.seqs[s].max_contig) for s in self.store)

    def _pull_parent(self) -> None:
        if self.parent is not None and self.transport.alive(self.parent):
            self.send(self.parent, Pull(self._have_marks()))

    def _pull_partner(self) -> None:
        live = [p for p in self.partners if self.transport.alive(p)]
        if not live:
            return
        peer = self._rng.choice(live)
        self.send(peer, Pull(self._have_marks()))

    def on_tag_pull(self, src: NodeId, msg: Pull) -> None:
        marks = dict(msg.have)
        for stream, per in self.store.items():
            have_up_to = marks.get(stream, -1)
            sent = 0
            for seq in sorted(per):
                if seq <= have_up_to:
                    continue
                self.send(
                    src,
                    Segment(
                        stream, seq, per[seq],
                        hops=self.hops_estimate, path_delay=0.0, sent_at=self.clock.now,
                    ),
                )
                sent += 1
                if sent >= self.config.pull_batch:
                    break

    def on_tag_segment(self, src: NodeId, msg: Segment) -> None:
        first, hops, _ = self.book_reception(src, msg)
        if not first:
            return
        self.hops_estimate = max(self.hops_estimate, hops)
        self.store.setdefault(msg.stream, {})[msg.seq] = msg.payload_bytes

    # ------------------------------------------------------------------
    # Failure handling (§III-D: list update, traversal, re-insertion)
    # ------------------------------------------------------------------
    def on_link_failed(self, peer: NodeId) -> None:
        if not self.alive:
            return
        list_broken = False
        if peer == self.pred:
            if self.pred2 is not None and self.transport.alive(self.pred2):
                self.pred = self.pred2
                self.pred2 = None
                self.transport.register_link(self.node_id, self.pred)
                self.send(self.pred, ListSuccUpdate(self.node_id, self.succ))
            else:
                list_broken = True
                self.pred = None
                self.pred2 = None
        if peer == self.succ:
            self.succ = self.succ2 if self.succ2 is not None and self.transport.alive(self.succ2) else None
            self.succ2 = None
            if self.succ is not None:
                self.transport.register_link(self.node_id, self.succ)
        if peer in self.children:
            self.children.remove(peer)
        if peer in self.partners:
            self.partners.remove(peer)
        if peer == self.parent:
            self.parent = None
            self._repairing_since = self.clock.now
            if self.pred is not None and self.transport.alive(self.pred):
                # Soft: restore the tree by traversing from the patched list.
                self._repair_hard = False
                self._traverse(self.pred)
            else:
                # Hard: the list is broken — re-insert through the tracker.
                self._repair_hard = True
                self._reinsert()
        elif list_broken:
            # List broken but parent alive: re-insert to repair the list.
            self._reinsert(repair_metric=False)

    def _reinsert(self, repair_metric: bool = True) -> None:
        tail = self.tracker.current_tail(self.node_id)
        if tail is None or not self.transport.alive(tail):
            live = [
                m for m in self.tracker.members
                if m != self.node_id and self.transport.alive(m)
            ]
            if not live:
                return
            tail = live[-1]
        self.conn_cost.connect(
            tail,
            on_ready=lambda: self.send(tail, ListAppend()),
            on_fail=lambda: self._reinsert(repair_metric),
        )

    def on_crash(self) -> None:
        super().on_crash()
        self.store.clear()
        self.children.clear()
        self.partners.clear()
