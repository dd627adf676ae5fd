"""HyParView: hybrid partial view membership (Leitão et al., DSN'07).

The reactive PSS BRISA builds on (§II-A):

- a small **active view** of bidirectional links backed by open TCP
  connections with heartbeat failure detection — only this view is exposed
  to the dissemination layer;
- a larger **passive view** maintained proactively by periodic shuffles,
  used as a reservoir of replacements when active entries fail.

Two paper-specific behaviours are implemented faithfully:

- **Expansion factor** (§II-A): the active view may grow up to
  ``active_size * expansion_factor`` before a join evicts somebody, and an
  eviction does *not* trigger a replacement while the view is still at or
  above the target size.  This damps the eviction chain reactions seen
  when bootstrapping with full views.
- **Bidirectionality**: every active link is mutual, which is what makes
  flooding complete without anti-entropy (§II-A) — the property BRISA's
  correctness rests on.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.config import HyParViewConfig
from repro.ids import NodeId
from repro.membership import messages as m
from repro.membership.base import PeerSamplingNode


class HyParViewNode(PeerSamplingNode):
    """One HyParView participant."""

    def __init__(
        self,
        network,
        node_id: NodeId,
        config: HyParViewConfig | None = None,
    ) -> None:
        super().__init__(network, node_id)
        self.hpv_config = config if config is not None else HyParViewConfig()
        #: Active view: insertion-ordered for deterministic iteration.
        self.active: dict[NodeId, None] = {}
        #: Passive view.
        self.passive: set[NodeId] = set()
        #: Peers we have sent a Neighbor request to and not heard back
        #: from, mapped to the attempt token of that request (stale
        #: timeouts must not cancel a newer in-flight request).
        self._pending_neighbor: dict[NodeId, int] = {}
        self._neighbor_seq = 0
        #: Candidates that rejected a Neighbor request in the current
        #: promotion episode.  They stay in the passive view (they are
        #: alive, just full — a later episode may find them with room),
        #: but are not re-asked until the episode exhausts the reservoir:
        #: without this, an under-full node whose reachable candidates
        #: all sit at their cap livelocks in a Neighbor/Reject ping-pong.
        self._promotion_rejected: set[NodeId] = set()
        self._shuffle_task = self.periodic(
            self.hpv_config.shuffle_period, self._shuffle, jitter=0.2
        )

    def __getattr__(self, name: str):
        # A passive view installed as a provider is resolved on first
        # read, like ``_rng`` in the base class: until then the instance
        # holds no ``passive`` entry, so every reader and writer lands
        # here first and sees the view an eager install would have left.
        if name == "passive":
            provider = self.__dict__.pop("_passive_provider", None)
            if provider is not None:
                view = self.passive = self._passive_entries(provider())
                return view
        return super().__getattr__(name)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def neighbors(self) -> list[NodeId]:
        return list(self.active)

    @property
    def degree(self) -> int:
        return len(self.active)

    def is_active(self, peer: NodeId) -> bool:
        return peer in self.active

    # ------------------------------------------------------------------
    # Synthesized / checkpointed bootstrap (DESIGN.md §7)
    # ------------------------------------------------------------------
    def install_overlay(
        self,
        active: "list[NodeId] | tuple[NodeId, ...] | set[NodeId]",
        passive: "Iterable[NodeId] | Callable[[], Iterable[NodeId]]",
        *,
        register_links: bool = True,
    ) -> None:
        """Wire a pre-built view directly into this node's state without
        simulating the join protocol.

        The caller owns the global invariants a settled join ramp would
        have produced — mutual active links, connectivity, view sizes
        within ``active_size``/``expansion_factor`` — and this method
        installs the local state exactly as the protocol would have left
        it: active entries with neighbour-up notifications, passive
        entries subject to the usual exclusion rules.  ``register_links=
        False`` lets a bulk bootstrap register all TCP links in one
        :meth:`Network.register_links` pass instead of twice per edge.

        A fresh node (both views empty — the bulk-bootstrap case) takes
        a batched path: the views are built with the bulk constructors
        instead of per-peer inserts, leaving only the neighbour-up
        notifications as per-peer work (DESIGN.md §8).

        ``passive`` is the view's entries or a zero-argument provider
        returning them (the "instance or provider, resolved on first
        use" idiom of ``PeriodicTask(rng=...)``).  A fresh node keeps a
        provider unresolved until something reads ``self.passive``: the
        reservoir is cold, and a failure-free run never touches it.  The
        provider's entries must already exclude what the view excludes
        at install time — this node and its ``active`` peers — so that
        resolving late equals installing eagerly
        (:class:`~repro.experiments.bootstrap.PassiveReservoir`
        guarantees it).  A non-fresh node resolves the provider at once.
        """
        if not self.active and not self.passive:
            fresh = dict.fromkeys(active)
            fresh.pop(self.node_id, None)
            self.active = fresh
            if register_links:
                register = self.transport.register_link
                for peer in fresh:
                    register(self.node_id, peer)
            for peer in fresh:
                self.neighbor_up(peer)
            if callable(passive):
                del self.passive
                self._passive_provider = passive
            else:
                self.passive = self._passive_entries(passive)
            return
        if callable(passive):
            passive = passive()
        for peer in active:
            if peer == self.node_id or peer in self.active:
                continue
            self.passive.discard(peer)
            self.active[peer] = None
            if register_links:
                self.transport.register_link(self.node_id, peer)
            self.neighbor_up(peer)
        for peer in passive:
            if peer != self.node_id and peer not in self.active:
                self.passive.add(peer)

    @classmethod
    def adopt_overlay(cls, nodes, views) -> bool:
        """Take a whole population's views from one store instead of one
        :meth:`install_overlay` per node?  ``False`` here: these nodes
        hold their views themselves.  A node class whose instances can
        stay dormant until membership touches them overrides it
        (:class:`~repro.baselines.flood.SlottedFloodNode`, DESIGN.md §8),
        so what the population *is* selects the path, not an option."""
        return False

    def _passive_entries(self, entries) -> set[NodeId]:
        """``entries`` under the passive view's exclusion rules."""
        active = self.active
        return {p for p in entries if p != self.node_id and p not in active}

    def overlay_snapshot(self) -> dict:
        """Serializable view state for overlay checkpoints."""
        return {
            "id": self.node_id,
            "active": list(self.active),
            "passive": sorted(self.passive),
        }

    # ------------------------------------------------------------------
    # Join protocol
    # ------------------------------------------------------------------
    def join(self, contact: NodeId) -> None:
        """Join the overlay through ``contact`` (§II-F: the new node is
        provided with an active view via its contact point)."""
        self.send(contact, m.Join())

    def on_hpv_join(self, src: NodeId, msg: m.Join) -> None:
        self._add_active(src)
        # Confirm the mutual link so the joiner installs us symmetrically.
        self.send(src, m.NeighborAccept())
        ttl = self.hpv_config.arwl
        for peer in list(self.active):
            if peer != src:
                self.send(peer, m.ForwardJoin(src, ttl))

    def on_hpv_forward_join(self, src: NodeId, msg: m.ForwardJoin) -> None:
        joiner, ttl = msg.joiner, msg.ttl
        if joiner == self.node_id or joiner in self.active:
            return
        if ttl <= 0 or len(self.active) <= 1:
            self._request_neighbor(joiner, priority=True)
            return
        if ttl == self.hpv_config.prwl:
            self._add_passive(joiner)
        candidates = [p for p in self.active if p not in (src, joiner)]
        if candidates:
            target = self._rng.choice(candidates)
            self.send(target, m.ForwardJoin(joiner, ttl - 1))
        else:
            self._request_neighbor(joiner, priority=True)

    # ------------------------------------------------------------------
    # Active-view management
    # ------------------------------------------------------------------
    def _add_active(self, peer: NodeId) -> None:
        """Insert ``peer`` into the active view, evicting if at the cap."""
        if peer == self.node_id or peer in self.active:
            return
        if len(self.active) >= self.hpv_config.max_active:
            victim = self._rng.choice(list(self.active))
            # Room is being made for an immediate insertion: do not seek a
            # replacement, or the freed slot gets re-filled and the new
            # peer evicted right back out.
            self._drop_active(victim, failure=False, notify_peer=True, replace=False)
        self.passive.discard(peer)
        self._pending_neighbor.pop(peer, None)
        self._promotion_rejected.discard(peer)
        self.active[peer] = None
        self.transport.register_link(self.node_id, peer)
        self.neighbor_up(peer)

    def _drop_active(
        self, peer: NodeId, *, failure: bool, notify_peer: bool, replace: bool = True
    ) -> None:
        if peer not in self.active:
            return
        del self.active[peer]
        self.transport.unregister_link(self.node_id, peer)
        if notify_peer:
            self.send(peer, m.Disconnect())
        if not failure:
            # Evicted peers stay reachable through the passive view.
            self._add_passive(peer)
        self.neighbor_down(peer, failure)
        if replace:
            self._maybe_replace()

    def _maybe_replace(self) -> None:
        """Promote from the passive view only below the *target* size —
        between target and target×expansion no replacement happens (§II-A)."""
        if len(self.active) + len(self._pending_neighbor) >= self.hpv_config.active_size:
            return
        candidates = [
            p
            for p in self.passive
            if p not in self._pending_neighbor and p not in self._promotion_rejected
        ]
        if not candidates:
            # Episode over: every reachable candidate was tried.  Clear
            # the rejection memory so the next membership event (or a
            # shuffle refilling the reservoir) re-arms promotion.
            self._promotion_rejected.clear()
            return
        candidate = self._rng.choice(candidates)
        self._request_neighbor(candidate, priority=len(self.active) == 0)

    def _request_neighbor(self, peer: NodeId, priority: bool) -> None:
        if peer == self.node_id or peer in self.active or peer in self._pending_neighbor:
            return
        self._neighbor_seq += 1
        self._pending_neighbor[peer] = self._neighbor_seq
        self.send(peer, m.Neighbor(priority))
        timeout = max(0.05, 6.0 * self.transport.rtt(self.node_id, peer))
        self.after(timeout, self._neighbor_timeout, peer, self._neighbor_seq)

    def _neighbor_timeout(self, peer: NodeId, attempt: int) -> None:
        if self._pending_neighbor.get(peer) != attempt:
            return  # answered in time, or a newer request is in flight
        # No answer: the candidate is unreachable.  Remove it from the
        # passive view (stale entries otherwise pin a pending slot
        # forever and shuffles keep re-spreading them) and move on.
        del self._pending_neighbor[peer]
        self.passive.discard(peer)
        self._maybe_replace()

    def on_hpv_neighbor(self, src: NodeId, msg: m.Neighbor) -> None:
        # Priority requests (orphaned/forced joins) are always accepted;
        # normal requests only when below the expanded cap.
        if msg.priority or len(self.active) < self.hpv_config.max_active:
            self._add_active(src)
            self.send(src, m.NeighborAccept())
        else:
            self.send(src, m.NeighborReject())

    def on_hpv_neighbor_accept(self, src: NodeId, msg: m.NeighborAccept) -> None:
        self._pending_neighbor.pop(src, None)
        self._add_active(src)

    def on_hpv_neighbor_reject(self, src: NodeId, msg: m.NeighborReject) -> None:
        self._pending_neighbor.pop(src, None)
        # The candidate is alive but full: remember the rejection for
        # this episode and try another candidate.
        self._promotion_rejected.add(src)
        self._maybe_replace()

    def on_hpv_disconnect(self, src: NodeId, msg: m.Disconnect) -> None:
        if src in self.active:
            self._drop_active(src, failure=False, notify_peer=False)

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------
    def on_link_failed(self, peer: NodeId) -> None:
        """Heartbeat/TCP failure detection on an active-view connection
        (§II-A): replace the failed neighbour from the passive view."""
        self.passive.discard(peer)
        self._pending_neighbor.pop(peer, None)
        self._promotion_rejected.discard(peer)
        if peer in self.active:
            del self.active[peer]
            self.transport.unregister_link(self.node_id, peer)
            self.neighbor_down(peer, failure=True)
        self._maybe_replace()

    # ------------------------------------------------------------------
    # Passive view maintenance (shuffles)
    # ------------------------------------------------------------------
    def _add_passive(self, peer: NodeId, sent_away: set[NodeId] | None = None) -> None:
        if peer == self.node_id or peer in self.active or peer in self.passive:
            return
        if len(self.passive) >= self.hpv_config.passive_size:
            # Prefer dropping entries we just shipped out in a shuffle.
            droppable = list(sent_away & self.passive) if sent_away else []
            victim = (
                self._rng.choice(droppable)
                if droppable
                else self._rng.choice(list(self.passive))
            )
            self.passive.discard(victim)
        self.passive.add(peer)

    def _shuffle_sample(self) -> tuple[NodeId, ...]:
        cfg = self.hpv_config
        active_sample = self._rng.sample(
            list(self.active), min(cfg.shuffle_active, len(self.active))
        )
        passive_sample = self._rng.sample(
            list(self.passive), min(cfg.shuffle_passive, len(self.passive))
        )
        return tuple({self.node_id, *active_sample, *passive_sample})

    def _shuffle(self) -> None:
        if not self.active:
            return
        target = self._rng.choice(list(self.active))
        self.send(target, m.Shuffle(self.node_id, self._shuffle_sample(), self.hpv_config.prwl))

    def on_hpv_shuffle(self, src: NodeId, msg: m.Shuffle) -> None:
        if msg.ttl > 0 and len(self.active) > 1:
            candidates = [p for p in self.active if p not in (src, msg.origin)]
            if candidates:
                target = self._rng.choice(candidates)
                self.send(target, m.Shuffle(msg.origin, msg.entries, msg.ttl - 1))
                return
        # Walk ended here: integrate and answer the origin with our sample.
        reply_sample = self._shuffle_sample()
        if msg.origin != self.node_id:
            self.send(msg.origin, m.ShuffleReply(reply_sample))
        self._integrate(msg.entries, sent_away=set(reply_sample))

    def on_hpv_shuffle_reply(self, src: NodeId, msg: m.ShuffleReply) -> None:
        self._integrate(msg.entries, sent_away=None)

    def _integrate(self, entries: tuple[NodeId, ...], sent_away: set[NodeId] | None) -> None:
        for peer in entries:
            self._add_passive(peer, sent_away)
        # A refreshed reservoir re-arms promotion: an under-full view
        # whose last episode exhausted its candidates retries at shuffle
        # cadence instead of never (live overlays) — while shuffle-free
        # static benchmark overlays stay quiescent so their heaps drain.
        self._maybe_replace()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def on_crash(self) -> None:
        super().on_crash()
        self.active.clear()
        self.passive.clear()
        self._pending_neighbor.clear()
        self._promotion_rejected.clear()
