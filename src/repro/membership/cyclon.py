"""Cyclon: inexpensive membership by age-based shuffles (Voulgaris et al.).

The *proactive* PSS used by the SimpleGossip baseline (§III-D): the view
is refreshed continuously by periodic exchanges, giving a stream of fresh
random samples but no stable neighbour set.  Crucially — and the paper
leans on this in the Fig. 12 discussion — Cyclon has **no explicit
failure detection**: dead entries simply age out when a shuffle towards
them goes unanswered.

Join is implemented as contact seeding (the joiner receives a sample of
the contact's view and the contact inserts the joiner), a standard
simplification of Cyclon's random-walk join that preserves the steady
state the baseline needs; see DESIGN.md.
"""

from __future__ import annotations

from repro.config import CyclonConfig
from repro.ids import NodeId
from repro.membership import messages as m
from repro.membership.base import PeerSamplingNode


class CyclonNode(PeerSamplingNode):
    """One Cyclon participant."""

    def __init__(
        self,
        network,
        node_id: NodeId,
        config: CyclonConfig | None = None,
    ) -> None:
        super().__init__(network, node_id)
        self.cyclon_config = config if config is not None else CyclonConfig()
        #: peer -> age
        self.view: dict[NodeId, int] = {}
        #: Entries shipped in an in-flight shuffle towards each peer.
        self._in_flight: dict[NodeId, tuple[tuple[NodeId, int], ...]] = {}
        self._shuffle_task = self.periodic(
            self.cyclon_config.shuffle_period, self._shuffle, jitter=0.2
        )

    # ------------------------------------------------------------------
    def neighbors(self) -> list[NodeId]:
        return list(self.view)

    def join(self, contact: NodeId) -> None:
        self.send(contact, m.CyclonJoin())

    def on_cyc_join(self, src: NodeId, msg: m.CyclonJoin) -> None:
        sample = tuple(
            (p, a)
            for p, a in self._rng.sample(
                list(self.view.items()), min(len(self.view), self.cyclon_config.view_size - 1)
            )
            if p != src
        )
        self.send(src, m.CyclonJoinReply(sample + ((self.node_id, 0),)))
        self._insert(src, 0)

    def on_cyc_join_reply(self, src: NodeId, msg: m.CyclonJoinReply) -> None:
        for peer, age in msg.entries:
            self._insert(peer, age)

    # ------------------------------------------------------------------
    # Shuffle
    # ------------------------------------------------------------------
    def _shuffle(self) -> None:
        if not self.view:
            return
        for peer in self.view:
            self.view[peer] += 1
        # Contact the oldest entry (most likely to be stale).
        oldest = max(self.view, key=lambda p: (self.view[p], p))
        self.view.pop(oldest)
        sample = self._sample_entries(self.cyclon_config.shuffle_length - 1, exclude=oldest)
        entries = sample + ((self.node_id, 0),)
        self._in_flight[oldest] = entries
        self.send(oldest, m.CyclonShuffle(entries))

    def _sample_entries(
        self, count: int, exclude: NodeId | None = None
    ) -> tuple[tuple[NodeId, int], ...]:
        pool = [(p, a) for p, a in self.view.items() if p != exclude]
        picked = self._rng.sample(pool, min(count, len(pool)))
        return tuple(picked)

    def on_cyc_shuffle(self, src: NodeId, msg: m.CyclonShuffle) -> None:
        reply = self._sample_entries(self.cyclon_config.shuffle_length, exclude=src)
        self.send(src, m.CyclonShuffleReply(reply))
        self._merge(msg.entries, replaceable={p for p, _ in reply})

    def on_cyc_shuffle_reply(self, src: NodeId, msg: m.CyclonShuffleReply) -> None:
        sent = self._in_flight.pop(src, ())
        self._merge(msg.entries, replaceable={p for p, _ in sent})

    def _merge(
        self, entries: tuple[tuple[NodeId, int], ...], replaceable: set[NodeId]
    ) -> None:
        for peer, age in entries:
            if peer == self.node_id:
                continue
            if peer in self.view:
                self.view[peer] = min(self.view[peer], age)
                continue
            if len(self.view) < self.cyclon_config.view_size:
                self._insert(peer, age)
                continue
            # Replace entries we shipped out, else the oldest entry.
            victims = [p for p in replaceable if p in self.view]
            victim = victims[0] if victims else max(self.view, key=lambda p: (self.view[p], p))
            self.view.pop(victim)
            replaceable.discard(victim)
            self._insert(peer, age)

    def _insert(self, peer: NodeId, age: int) -> None:
        if peer == self.node_id:
            return
        if peer in self.view:
            self.view[peer] = min(self.view[peer], age)
            return
        if len(self.view) >= self.cyclon_config.view_size:
            victim = max(self.view, key=lambda p: (self.view[p], p))
            self.view.pop(victim)
        self.view[peer] = age
        self.neighbor_up(peer)

    # ------------------------------------------------------------------
    def on_crash(self) -> None:
        super().on_crash()
        self.view.clear()
        self._in_flight.clear()
