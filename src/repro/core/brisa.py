"""BrisaNode: the BRISA protocol over a HyParView substrate (§II).

Life of a stream at one node:

1. **Bootstrap flood.** The source pushes every message to all active-view
   neighbours; nodes relay first receptions to all their other neighbours
   (infect-and-die).  Flooding is complete because the HyParView overlay
   is connected and bidirectional (§II-A).
2. **Emergence.** The first reception implicitly selects a parent; each
   duplicate triggers the link-deactivation decision of Fig. 3 — the
   parent-selection strategy keeps the cheaper provider and a
   ``Deactivate`` prunes the loser, subject to the cycle predictor
   (path embedding for trees, depth labels for DAGs).
3. **Steady state.** Messages flow only over active links: a tree delivers
   exactly one copy per node, a ``p``-parent DAG at most ``p``.  Almost
   every reception is then the same transition — first copy of the next
   sequence, from the same parent, with the same position metadata — and
   the maintenance cache on the stream state recognizes it by identity
   and skips the Fig. 3 / §II-G revalidation (``_steady_data``, DESIGN.md
   §11), on both kernels and every delivery plan.
4. **Dynamism** (§II-F).  New neighbours come up with their links active.
   A failed parent triggers a *soft repair* — adopt a current neighbour
   that passes the cycle check, one Activate/Ack exchange — or, when no
   neighbour is eligible, a *hard repair*: forget the position, reactivate
   every inbound link, and push a ``ReactivateOrder`` down the old
   subtree; the wave stops at nodes that can find replacement parents.
   Missed messages are recovered from the new parent's buffer.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.config import BrisaConfig, HyParViewConfig
from repro.core import messages as bm
from repro.core import rules
from repro.core.cycle import make_predictor
from repro.core.recovery import MessageBuffer
from repro.core.state import StreamState
from repro.core.strategies import Candidate, make_strategy
from repro.ids import NodeId, StreamId
from repro.membership.hyparview import HyParViewNode


class BrisaNode(HyParViewNode):
    """One BRISA participant (membership + dissemination layers)."""

    def __init__(
        self,
        network,
        node_id: NodeId,
        config: BrisaConfig | None = None,
        hpv_config: HyParViewConfig | None = None,
    ) -> None:
        super().__init__(network, node_id, hpv_config)
        self.config = config if config is not None else BrisaConfig()
        self.predictor = make_predictor(self.config)
        self.strategy = make_strategy(self.config.strategy)
        self.streams: dict[StreamId, StreamState] = {}

    # ------------------------------------------------------------------
    # State access
    # ------------------------------------------------------------------
    def stream_state(self, stream: StreamId) -> StreamState:
        state = self.streams.get(stream)
        if state is None:
            state = StreamState(stream, MessageBuffer(self.config.buffer_size))
            # All links to current neighbours start active (§II-C, §II-F).
            state.in_active = {peer: True for peer in self.active}
            state.active_in = len(state.in_active)
            self.streams[stream] = state
            if self.config.tail_probe:
                # Both kernels materialize state here, and the probe
                # only reads fields the steady path keeps current — so
                # the timer behaves identically on either kernel and
                # with or without the maintenance cache.
                self._arm_tail_probe(state, -1, 0)
        return state

    # NOTE on synthesized bootstrap (§II-C consistency): HyParViewNode.
    # install_overlay fires neighbor_up per installed peer, which runs
    # this class's hook below — every stream sees installed neighbours
    # exactly as live joins would have presented them (inbound links
    # start active, predictor position stays None = "fresh, anything
    # eligible"), so the bootstrap flood and emergence run unchanged
    # over synthesized overlays.

    def tree_parents(self, stream: StreamId) -> list[NodeId]:
        """Parent edges for one stream, without materializing state.

        The representation-independent read used by structure extraction
        (:mod:`repro.core.structure`), the live workers' reports and the
        tests: ``StreamState.parents`` is the one copy of the tree edges
        on both kernels.
        """
        state = self.streams.get(stream)
        return list(state.parents) if state is not None else []

    def children_of(self, stream: StreamId = 0) -> list[NodeId]:
        """Neighbours we still relay this stream to (≈ children once the
        structure has stabilized).  A pure read: an untouched stream
        relays to the whole active view and is not materialized."""
        state = self.streams.get(stream)
        if state is None:
            return list(self.active)
        return [
            p
            for p in self.active
            if p not in state.out_deactivated and p not in state.parents
        ]

    def delivered_count(self, stream: StreamId = 0) -> int:
        state = self.streams.get(stream)
        return len(state.delivered) if state is not None else 0

    # ------------------------------------------------------------------
    # Source API
    # ------------------------------------------------------------------
    def become_source(self, stream: StreamId = 0) -> None:
        state = self.stream_state(stream)
        state.is_source = True
        self._set_position(state, self.predictor.source_position(self.node_id))
        state.hops = 0

    # ------------------------------------------------------------------
    # State-mutation choke points
    # ------------------------------------------------------------------
    # Every mutation of the structure-bearing stream state (position,
    # parent edges, demote counts, link activation) funnels through one
    # of these hooks, and each drops what it invalidates of the
    # maintenance cache (_steady_data, DESIGN.md §11): an input of the
    # rule table clears the cache, a change of the fan-out set only its
    # cached relay targets.

    def _set_position(self, state: StreamState, value: Any) -> None:
        state.position = value
        state.maint_src = state.maint_targets = None

    def _reset_position(self, state: StreamState) -> None:
        state.reset_position()
        state.maint_src = state.maint_targets = None

    def _set_in_active(self, state: StreamState, peer: NodeId, value: bool) -> None:
        state.active_in += value - state.in_active.get(peer, False)
        state.in_active[peer] = value

    def _forget_in_active(self, state: StreamState, peer: NodeId) -> None:
        if state.in_active.pop(peer, None):
            state.active_in -= 1

    def _add_parent_edge(
        self, state: StreamState, peer: NodeId, cand: Candidate, meta: Any
    ) -> None:
        state.parents[peer] = cand
        state.parent_meta[peer] = meta
        state.maint_src = state.maint_targets = None

    def _drop_parent_edge(self, state: StreamState, peer: NodeId) -> bool:
        dropped = state.drop_parent(peer)
        if dropped:
            state.maint_src = state.maint_targets = None
        return dropped

    def _bump_demote(self, state: StreamState, peer: NodeId, count: int) -> None:
        state.demote_counts[peer] = count
        state.maint_src = state.maint_targets = None

    # Link (de)activation keeps the maintenance cache: backflow state is
    # only consulted on the demote branch of the maintenance rule, which
    # a valid cache proves unreachable (check_parent's verdict depends on
    # position and meta alone).  Membership changes reach here too:
    # neighbor_up/_down route through _unmute_out for every stream.
    def _mute_out(self, state: StreamState, peer: NodeId) -> None:
        state.out_deactivated.add(peer)
        state.maint_targets = None

    def _unmute_out(self, state: StreamState, peer: NodeId) -> None:
        state.out_deactivated.discard(peer)
        state.maint_targets = None

    def inject(self, stream: StreamId, seq: int, payload_bytes: int) -> None:
        """Publish one stream message (the experiment harness drives this)."""
        state = self.stream_state(stream)
        if not state.is_source:
            self.become_source(stream)
            state = self.stream_state(stream)
        self.transport.metrics.record_injection(stream, seq, self.clock.now)
        state.note_delivered(seq)
        state.buffer.store(seq, payload_bytes)
        self._forward(state, seq, payload_bytes, exclude=None, hops=0, path_delay=0.0)

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def _data_message(
        self,
        state: StreamState,
        seq: int,
        payload_bytes: int,
        hops: int,
        path_delay: float,
        recovered: bool = False,
    ) -> bm.Data:
        # ``__new__`` + slot stores: the keyword constructor costs ~3x as
        # much per message.
        msg = bm.Data.__new__(bm.Data)
        msg.stream = state.stream
        msg.seq = seq
        msg.payload_bytes = payload_bytes
        self.predictor.stamp(msg, state.position)
        msg.hops = hops
        msg.path_delay = path_delay
        msg.sent_at = self.clock.now
        msg.recovered = recovered
        return msg

    def _forward(
        self,
        state: StreamState,
        seq: int,
        payload_bytes: int,
        exclude: Optional[NodeId],
        hops: int,
        path_delay: float,
    ) -> None:
        peers = self._relay_targets(state, exclude)
        if peers:
            # One shared Data instance for the whole fan-out: it is
            # read-only at receivers, so batching through send_many fuses
            # the delivery event and computes size_bytes once instead of
            # per peer (the per-peer construction defeated the Message
            # size memoization entirely).
            self.send_many(
                peers, self._data_message(state, seq, payload_bytes, hops, path_delay)
            )

    def _relay_targets(
        self, state: StreamState, exclude: Optional[NodeId]
    ) -> list[NodeId]:
        """The relay rule of both kernels (§II-C, §II-E): the active view,
        in view order, minus the links our peers deactivated and minus
        ``exclude`` (the sender)."""
        return [
            peer
            for peer in self.active
            if peer != exclude and peer not in state.out_deactivated
        ]

    def on_brisa_data(self, src: NodeId, msg: bm.Data) -> None:
        state = self.streams.get(msg.stream)
        if state is None:
            state = self.stream_state(msg.stream)
        now = self.clock.now
        hops = msg.hops + 1
        path_delay = msg.path_delay + (now - msg.sent_at)
        meta = self.predictor.meta(msg)
        if self._steady_data(state, src, msg, meta, hops, path_delay):
            self.transport.metrics.record_delivery(
                self.node_id, state.stream, msg.seq, now, src, hops, path_delay,
                msg.payload_bytes,
            )
        else:
            self._cold_data(state, src, msg, meta, hops, path_delay)

    def _steady_data(
        self, state: StreamState, src: NodeId, msg: bm.Data, meta: Any,
        hops: int, path_delay: float,
    ) -> bool:
        """The maintenance-cache fast path (DESIGN.md §11): the steady
        transition of a formed structure, minus the delivery record,
        which the caller books.  Returns False, having changed nothing,
        unless this is the first copy of ``msg.seq`` from the cached
        parent with the cached metadata object.

        The previous revalidation of exactly this ``(src, meta)`` took no
        mutating branch — any choke-point hook would have cleared the
        cache — so the Fig. 3 / §II-G maintenance step is a proven no-op
        (it also stored ``parent_meta[src] = meta`` already) and only the
        delivery work runs.
        """
        seq = msg.seq
        if src != state.maint_src or meta is not state.maint_meta:
            return False
        if seq in state.delivered:
            return False
        cand = state.maint_cand
        cand.path_delay = 0.7 * cand.path_delay + 0.3 * msg.path_delay
        # rules.wants_gap_recovery, inlined (§II-F).  An unseen ``seq``
        # may sit below the prefix (the recovery horizon passed it): it
        # is delivered and relayed like any other, with no request.
        state.note_delivered(seq)
        if (
            seq > state.max_contig + 1
            and not msg.recovered
            and self.clock.now - state.last_gap_request > self.GAP_REQUEST_COOLDOWN
        ):
            state.last_gap_request = self.clock.now
            self.send(src, bm.RetransmitRequest(state.stream, state.max_contig))
        payload_bytes = msg.payload_bytes
        state.buffer.store(seq, payload_bytes)
        state.hops = hops
        targets = state.maint_targets
        if targets is None:
            targets = state.maint_targets = self._relay_targets(state, src)
        if targets:
            fwd = self._data_message(state, seq, payload_bytes, hops, path_delay)
            # The forward differs from ``msg`` only in metadata values
            # (same layout), except that a path grows by this node: the
            # cache pins position == meta + (self,).
            fwd._size = msg.size_bytes() + self.predictor.relay_bytes
            self.transport.send_many(self.node_id, targets, fwd)
        # The lazy DAG parent top-up, as in _cold_data.
        if (
            seq % 8 == 7
            and len(state.parents) < self.config.num_parents
            and not state.repairing
        ):
            self._begin_repair(state, record=False, allow_hard=False)
        return True

    def _cold_data(
        self, state: StreamState, src: NodeId, msg: bm.Data, meta: Any,
        hops: int, path_delay: float,
    ) -> None:
        """Every reception the maintenance cache does not prove steady:
        the full Fig. 3 decision, which also primes the cache."""
        if state.is_source:
            # The source needs no inbound providers: prune the link.
            self._deactivate_link(state, src)
            return

        now = self.clock.now
        seq = msg.seq
        is_neighbor = src in self.active
        if is_neighbor:
            cand = state.candidates.get(src)
            if cand is None:
                # First contact: arrival order and the observed delay are
                # all any strategy reads from this record; the declared
                # inputs are fetched at decision time (_candidate).
                state.candidates[src] = Candidate(
                    src, now, path_delay=msg.path_delay
                )
            else:
                # EMA over the sender's observed source-to-sender delay
                # (jitter-smoothed input for the delay-aware strategy).
                cand.path_delay = 0.7 * cand.path_delay + 0.3 * msg.path_delay

        first = seq not in state.delivered
        if not first:
            state.duplicates += 1
        self.transport.metrics.record_delivery(
            self.node_id, state.stream, seq, now, src, hops, path_delay,
            msg.payload_bytes,
        )

        if first:
            state.note_delivered(seq)
            state.buffer.store(seq, msg.payload_bytes)
            if is_neighbor:
                if meta is not None and src in state.parents:
                    # Optimistic: if the revalidation below mutates
                    # anything, a choke-point hook clears this again.
                    self._prime(state, src, meta)
                self._consider_provider(state, src, meta, first=True)
            if src in state.parents:
                state.hops = hops  # distance bookkeeping for retransmissions
                if rules.wants_gap_recovery(
                    seq, state.max_contig, msg.recovered,
                    now, state.last_gap_request, self.GAP_REQUEST_COOLDOWN,
                ):
                    # Sequence gap below this delivery: messages were lost
                    # in a swap/activation race — recover them from the
                    # parent's buffer (§II-F), rate-limited.
                    state.last_gap_request = now
                    self.send(src, bm.RetransmitRequest(state.stream, state.max_contig))
            # Infect-and-die relay: only first receptions propagate.
            self._forward(
                state, seq, msg.payload_bytes, exclude=src,
                hops=hops, path_delay=path_delay,
            )
            # Lazy DAG parent top-up: previously-ineligible neighbours may
            # have become eligible as the structure settled; retry the soft
            # acquisition every few messages (never escalates to hard).
            if (
                seq % 8 == 7
                and len(state.parents) < self.config.num_parents
                and not state.repairing
            ):
                self._begin_repair(state, record=False, allow_hard=False)
        elif is_neighbor and not msg.recovered:
            self._consider_provider(state, src, meta, first=False)
        if (
            meta is not None
            and state.maint_src is None
            and src in state.parents
            and state.parent_meta.get(src) is meta
        ):
            # This reception just adopted (or refreshed from) exactly this
            # (src, meta): the final state is a fixed point of that
            # revalidation (the position was *set from* meta), so the
            # adoption itself is the last cold reception.
            self._prime(state, src, meta)

    @staticmethod
    def _prime(state: StreamState, src: NodeId, meta: Any) -> None:
        """Cache ``(src, meta)`` as ``state``'s proven-no-op maintenance
        input (needs ``src``'s Candidate: the steady path's EMA target)."""
        cand = state.candidates.get(src)
        if cand is not None:
            state.maint_src = src
            state.maint_meta = meta
            state.maint_cand = cand
            state.maint_targets = None

    # ------------------------------------------------------------------
    # Parent selection (Fig. 3) and cycle handling
    # ------------------------------------------------------------------
    def _consider_provider(self, state: StreamState, src: NodeId, meta: Any, first: bool) -> None:
        """Apply the link-deactivation decision to a message from ``src``.

        The decision itself lives in :mod:`repro.core.rules` (the pure
        rule table); this method threads the verdicts through the node's
        side effects.
        """
        action = rules.provider_action(
            self.predictor, self.node_id, state.position,
            state.parents, self.config.num_parents, src, meta,
        )
        if action is rules.MAINTAIN:
            state.parent_meta[src] = meta
            self._maintain_parent(state, src, meta)
        elif action is rules.PRUNE:
            # Cycle risk (or unlabeled provider): this link can never feed
            # us as a parent — prune it before it delivers duplicates
            # forever.  (IGNORE, the zero-parent case, keeps the link as
            # fallback flow until a repair completes.)
            self._deactivate_link(state, src)
        elif action is rules.ADOPT:
            self._adopt_parent(state, src, meta)
        elif action is rules.CONTEND:
            # Parents full: strategy decides between newcomer and worst.
            # The newcomer is the first-contact record itself, brought
            # up to date on the strategy's declared inputs (it is only
            # compared, never kept: adoption takes its own snapshot).
            verdict, worst_peer = rules.contention_action(
                self.strategy, self._observe(state.candidates[src], state.stream),
                state.parents, first,
            )
            if verdict is rules.SWAP:
                self._remove_parent(state, worst_peer, deactivate=True)
                self._adopt_parent(state, src, meta)
            elif verdict is rules.REJECT:
                # KEEP_FEED (first reception from a non-parent) keeps the
                # live feed: deactivation is duplicate-triggered (Fig. 3).
                self._deactivate_link(state, src)
                if rules.symmetric_mute(
                    self.config, self.strategy, src in state.reactivated
                ):
                    # Symmetric optimization (§II-E, trees only): src
                    # demonstrably received this message first, so we can
                    # never become its first-come parent; stop relaying to
                    # it without spending a message.  Unsound for DAGs and
                    # for explicitly re-Activated links (see rules).
                    self._mute_out(state, src)

    def _observe(self, cand: Candidate, stream: StreamId) -> Candidate:
        """Fill in the inputs the strategy declares — the info the paper
        piggybacks on HyParView keep-alives (§II-E, §II-F).  A strategy
        that declares none (first-come) costs no transport call."""
        inputs = self.strategy.inputs
        if "rtt" in inputs:
            cand.rtt = self.transport.rtt(self.node_id, cand.peer)
        if "capacity" in inputs:
            cand.capacity = self.transport.capacity(cand.peer)
        if "load" in inputs:
            stats = self.transport.peer_stats(cand.peer, stream)
            if stats is not None:
                cand.uptime, cand.load = stats
        elif "uptime" in inputs:
            # Uptime alone never pays for the O(degree) relay-load count.
            uptime = self.transport.peer_uptime(cand.peer)
            if uptime is not None:
                cand.uptime = uptime
        return cand

    def _candidate(self, state: StreamState, peer: NodeId) -> Candidate:
        """Decision-time snapshot of ``peer``: first-contact arrival and
        smoothed delay (now / 0 when never heard from) plus the
        strategy's inputs."""
        seen = state.candidates.get(peer)
        if seen is None:
            cand = Candidate(peer, self.clock.now)
        else:
            cand = Candidate(peer, seen.arrival, path_delay=seen.path_delay)
        return self._observe(cand, state.stream)

    def _adopt_parent(self, state: StreamState, peer: NodeId, meta: Any) -> None:
        self._add_parent_edge(state, peer, self._candidate(state, peer), meta)
        if not state.in_active.get(peer, True):
            # We deactivated this peer in an earlier decision (dynamic
            # strategies swap back and forth while duplicates flow): the
            # peer still holds us in its out_deactivated set and would
            # never relay again — re-activate the link explicitly.
            self.send(peer, bm.Activate(state.stream, adopt=False))
        self._set_in_active(state, peer, True)
        state.demote_counts.pop(peer, None)
        # An equal-depth parent moves us down (§II-G), a new parent grows
        # the ancestor filter: either change reaches children promptly.
        self._reposition(state, self.predictor.join(self.node_id, state.position, meta))
        if state.hops is None:
            # The position implies no distance (a filter) and this parent
            # has not sent us data yet.
            state.hops = 1
        self._check_settled(state)
        if state.repairing:
            self._finish_repair(state)

    def _remove_parent(self, state: StreamState, peer: NodeId, deactivate: bool) -> None:
        self._drop_parent_edge(state, peer)
        if deactivate:
            self._deactivate_link(state, peer)

    #: Demotions attributable to one parent before we conclude the depth
    #: labels are chasing each other around a cycle and drop the parent.
    DEMOTE_LIMIT = 3

    #: Minimum spacing between gap-triggered retransmit requests.
    GAP_REQUEST_COOLDOWN = 0.5

    #: Quiescence window before a tail probe fires (config.tail_probe).
    #: Must sit above the inter-message spacing and link latency so an
    #: active stream keeps resetting the check instead of probing.
    TAIL_PROBE_DELAY = 0.25

    #: Consecutive no-progress probes before a node concludes the stream
    #: has genuinely ended and lets its timer drain.  Two rounds cover
    #: nested orphan subtrees: the outer root's recovery pushes fresh
    #: data into the inner subtree, whose own probe then has a caught-up
    #: parent to ask.
    TAIL_PROBE_ROUNDS = 2

    def _arm_tail_probe(self, state: StreamState, seen: int, rounds: int) -> None:
        self.after(self.TAIL_PROBE_DELAY, self._tail_probe, state, seen, rounds)

    def _tail_probe(self, state: StreamState, seen: int, rounds: int) -> None:
        """Quiescence check for invisible tail gaps (§II-F blind spot).

        Gap recovery in ``on_brisa_data`` needs a *later* seq to arrive
        before it can see a hole — so a lost final message orphans its
        entire subtree silently.  This timer re-arms while the stream
        makes progress; once quiet, it asks one parent for anything
        beyond the contiguous prefix.  Recovered data is a first
        reception downstream and re-enters ``_forward``, so one probe at
        each orphaned subtree's root repairs the whole subtree.  The
        timer stops (and the heap drains) after ``TAIL_PROBE_ROUNDS``
        probes yield nothing new.
        """
        progress = len(state.delivered)
        if progress != seen:
            # Stream still moving — reset the probe budget and recheck.
            self._arm_tail_probe(state, progress, 0)
            return
        if rounds >= self.TAIL_PROBE_ROUNDS or not state.parents:
            return
        parent = min(state.parents)
        self.send(parent, bm.RetransmitRequest(state.stream, state.max_contig))
        self._arm_tail_probe(state, progress, rounds + 1)

    def _maintain_parent(self, state: StreamState, src: NodeId, meta: Any) -> None:
        """Steady-state revalidation of an existing parent (§II-D, §II-G).

        Verdicts come from the shared rule table; PARENT_SKIP means the
        parent is mid-hard-repair (position forgotten) and re-flooding —
        its ReactivateOrder will arrive separately.
        """
        action, count = rules.maintenance_action(
            self.predictor, self.node_id, state.position, meta,
            state.demote_counts.get(src, 0),
            src not in state.out_deactivated,
            self.DEMOTE_LIMIT,
        )
        if action is rules.PARENT_SKIP:
            return
        if action is rules.PARENT_DROP_CYCLE:
            # "A node that detects a cycle from a parent simply makes the
            # link from that parent inactive and selects a new parent."
            self.transport.metrics.incr("cycles_detected")
            self._remove_parent(state, src, deactivate=True)
            if not state.parents:
                self._begin_repair(state, record=False)
        elif action is rules.PARENT_DROP_DEMOTED:
            # Mutual-adoption detection: a parent that keeps demoting us
            # while still accepting our relays is consuming us as its own
            # parent — a two-cycle chasing its own depth labels (§II-G
            # safety: cycles must never survive).
            self.transport.metrics.incr("cycles_detected")
            self._remove_parent(state, src, deactivate=True)
            state.demote_counts.pop(src, None)
            if not state.parents:
                self._begin_repair(state, record=False)
        elif action is rules.PARENT_DEMOTE_STEP:
            # Depth race: move below the parent (a demotion always
            # deepens us, check_parent's guarantee).
            self._bump_demote(state, src, count)
            self._reposition(state, self.predictor.adopt(self.node_id, meta))
        else:
            # PARENT_REFRESH: track our position from the parent's fresh
            # metadata.  Only reassign on an actual change: a steady
            # parent re-sends the same path every message, and keeping
            # the tuple identity stable is what lets downstream nodes
            # recognize the no-op by identity and skip this check
            # (_steady_data, DESIGN.md §11).
            position = self.predictor.refresh(
                self.node_id, state.position, meta, state.parent_meta.values()
            )
            if position != state.position:
                self._reposition(state, position)

    def _reposition(self, state: StreamState, position: Any) -> None:
        """Take ``position``: set it and the hop count it implies, and
        push the predictor's update to every neighbour still linked to
        us — including parents: in a pathological mutual-adoption pair
        the 'parent' is also our child and *must* observe the change for
        the cycle breaker in _maintain_parent to trigger."""
        old = state.position
        self._set_position(state, position)
        hops = self.predictor.hops(position)
        if hops is not None:
            state.hops = hops
        update = self.predictor.update(state.stream, old, position)
        if update is not None:
            peers = [p for p in self.active if p not in state.out_deactivated]
            if peers:
                self.send_many(peers, update)

    def on_position_update(self, src: NodeId, msg) -> None:
        """A parent pushed its new position (``DepthUpdate`` /
        ``BloomUpdate``): revalidate it."""
        state = self.stream_state(msg.stream)
        if src in state.parents:
            meta = state.parent_meta[src] = self.predictor.meta(msg)
            self._maintain_parent(state, src, meta)

    on_brisa_depth_update = on_brisa_bloom_update = on_position_update

    # ------------------------------------------------------------------
    # Link (de)activation
    # ------------------------------------------------------------------
    def _deactivate_link(self, state: StreamState, peer: NodeId) -> None:
        # Unknown peers (e.g. providers seen before the membership layer
        # reported them) are treated as active so the Deactivate is sent.
        if not state.in_active.get(peer, True):
            return
        self._set_in_active(state, peer, False)
        self.send(peer, bm.deactivate(state.stream))
        if state.first_deact_at is None:
            state.first_deact_at = self.clock.now
        self._check_settled(state)

    def _check_settled(self, state: StreamState) -> None:
        """Construction-time probe (Fig. 13): settled once all inbound
        links but the target number are deactivated."""
        if state.settled_at is not None or state.first_deact_at is None:
            return
        if state.active_in <= self.config.num_parents:
            state.settled_at = self.clock.now
            self.transport.metrics.record_construction(
                self.node_id, state.first_deact_at, state.settled_at
            )

    def on_brisa_deactivate(self, src: NodeId, msg: bm.Deactivate) -> None:
        state = self.stream_state(msg.stream)
        self._mute_out(state, src)
        # An explicit Deactivate re-arms the symmetric inference for src.
        state.reactivated.discard(src)

    def on_brisa_activate(self, src: NodeId, msg: bm.Activate) -> None:
        state = self.stream_state(msg.stream)
        self._unmute_out(state, src)
        state.reactivated.add(src)
        if msg.adopt:
            if state.repairing and state.repair_pending == src and self.node_id > src:
                # Crossing adopt requests: both sides are mid-repair
                # toward each other, and both Acks would carry
                # pre-adoption positions — committing a mutual parent
                # pair, a 2-cycle that a stream with no traffic left can
                # never detect.  Deterministic tie-break: the higher id
                # abandons its own request and serves the lower as child.
                state.repair_pending = None
                self._repair_next(state)
            fields = (
                self.predictor.message_fields(state.position)
                if state.position is not None
                else {}
            )
            self.send(src, bm.ActivateAck(msg.stream, **fields))

    # ------------------------------------------------------------------
    # Membership events
    # ------------------------------------------------------------------
    def neighbor_up(self, peer: NodeId) -> None:
        for state in self.streams.values():
            # Links to new nodes start active (§II-F).
            if peer not in state.in_active:
                self._set_in_active(state, peer, True)
            self._unmute_out(state, peer)

    def neighbor_down(self, peer: NodeId, failure: bool) -> None:
        for state in self.streams.values():
            self._forget_in_active(state, peer)
            self._unmute_out(state, peer)
            state.reactivated.discard(peer)
            state.candidates.pop(peer, None)
            if state.repair_pending == peer:
                state.repair_pending = None
                self._repair_next(state)
            if peer in state.parents:
                self._drop_parent_edge(state, peer)
                if state.engaged and not state.is_source:
                    self.transport.metrics.record_parent_loss(self.clock.now, self.node_id)
                    if not state.parents:
                        self.transport.metrics.record_orphan(self.clock.now, self.node_id)
                        self._begin_repair(state, record=True)
                    elif len(state.parents) < self.config.num_parents:
                        # DAG continuity: top the parent set back up, but
                        # this is not a disconnection (Table I counts only
                        # orphan repairs) and must never go hard.
                        self._begin_repair(state, record=False, allow_hard=False)

    # ------------------------------------------------------------------
    # Repairs (§II-F)
    # ------------------------------------------------------------------
    def _begin_repair(
        self, state: StreamState, record: bool, allow_hard: bool = True
    ) -> None:
        if state.repairing or not state.engaged or state.is_source:
            return
        state.repairing = True
        state.repair_record = record
        state.repair_started = self.clock.now
        state.repair_hard = False
        state.repair_allow_hard = allow_hard
        self._soft_repair(state)

    def _repair_candidates(self, state: StreamState) -> list[Candidate]:
        """Eligible replacement parents among current neighbours, using
        the keep-alive-piggybacked position info (§II-F)."""
        out = []
        for peer in self.active:
            if peer in state.parents:
                continue
            # The position a neighbour advertises on its keep-alives:
            # the simulator's transport reads the neighbour's live state
            # directly instead of simulating per-heartbeat piggyback
            # messages (see DESIGN.md §5); the Activate/Ack handshake
            # still re-validates before adoption.
            meta = self.transport.peer_position(peer, state.stream)
            if self.predictor.eligible(self.node_id, state.position, meta):
                out.append(self._candidate(state, peer))
        return out

    def _soft_repair(self, state: StreamState) -> None:
        candidates = self._repair_candidates(state)
        if not candidates:
            self._repair_exhausted(state)
            return
        state.repair_queue = self.strategy.sort(candidates)
        self._repair_next(state)

    def _repair_exhausted(self, state: StreamState) -> None:
        """No (more) soft candidates: escalate or give up quietly."""
        if state.repair_allow_hard and not state.repair_hard:
            self._hard_repair(state)
        elif not state.repair_allow_hard:
            # Top-up attempt failed (e.g. every neighbour sits below us —
            # the Fig. 10 single-parent case); service continues on the
            # remaining parents.
            state.repairing = False
            state.repair_pending = None
            state.repair_queue = []

    def _repair_next(self, state: StreamState) -> None:
        if not state.repairing:
            return
        while state.repair_queue:
            cand = state.repair_queue.pop(0)
            if not self.is_active(cand.peer):
                continue
            state.repair_pending = cand.peer
            state.repair_attempt += 1
            attempt = state.repair_attempt
            self.send(cand.peer, bm.Activate(state.stream, adopt=True))
            timeout = max(0.02, 6.0 * self.transport.rtt(self.node_id, cand.peer))
            self.after(timeout, self._repair_timeout, state.stream, attempt)
            return
        # Queue exhausted without adoption.
        self._repair_exhausted(state)

    def _repair_timeout(self, stream: StreamId, attempt: int) -> None:
        state = self.streams.get(stream)
        if state is None or not state.repairing:
            return
        if state.repair_attempt != attempt or state.repair_pending is None:
            return
        state.repair_pending = None
        self._repair_next(state)

    def on_brisa_activate_ack(self, src: NodeId, msg: bm.ActivateAck) -> None:
        state = self.stream_state(msg.stream)
        if not state.repairing or state.repair_pending != src:
            return
        state.repair_pending = None
        meta = self.predictor.meta(msg)
        if self.predictor.eligible(self.node_id, state.position, meta):
            self._adopt_parent(state, src, meta)
        else:
            # Same rule as _consider_provider: with zero parents the link
            # stays active as fallback flow.  Mid-storm positions are
            # transitional (an old subtree's paths still embed us); an
            # orphan that pruned every such neighbour would mute all its
            # inbound links and stay dark forever.
            if state.parents:
                self._deactivate_link(state, src)
            self._repair_next(state)

    def _finish_repair(self, state: StreamState) -> None:
        duration = self.clock.now - state.repair_started
        if state.repair_record:
            kind = "hard" if state.repair_hard else "soft"
            self.transport.metrics.record_repair(
                self.clock.now, self.node_id, kind, duration, state.stream
            )
        state.repairing = False
        state.repair_pending = None
        state.repair_queue = []
        # Recover anything missed while we were disconnected (§II-F).
        parent = next(iter(state.parents), None)
        if parent is not None:
            self.send(parent, bm.RetransmitRequest(state.stream, state.max_contig))

    def _hard_repair(self, state: StreamState) -> None:
        """Fall back to flooding: forget the position, re-activate every
        inbound link and re-bootstrap the subtree (§II-F)."""
        if state.repair_hard:
            return  # already hard; flooding will eventually reach us
        state.repair_hard = True
        old_parents = set(state.parents)
        for peer in old_parents:
            self._drop_parent_edge(state, peer)
        children = [
            p
            for p in self.active
            if p not in state.out_deactivated and p not in old_parents
        ]
        self._reset_position(state)
        peers = list(self.active)
        for peer in peers:
            self._set_in_active(state, peer, True)
        if peers:
            # One shared Activate for the whole re-activation wave (the
            # per-peer instances previously built here re-computed the
            # message size peer by peer).
            self.send_many(peers, bm.Activate(state.stream, adopt=False))
        if children:
            self.send_many(children, bm.ReactivateOrder(state.stream))
        # As a fresh node every neighbour is an eligible provider; try an
        # immediate adoption so service resumes before the next flood wave.
        state.repair_queue = self.strategy.sort(
            [self._candidate(state, p) for p in self.active]
        )
        self._repair_next(state)

    def on_brisa_reactivate_order(self, src: NodeId, msg: bm.ReactivateOrder) -> None:
        state = self.stream_state(msg.stream)
        # Our parent re-bootstrapped: it can no longer serve us.
        self._drop_parent_edge(state, src)
        if not state.engaged:
            return
        if state.parents:
            return  # other parents keep feeding us; wave stops here
        if state.repairing:
            return
        # Try to replace the re-activating parent locally; if impossible,
        # _soft_repair escalates to _hard_repair, which continues the wave
        # (the "nodes stop re-activating and propagating the order as soon
        # as they can select a suitable parent" rule of §II-F).
        self._begin_repair(state, record=False)

    # ------------------------------------------------------------------
    # Retransmissions
    # ------------------------------------------------------------------
    def on_brisa_retransmit(self, src: NodeId, msg: bm.RetransmitRequest) -> None:
        state = self.stream_state(msg.stream)
        hops = state.hops if state.hops is not None else 0
        for seq, payload_bytes in state.buffer.after(msg.have_up_to):
            self.send(
                src,
                self._data_message(
                    state, seq, payload_bytes, hops=hops, path_delay=0.0, recovered=True
                ),
            )

    # ------------------------------------------------------------------
    def on_crash(self) -> None:
        super().on_crash()
        self.streams.clear()
