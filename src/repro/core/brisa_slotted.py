"""Slotted BRISA kernel: the maintenance cache behind the fan-sink seam.

The flood stack's slotted kernel (DESIGN.md §9) showed that at xxl
populations the dissemination cost is per-reception Python handler work.
BRISA's hot path carries more state than flooding — parent sets, stream
levels, link-activation bits, cycle-prevention positions — but in steady
state almost every reception is the *same* transition: first copy of the
next sequence, from the same parent, carrying the same position metadata,
relayed to the same children.  This kernel makes that transition a
handful of array operations on top of the shared slot store
(:mod:`repro.core.slots`):

- one :class:`_BrisaPlane` per stream (dense plane index, DESIGN.md §10)
  extending the store's seen maps and delivered/duplicate counters with
  exactly the columns the fast path reads: the per-slot
  :class:`StreamState` and the maintenance cache.  Parents, level,
  position and the fan-out set (active view minus out-deactivated
  links, :meth:`BrisaNode._relay_targets`) are held once, on the node,
  for both kernels;
- a per-slot *maintenance cache* ``(maint_src, maint_meta)`` keyed by
  object identity: the pure rule table (:mod:`repro.core.rules`) is a
  function of (position, parents, demote counts, backflow, meta), every
  mutation of those inputs funnels through a ``BrisaNode`` choke-point
  hook, and :class:`SlottedBrisaNode` overrides the hooks to invalidate
  the cache.  A reception whose (src, meta) match the cache *by
  identity* with all inputs untouched since must reproduce the previous
  maintenance decision — which, for a surviving cache, took no mutating
  branch — so the whole Fig. 3 / §II-G revalidation can be skipped.

The path predictor makes the identity check work end to end:
``BrisaNode._maintain_parent`` reassigns the position tuple only on an
actual change, so a steady parent re-sends the *same* tuple object every
message and the no-op is recognizable in O(1) instead of O(depth).

Receptions that miss the fast path (duplicates, structure changes,
repairs, unknown providers) fall back to the unmodified
``BrisaNode.on_brisa_data`` — both kernels share one rule table and one
protocol implementation, so parity is structural, not re-implemented.
"""

from __future__ import annotations

from repro.config import BrisaConfig, HyParViewConfig
from repro.core import messages as bm
from repro.core.brisa import BrisaNode
from repro.core.cycle import make_predictor
from repro.core.slots import INJECTED, RECEIVED, UNSEEN, SlotKernel, SlotPlane
from repro.core.state import StreamState
from repro.errors import SimulationError
from repro.ids import NodeId, StreamId

#: Local alias: the fast path builds forwards via ``__new__`` + direct
#: slot stores (the keyword constructor costs ~3x as much per message).
_Data = bm.Data


class _BrisaPlane(SlotPlane):
    """Per-stream slot plane: the flood plane's seen maps and counters
    plus what the BRISA fast path reads.

    ``states`` is the per-slot :class:`StreamState` (the one copy of
    parents, hops and position; the cold path and the repair machinery
    run on it; ``None`` for slots that never touched the stream).
    ``maint_*`` are the per-slot maintenance cache (see module
    docstring).
    """

    __slots__ = (
        "states", "maint_src", "maint_meta", "maint_cand", "maint_targets",
    )

    def __init__(self, stream: StreamId, capacity: int) -> None:
        super().__init__(stream, capacity)
        self.states: list[StreamState | None] = [None] * capacity
        #: Maintenance cache: last (src, meta) whose full revalidation
        #: took no mutating branch; ``maint_src[slot] is None`` = invalid.
        self.maint_src: list[NodeId | None] = [None] * capacity
        self.maint_meta: list = [None] * capacity
        #: The cached source's Candidate object (the EMA target), pinned
        #: at priming time: while the cache is valid the candidate entry
        #: cannot disappear (``neighbor_down`` is the only remover and it
        #: also drops the parent edge, which invalidates the cache).
        self.maint_cand: list = [None] * capacity
        #: Cached relay targets for the cached source (relay targets
        #: minus ``maint_src``), built lazily by the fast path; ``None`` =
        #: recompute.  Cleared alongside every ``maint_src`` write and on
        #: every change of the fan-out set.  The cached list is never
        #: mutated in place, so pending fan events may safely share it.
        self.maint_targets: list[list[NodeId] | None] = [None] * capacity

    def grow(self) -> None:
        super().grow()
        self.states.append(None)
        self.maint_src.append(None)
        self.maint_meta.append(None)
        self.maint_cand.append(None)
        self.maint_targets.append(None)

    def clear(self, slot: int) -> None:
        super().clear(slot)
        self.states[slot] = None
        self.maint_src[slot] = None
        self.maint_meta[slot] = None
        self.maint_cand[slot] = None
        self.maint_targets[slot] = None


class SlottedBrisaKernel(SlotKernel):
    """Flat-array BRISA state shared by every :class:`SlottedBrisaNode`."""

    plane_cls = _BrisaPlane
    # bench/trace.py looks its probes up in the class's own ``__dict__``:
    # a purely inherited method would be reported as a missing probe.
    install_rows = SlotKernel.install_rows

    def __init__(self, network, config: BrisaConfig | None = None) -> None:
        super().__init__(network)
        self.config = config if config is not None else BrisaConfig()
        self.num_parents = self.config.num_parents
        #: The one rule table's predictor: the ``Data`` attribute the
        #: metadata travels in, its filter width and per-relay growth.
        self.predictor = make_predictor(self.config)
        self._gap_cooldown = BrisaNode.GAP_REQUEST_COOLDOWN
        self._buffer_cap = self.config.buffer_size
        #: Last plane touched by the fan sink (streams arrive in runs).
        self._hot_stream: StreamId | None = None
        self._hot_plane: _BrisaPlane | None = None
        network.register_fan_sink(bm.Data.kind, self.on_fan)

    def plane(self, stream: StreamId) -> _BrisaPlane:
        # Plane objects are stable once created, so the hot-plane memo
        # used by the fan sink can never go stale.
        plane = self._hot_plane = super().plane(stream)
        self._hot_stream = stream
        return plane

    def duplicate_receptions(self, exclude_nodes=()) -> int:
        """Total duplicate receptions across every plane and slot.

        ``exclude_nodes`` drops whole node slots from the count — the
        scale accounting passes the publisher set so the total matches
        the object kernel's ``Metrics.duplicates_per_node`` sum, which
        cannot split a source node's counts by stream and therefore
        excludes source nodes outright.
        """
        total = sum(sum(plane.duplicates) for plane in self.planes)
        for node_id in exclude_nodes:
            slot = self.slot_of.get(node_id)
            if slot is not None:
                total -= sum(plane.duplicates[slot] for plane in self.planes)
        return total

    # -- delivery hot path ----------------------------------------------
    def on_fan(self, src: NodeId, dsts: list[NodeId], msg: bm.Data, size: int) -> None:
        """Process one whole fused fan-out of stream data.

        Per destination, in order (matching the generic fan loop): slot
        bookkeeping, then either the maintenance-cache fast path — the
        full steady-state transition inlined against the arrays — or
        cold delegation to the unmodified ``BrisaNode.on_brisa_data``.
        """
        stream = msg.stream
        seq = msg.seq
        plane = self._hot_plane if stream == self._hot_stream else self.plane(stream)
        rows = plane.rows
        row = rows[seq] if seq < len(rows) else self._row(plane, seq)
        slot_of = self.slot_of
        states = plane.states
        delivered = plane.delivered
        maint_src = plane.maint_src
        maint_meta = plane.maint_meta
        maint_cand = plane.maint_cand
        maint_targets = plane.maint_targets
        rx_bytes = self.rx_bytes
        mirror = self._mirror
        nodes = self.network.nodes
        fan_send = self.network.send_fan_unchecked
        now = self.sim.now
        hops = msg.hops + 1
        mpd = msg.path_delay
        path_delay = mpd + (now - msg.sent_at)
        payload = msg.payload_bytes
        predictor = self.predictor
        #: The message's cycle metadata, read once for the whole fan
        #: (the instance is shared by every recipient).
        meta = predictor.meta(msg)
        stamp = predictor.stamp
        buffer_cap = self._buffer_cap
        topup_seq = seq % 8 == 7
        # Arithmetic size: the forward differs from the incoming copy
        # only in metadata *values* (depth label, bloom mask) — same byte
        # layout — except under the path predictor, where the embedded
        # path grows by exactly this node (the cache invariant pins
        # position == msg.path + (self,)).
        fsize = size + predictor.relay_bytes
        for dst in dsts:
            slot = slot_of.get(dst)
            if slot is None:
                # Crashed (slot released) or not kernel-attached: fall
                # back to the generic single-delivery semantics.
                self.network._deliver_fast(src, dst, msg, size)
                continue
            rx_bytes[slot] += size
            if mirror:
                self.metrics.account_receive(dst, size)
            # A non-None cached source implies a materialized state and
            # a pinned candidate (set together at priming time).
            if src == maint_src[slot] and meta is maint_meta[slot] and not row[slot]:
                # Fast path: first copy of ``seq`` from the cached
                # parent with identity-identical metadata — the
                # previous revalidation of exactly these inputs took
                # no mutating branch (any hook would have cleared
                # the cache), so the Fig. 3 / §II-G maintenance step
                # is a proven no-op and only the delivery work runs.
                # (That prior MAINTAIN also stored ``parent_meta[src]
                # = meta``, so re-storing it here would be redundant.)
                state = states[slot]
                cand = maint_cand[slot]
                cand.path_delay = 0.7 * cand.path_delay + 0.3 * mpd
                if mirror:
                    self.metrics.record_delivery(
                        dst, stream, seq, now, src, hops, path_delay, payload
                    )
                row[slot] = RECEIVED
                delivered[slot] += 1
                # note_delivered + rules.wants_gap_recovery, inlined
                # and merged (§II-F): an unseen ``seq`` is never
                # below the contiguous prefix, so it either extends
                # the prefix or sits above a gap.
                sd = state.delivered
                sd.add(seq)
                mc = state.max_contig + 1
                if seq == mc:
                    while mc + 1 in sd:
                        mc += 1
                    state.max_contig = mc
                elif (
                    not msg.recovered
                    and now - state.last_gap_request > self._gap_cooldown
                ):
                    state.last_gap_request = now
                    self.network.send(
                        dst, src, bm.RetransmitRequest(stream, state.max_contig)
                    )
                if buffer_cap:
                    # MessageBuffer.store, inlined: ``seq`` is unseen
                    # here so the duplicate re-order branch cannot
                    # apply, and single inserts overflow by at most
                    # one entry.
                    items = state.buffer._items
                    items[seq] = payload
                    if len(items) > buffer_cap:
                        items.popitem(last=False)
                state.hops = hops
                targets = maint_targets[slot]
                if targets is None:
                    targets = nodes[dst]._relay_targets(state, src)
                    maint_targets[slot] = targets
                if targets:
                    # ``__new__`` + direct slot stores: the keyword
                    # constructor costs ~3x as much per forward.
                    fwd = _Data.__new__(_Data)
                    fwd.stream = stream
                    fwd.seq = seq
                    fwd.payload_bytes = payload
                    stamp(fwd, state.position)
                    fwd.hops = hops
                    fwd.path_delay = path_delay
                    fwd.sent_at = now
                    fwd.recovered = False
                    fwd._size = fsize
                    fan_send(dst, targets, fwd, fsize)
                if (
                    topup_seq
                    and len(state.parents) < self.num_parents
                    and not state.repairing
                ):
                    # Lazy DAG parent top-up (soft only), as in
                    # on_brisa_data.
                    nodes[dst]._begin_repair(state, record=False, allow_hard=False)
                continue
            self._cold(nodes[dst], slot, plane, row, src, msg, meta)

    # -- cold path (everything the maintenance cache does not prove) -----
    def _cold(self, node: "SlottedBrisaNode", slot: int, plane: _BrisaPlane,
              row: bytearray, src: NodeId, msg: bm.Data, meta) -> None:
        """Keep the arrays in step, optimistically prime the maintenance
        cache, then run the full protocol."""
        state = plane.states[slot]
        if state is None:
            state = node.stream_state(msg.stream)
        if not state.is_source:
            if row[slot] == RECEIVED:
                plane.duplicates[slot] += 1
            else:
                row[slot] = RECEIVED
                plane.delivered[slot] += 1
                if meta is not None and src in state.parents:
                    # If the revalidation below mutates anything, a
                    # choke-point hook clears this again.
                    self._prime(plane, slot, state, src, meta)
        node.on_brisa_data(src, msg, state)
        if (
            meta is not None
            and plane.maint_src[slot] is None
            and src in state.parents
            and state.parent_meta.get(src) is meta
        ):
            # Post-delegation priming: the call just adopted (or
            # refreshed from) exactly this (src, meta) — its final
            # state is a fixed point of that revalidation (position
            # was *set from* meta, so re-checking the same filter /
            # label / path is a no-op on every predictor).  Priming
            # here turns the adoption reception itself into the last
            # cold one instead of burning a second warm-up copy.
            self._prime(plane, slot, state, src, meta)

    @staticmethod
    def _prime(plane: _BrisaPlane, slot: int, state: StreamState,
               src: NodeId, meta) -> None:
        """Cache ``(src, meta)`` as ``slot``'s proven-no-op maintenance
        input (needs ``src``'s Candidate: the fast path's EMA target)."""
        cand = state.candidates.get(src)
        if cand is not None:
            plane.maint_src[slot] = src
            plane.maint_meta[slot] = meta
            plane.maint_cand[slot] = cand
            plane.maint_targets[slot] = None

    # -- per-message path (occupancy models, retransmissions) ------------
    def on_data(self, node: "SlottedBrisaNode", src: NodeId, msg: bm.Data) -> None:
        """Single-delivery entry (no fused fan): cold delegation only —
        per-message schedules never dominate, so the fast path is
        reserved for the fan sink."""
        plane = self.plane(msg.stream)
        row = self._row(plane, msg.seq)
        self._cold(node, node.slot, plane, row, src, msg, self.predictor.meta(msg))


class SlottedBrisaNode(BrisaNode):
    """BRISA participant backed by a :class:`SlottedBrisaKernel`.

    Protocol behaviour is the unmodified :class:`BrisaNode` — same rule
    table, same RNG streams (``rng_kind``), so slotted and object runs
    of one seed walk the same simulation.  ``Data`` receptions
    short-circuit into the kernel; the overridden mutation hooks apply
    the base effect, then invalidate the maintenance cache (inputs of
    the rule table) or its cached relay targets (link activation).
    """

    #: Consume the RNG streams of the reference implementation.
    rng_kind = "BrisaNode"

    def __init__(
        self,
        network,
        node_id: NodeId,
        config: BrisaConfig | None = None,
        hpv_config: HyParViewConfig | None = None,
        *,
        kernel: SlottedBrisaKernel,
    ) -> None:
        self.kernel = kernel
        self.slot = kernel.attach(node_id)
        super().__init__(network, node_id, config, hpv_config)
        if self.predictor.name != kernel.predictor.name:
            raise SimulationError(
                f"kernel predictor {kernel.predictor.name!r} != node predictor "
                f"{self.predictor.name!r}: one kernel serves one rule table"
            )

    # -- state wiring ---------------------------------------------------
    def stream_state(self, stream: StreamId) -> StreamState:
        state = self.streams.get(stream)
        if state is None:
            state = super().stream_state(stream)
            plane = self.kernel.plane(stream)
            plane.states[self.slot] = state
            # Hooks reach the plane through the state they are handed.
            state._plane = plane
        return state

    def delivered_count(self, stream: StreamId = 0) -> int:
        return self.kernel.delivered_count(self.slot, stream)

    # -- data plane -----------------------------------------------------
    def handle_message(self, src: NodeId, msg) -> None:
        # One type probe replaces the ``on_<kind>`` dispatch on the
        # dominant message kind; control traffic takes the regular path.
        if type(msg) is bm.Data:
            if self.alive:
                self.kernel.on_data(self, src, msg)
            return
        super().handle_message(src, msg)

    def inject(self, stream: StreamId, seq: int, payload_bytes: int) -> None:
        state = self.stream_state(stream)
        if not state.is_source:
            self.become_source(stream)
        plane = state._plane
        row = self.kernel._row(plane, seq)
        slot = self.slot
        if row[slot] == UNSEEN:
            row[slot] = INJECTED
            plane.delivered[slot] += 1
        super().inject(stream, seq, payload_bytes)

    # -- choke-point hooks: base effect + invalidate the cache ----------
    def _invalidate(self, state: StreamState) -> None:
        """An input of the maintenance rule changed: drop the cache."""
        plane = state._plane
        plane.maint_src[self.slot] = None
        plane.maint_targets[self.slot] = None

    def _set_position(self, state: StreamState, value) -> None:
        super()._set_position(state, value)
        self._invalidate(state)

    def _reset_position(self, state: StreamState) -> None:
        super()._reset_position(state)
        self._invalidate(state)

    def _add_parent_edge(self, state: StreamState, peer: NodeId, cand, meta) -> None:
        super()._add_parent_edge(state, peer, cand, meta)
        self._invalidate(state)

    def _drop_parent_edge(self, state: StreamState, peer: NodeId) -> bool:
        dropped = super()._drop_parent_edge(state, peer)
        if dropped:
            self._invalidate(state)
        return dropped

    def _bump_demote(self, state: StreamState, peer: NodeId, count: int) -> None:
        super()._bump_demote(state, peer, count)
        self._invalidate(state)

    # Link (de)activation only drops the cached relay targets; the
    # maintenance cache survives: backflow state is only consulted on
    # the demote branch of the maintenance rule, which a valid cache
    # proves unreachable (check_parent's verdict depends on position and
    # meta alone).  Membership changes reach here too: neighbor_up/_down
    # route through _unmute_out for every stream.
    def _mute_out(self, state: StreamState, peer: NodeId) -> None:
        super()._mute_out(state, peer)
        state._plane.maint_targets[self.slot] = None

    def _unmute_out(self, state: StreamState, peer: NodeId) -> None:
        super()._unmute_out(state, peer)
        state._plane.maint_targets[self.slot] = None

    # on_crash: slot release is driven by Network.crash through
    # SlotKernel.release_node (the kernel crash-release hook), after the
    # protocol teardown — not from the node.
