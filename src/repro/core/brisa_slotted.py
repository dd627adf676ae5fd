"""Slotted BRISA kernel: flat-array tree state behind the fan-sink seam.

The flood stack's slotted kernel (DESIGN.md §9) showed that at xxl
populations the dissemination cost is per-reception Python handler work.
BRISA's hot path carries more state than flooding — parent sets, stream
levels, link-activation bits, cycle-prevention positions — but in steady
state almost every reception is the *same* transition: first copy of the
next sequence, from the same parent, carrying the same position metadata,
relayed to the same children.  This kernel makes that transition a
handful of array operations:

- one :class:`_BrisaPlane` per stream (dense plane index, DESIGN.md §10)
  holding seen maps, per-slot delivered/duplicate/payload counters,
  stream *levels* (``StreamState.hops``), the per-slot *relay rows*
  (active view minus out-deactivated links — the fan-out set) and
  *parent rows* (tree edges in adoption order), plus a
  packed :class:`~repro.core.bloom_matrix.BloomBitMatrix` of §II-F
  ancestor filters when the bloom predictor is active;
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

Slot lifecycle mirrors the flood kernel, but release is driven through
:meth:`repro.sim.network.Network.register_kernel`: ``Network.crash``
calls :meth:`SlottedBrisaKernel.release_node` after the node teardown,
zeroing the slot's cells — tree-edge rows included — in every plane
before the slot can be recycled by a churn joiner.
"""

from __future__ import annotations

from array import array

from repro.config import BrisaConfig, HyParViewConfig
from repro.core import messages as bm
from repro.core.bloom_matrix import BloomBitMatrix
from repro.core.brisa import BrisaNode
from repro.core.cycle import make_predictor
from repro.core.state import StreamState
from repro.errors import SimulationError
from repro.ids import NODE_ID_BYTES as _NODE_ID_BYTES, NodeId, StreamId

#: Seen-map cell states (shared convention with the flood kernel):
#: ``_INJECTED`` marks a sequence the slot's node itself published.
_UNSEEN, _INJECTED, _RECEIVED = 0, 1, 2

#: Local alias: the fast path builds forwards via ``__new__`` + direct
#: slot stores (the keyword constructor costs ~3x as much per message).
_Data = bm.Data


class _BrisaPlane:
    """Per-stream slot plane: one stream's flat BRISA state.

    The flood plane's seen maps and counters, plus the tree state the
    ISSUE's §II structures need: ``levels`` mirrors ``StreamState.hops``
    (0 while unset), ``relay_rows`` are the per-slot fan-out sets
    (active view minus out-deactivated, in active-view order),
    ``parent_rows`` the tree edges in adoption order, and ``states``
    the per-slot :class:`StreamState` (the cold path and the repair
    machinery still run on it; ``None`` for slots that never touched
    the stream).  ``maint_src``/``maint_meta`` are
    the per-slot maintenance cache (see module docstring).
    """

    __slots__ = (
        "stream", "rows", "delivered", "duplicates", "payload_bytes",
        "levels", "relay_rows", "parent_rows", "states",
        "maint_src", "maint_meta", "maint_cand", "maint_targets", "matrix",
    )

    def __init__(self, stream: StreamId, capacity: int, bloom_bits: int = 0) -> None:
        self.stream = stream
        #: Seen maps indexed by seq; one byte cell per slot.
        self.rows: list[bytearray] = []
        zeros = bytes(8 * capacity)
        self.delivered = array("q", zeros)
        self.duplicates = array("q", zeros)
        self.payload_bytes = array("q", zeros)
        #: Tree level per slot (``StreamState.hops``; 0 while unset).
        self.levels = array("q", zeros)
        #: Per-slot relay targets: active view minus out-deactivated.
        self.relay_rows: list[list[NodeId]] = [[] for _ in range(capacity)]
        #: Per-slot tree edges (parents, adoption order).
        self.parent_rows: list[list[NodeId]] = [[] for _ in range(capacity)]
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
        #: Cached relay targets for the cached source (relay row minus
        #: ``maint_src``), filled lazily by the fast path; ``None`` =
        #: recompute.  Cleared alongside every ``maint_src`` write and on
        #: every relay-row mutation.  The cached list is never mutated in
        #: place, so pending fan events may safely share it.
        self.maint_targets: list[list[NodeId] | None] = [None] * capacity
        #: Packed §II-F ancestor filters (bloom predictor only).
        self.matrix = BloomBitMatrix(bloom_bits, capacity) if bloom_bits else None


class SlottedBrisaKernel:
    """Flat-array BRISA state shared by every :class:`SlottedBrisaNode`."""

    def __init__(self, network, config: BrisaConfig | None = None) -> None:
        self.network = network
        self.sim = network.sim
        self.metrics = network.metrics
        #: Mirror receptions into Metrics (parity/record mode)?
        self._mirror = network.metrics.record_deliveries
        self.config = config if config is not None else BrisaConfig()
        self.num_parents = self.config.num_parents
        #: Concrete predictor name, doubling as the ``Data`` metadata
        #: attribute it travels in ("path" / "depth" / "bloom").
        self.meta_attr = make_predictor(self.config).name
        self._bloom_bits = (
            self.config.bloom_bits if self.meta_attr == "bloom" else 0
        )
        self._gap_cooldown = BrisaNode.GAP_REQUEST_COOLDOWN
        self._buffer_cap = self.config.buffer_size
        #: Last plane touched by the fan sink (streams arrive in runs).
        self._hot_stream: StreamId | None = None
        self._hot_plane: _BrisaPlane | None = None
        self.slot_of: dict[NodeId, int] = {}
        self._free: list[int] = []
        self.capacity = 0
        #: Wire bytes received per slot on the fan-sink path.
        self.rx_bytes = array("q")
        #: Per-slot live peer ids, in active-view insertion order (the
        #: overlay is stream-agnostic; per-stream relay rows start as a
        #: copy of this row when the stream state materializes).
        self.neighbor_rows: list[list[NodeId]] = []
        #: While True, membership notifications skip per-peer row
        #: appends — a bulk bootstrap installs the rows from the CSR
        #: arrays in one :meth:`install_rows` pass instead.
        self.bulk_rows = False
        self.planes: list[_BrisaPlane] = []
        self.plane_of: dict[StreamId, int] = {}
        network.register_fan_sink(bm.Data.kind, self.on_fan)
        network.register_kernel(self)

    # -- slot lifecycle -------------------------------------------------
    def attach(self, node_id: NodeId) -> int:
        """Allocate (or recycle) a slot for ``node_id``."""
        free = self._free
        if free:
            slot = free.pop()
        else:
            slot = self.capacity
            self.capacity += 1
            self.rx_bytes.append(0)
            self.neighbor_rows.append([])
            for plane in self.planes:
                plane.delivered.append(0)
                plane.duplicates.append(0)
                plane.payload_bytes.append(0)
                plane.levels.append(0)
                plane.relay_rows.append([])
                plane.parent_rows.append([])
                plane.states.append(None)
                plane.maint_src.append(None)
                plane.maint_meta.append(None)
                plane.maint_cand.append(None)
                plane.maint_targets.append(None)
                if plane.matrix is not None:
                    plane.matrix.grow(self.capacity)
                for row in plane.rows:
                    row.append(_UNSEEN)
        self.slot_of[node_id] = slot
        return slot

    def release_node(self, node_id: NodeId) -> None:
        """:meth:`Network.crash` hook: drop the dead node's slot state."""
        slot = self.slot_of.get(node_id)
        if slot is not None:
            self.release(node_id, slot)

    def release(self, node_id: NodeId, slot: int) -> None:
        """Return a crashed node's slot to the free list, zeroed —
        tree-edge rows and Bloom filter row included — in every plane."""
        if self.slot_of.pop(node_id, None) is None:
            return
        self.rx_bytes[slot] = 0
        self.neighbor_rows[slot] = []
        for plane in self.planes:
            plane.delivered[slot] = 0
            plane.duplicates[slot] = 0
            plane.payload_bytes[slot] = 0
            plane.levels[slot] = 0
            plane.relay_rows[slot] = []
            plane.parent_rows[slot] = []
            plane.states[slot] = None
            plane.maint_src[slot] = None
            plane.maint_meta[slot] = None
            plane.maint_cand[slot] = None
            plane.maint_targets[slot] = None
            if plane.matrix is not None:
                plane.matrix.clear_row(slot)
            for row in plane.rows:
                row[slot] = _UNSEEN
        self._free.append(slot)

    def install_rows(self, ids, topo) -> None:
        """Bulk-build the neighbor rows from CSR adjacency arrays.

        ``topo`` is a :class:`repro.experiments.bootstrap.CSRTopology`
        over ``ids``; row order matches what ``install_overlay``'s
        ``neighbor_up`` notifications would have accumulated — set
        :attr:`bulk_rows` around the view installation so that work is
        skipped rather than redone."""
        offsets = topo.offsets
        neighbors = topo.neighbors
        rows = self.neighbor_rows
        slot_of = self.slot_of
        for i, nid in enumerate(ids):
            rows[slot_of[nid]] = [
                ids[j] for j in neighbors[offsets[i] : offsets[i + 1]]
            ]

    # -- slot planes ----------------------------------------------------
    def plane(self, stream: StreamId) -> _BrisaPlane:
        """The slot plane for ``stream`` (created on first touch)."""
        idx = self.plane_of.get(stream)
        if idx is None:
            idx = self.plane_of[stream] = len(self.planes)
            self.planes.append(
                _BrisaPlane(stream, self.capacity, self._bloom_bits)
            )
        # Plane objects are stable once created, so the hot-plane memo
        # used by the fan sink can never go stale.
        plane = self.planes[idx]
        self._hot_stream = stream
        self._hot_plane = plane
        return plane

    def _row(self, plane: _BrisaPlane, seq: int) -> bytearray:
        rows = plane.rows
        while len(rows) <= seq:
            rows.append(bytearray(self.capacity))
        return rows[seq]

    def delivered_count(self, slot: int, stream: StreamId) -> int:
        """Distinct sequence numbers delivered at ``slot`` on ``stream``
        (injections included, matching ``StreamState.delivered``)."""
        idx = self.plane_of.get(stream)
        if idx is None:
            return 0
        return sum(1 for row in self.planes[idx].rows if row[slot])

    def slot_duplicates(self, slot: int) -> int:
        """Duplicate receptions at ``slot`` across planes."""
        return sum(plane.duplicates[slot] for plane in self.planes)

    def duplicate_receptions(self, exclude_nodes=()) -> int:
        """Total duplicate receptions across every plane and slot.

        ``exclude_nodes`` drops whole node slots from the count — the
        scale accounting passes the publisher set so the total matches
        the object kernel's per-node ``Metrics.duplicates`` walk, which
        cannot split a source node's counts by stream and therefore
        excludes source nodes outright.
        """
        total = sum(sum(plane.duplicates) for plane in self.planes)
        for node_id in exclude_nodes:
            slot = self.slot_of.get(node_id)
            if slot is not None:
                total -= sum(plane.duplicates[slot] for plane in self.planes)
        return total

    def first_deliveries(self) -> int:
        """Total first receptions across every plane and slot
        (injections excluded: sources count their own publishes in
        ``delivered`` but never as receptions)."""
        total = 0
        for plane in self.planes:
            total += sum(plane.delivered)
            for row in plane.rows:
                total -= sum(1 for cell in row if cell == _INJECTED)
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
        payload_totals = plane.payload_bytes
        levels = plane.levels
        maint_src = plane.maint_src
        maint_meta = plane.maint_meta
        maint_cand = plane.maint_cand
        maint_targets = plane.maint_targets
        rx_bytes = self.rx_bytes
        mirror = self._mirror
        fan_send = self.network.send_fan_unchecked
        now = self.sim.now
        hops = msg.hops + 1
        mpd = msg.path_delay
        path_delay = mpd + (now - msg.sent_at)
        payload = msg.payload_bytes
        #: The message's cycle metadata, read once for the whole fan
        #: (the instance is shared by every recipient).
        meta = getattr(msg, self.meta_attr)
        is_path = self.meta_attr == "path"
        is_depth = self.meta_attr == "depth"
        buffer_cap = self._buffer_cap
        topup_seq = seq % 8 == 7
        fsize = size + _NODE_ID_BYTES if is_path else size
        for dst in dsts:
            slot = slot_of.get(dst)
            if slot is None:
                # Crashed (slot released) or not kernel-attached: fall
                # back to the generic single-delivery semantics.
                node = self.network.nodes.get(dst)
                if node is None or not node.alive:
                    self.network._drop(src, dst)
                else:
                    self.metrics.account_receive(dst, size)
                    node.handle_message(src, msg)
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
                row[slot] = _RECEIVED
                delivered[slot] += 1
                payload_totals[slot] += payload
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
                levels[slot] = hops
                targets = maint_targets[slot]
                if targets is None:
                    targets = [p for p in plane.relay_rows[slot] if p != src]
                    maint_targets[slot] = targets
                if targets:
                    # ``__new__`` + direct slot stores: the keyword
                    # constructor costs ~3x as much per forward.
                    fwd = _Data.__new__(_Data)
                    fwd.stream = stream
                    fwd.seq = seq
                    fwd.payload_bytes = payload
                    if is_path:
                        fwd.path = state.position
                        fwd.depth = None
                        fwd.bloom = None
                        fwd.bloom_bits = 0
                    elif is_depth:
                        fwd.path = None
                        fwd.depth = state.position
                        fwd.bloom = None
                        fwd.bloom_bits = 0
                    else:
                        fwd.path = None
                        fwd.depth = None
                        fwd.bloom = state.position
                        fwd.bloom_bits = self._bloom_bits
                    fwd.hops = hops
                    fwd.path_delay = path_delay
                    fwd.sent_at = now
                    fwd.recovered = False
                    # Arithmetic size: the forward differs from the
                    # incoming copy only in metadata *values* (depth
                    # label, bloom mask) — same byte layout — except
                    # under the path predictor, where the embedded
                    # path grows by exactly this node (the cache
                    # invariant pins position == msg.path + (self,)).
                    fwd._size = fsize
                    fan_send(dst, targets, fwd, fsize)
                if (
                    topup_seq
                    and len(state.parents) < self.num_parents
                    and not state.repairing
                ):
                    # Lazy DAG parent top-up (soft only), as in
                    # on_brisa_data.
                    self.network.nodes[dst]._begin_repair(
                        state, record=False, allow_hard=False
                    )
                continue
            # Cold path: keep the arrays in step, optimistically prime
            # the maintenance cache, then run the full protocol.
            node = self.network.nodes[dst]
            state = states[slot]
            if state is None:
                state = node.stream_state(stream)
            if not state.is_source:
                cell = row[slot]
                if cell == _RECEIVED:
                    plane.duplicates[slot] += 1
                else:
                    row[slot] = _RECEIVED
                    delivered[slot] += 1
                    payload_totals[slot] += payload
                    if meta is not None and src in state.parents:
                        cand = state.candidates.get(src)
                        if cand is not None:
                            # If the revalidation below mutates anything,
                            # a choke-point hook clears this again.
                            maint_src[slot] = src
                            maint_meta[slot] = meta
                            maint_cand[slot] = cand
                            maint_targets[slot] = None
            node.on_brisa_data(src, msg, state)
            if (
                meta is not None
                and maint_src[slot] is None
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
                cand = state.candidates.get(src)
                if cand is not None:
                    maint_src[slot] = src
                    maint_meta[slot] = meta
                    maint_cand[slot] = cand
                    maint_targets[slot] = None

    # -- per-message path (occupancy models, retransmissions) ------------
    def on_data(self, node: "SlottedBrisaNode", src: NodeId, msg: bm.Data) -> None:
        """Single-delivery entry (no fused fan): array bookkeeping plus
        cold delegation — per-message schedules never dominate, so the
        fast path is reserved for the fan sink."""
        stream = msg.stream
        seq = msg.seq
        plane = self.plane(stream)
        rows = plane.rows
        row = rows[seq] if seq < len(rows) else self._row(plane, seq)
        slot = node.slot
        state = plane.states[slot]
        if state is None:
            state = node.stream_state(stream)
        meta = getattr(msg, self.meta_attr)
        if not state.is_source:
            cell = row[slot]
            if cell == _RECEIVED:
                plane.duplicates[slot] += 1
            else:
                row[slot] = _RECEIVED
                plane.delivered[slot] += 1
                plane.payload_bytes[slot] += msg.payload_bytes
                if meta is not None and src in state.parents:
                    cand = state.candidates.get(src)
                    if cand is not None:
                        plane.maint_src[slot] = src
                        plane.maint_meta[slot] = meta
                        plane.maint_cand[slot] = cand
                        plane.maint_targets[slot] = None
        node.on_brisa_data(src, msg, state)
        if (
            meta is not None
            and plane.maint_src[slot] is None
            and src in state.parents
            and state.parent_meta.get(src) is meta
        ):
            # Same post-delegation priming as the fan path (see on_fan).
            cand = state.candidates.get(src)
            if cand is not None:
                plane.maint_src[slot] = src
                plane.maint_meta[slot] = meta
                plane.maint_cand[slot] = cand
                plane.maint_targets[slot] = None


class SlottedBrisaNode(BrisaNode):
    """BRISA participant backed by a :class:`SlottedBrisaKernel`.

    Protocol behaviour is the unmodified :class:`BrisaNode` — same rule
    table, same RNG streams (``rng_kind``), so slotted and object runs
    of one seed walk the same simulation.  The overrides keep the
    kernel's flat arrays in sync: ``Data`` receptions short-circuit into
    the kernel, and every structure-bearing mutation hook mirrors its
    effect into the slot's plane cells and invalidates the maintenance
    cache.
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
        if self.predictor.name != kernel.meta_attr:
            raise SimulationError(
                f"kernel predictor {kernel.meta_attr!r} != node predictor "
                f"{self.predictor.name!r}: one kernel serves one rule table"
            )

    # -- state wiring ---------------------------------------------------
    def stream_state(self, stream: StreamId) -> StreamState:
        state = self.streams.get(stream)
        if state is None:
            state = super().stream_state(stream)
            kernel = self.kernel
            plane = kernel.plane(stream)
            slot = self.slot
            plane.states[slot] = state
            # Relay row = active view minus out-deactivated; both start
            # as the overlay row (all inbound links active, §II-C).
            plane.relay_rows[slot] = list(kernel.neighbor_rows[slot])
            plane.parent_rows[slot] = []
            plane.levels[slot] = 0
            # Hooks reach the plane through the state they are handed.
            state._plane = plane
        return state

    def delivered_count(self, stream: StreamId = 0) -> int:
        return self.kernel.delivered_count(self.slot, stream)

    def tree_parents(self, stream: StreamId) -> list[NodeId]:
        state = self.streams.get(stream)
        if state is None:
            return []
        return list(state._plane.parent_rows[self.slot])

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
        if row[slot] == _UNSEEN:
            row[slot] = _INJECTED
            plane.delivered[slot] += 1
        super().inject(stream, seq, payload_bytes)

    # -- choke-point hooks: mirror into arrays, invalidate the cache ----
    def _set_position(self, state: StreamState, value) -> None:
        state.position = value
        plane = state._plane
        slot = self.slot
        plane.maint_src[slot] = None
        plane.maint_targets[slot] = None
        matrix = plane.matrix
        if matrix is not None:
            if value is None:
                matrix.clear_row(slot)
            else:
                # Between hard-repair resets Bloom positions only grow
                # (adoption merges and parent folds are unions), so
                # every live update is exactly one row OR.
                matrix.or_row(slot, value)

    def _reset_position(self, state: StreamState) -> None:
        state.reset_position()
        plane = state._plane
        slot = self.slot
        plane.maint_src[slot] = None
        plane.maint_targets[slot] = None
        plane.levels[slot] = 0
        if plane.matrix is not None:
            plane.matrix.clear_row(slot)

    def _set_hops(self, state: StreamState, value) -> None:
        state.hops = value
        state._plane.levels[self.slot] = value if value is not None else 0

    def _add_parent_edge(self, state: StreamState, peer: NodeId, cand, meta) -> None:
        plane = state._plane
        slot = self.slot
        if peer not in state.parents:
            plane.parent_rows[slot].append(peer)
        state.parents[peer] = cand
        state.parent_meta[peer] = meta
        plane.maint_src[slot] = None
        plane.maint_targets[slot] = None

    def _drop_parent_edge(self, state: StreamState, peer: NodeId) -> bool:
        dropped = state.drop_parent(peer)
        if dropped:
            plane = state._plane
            slot = self.slot
            plane.parent_rows[slot].remove(peer)
            plane.maint_src[slot] = None
            plane.maint_targets[slot] = None
        return dropped

    def _bump_demote(self, state: StreamState, peer: NodeId, count: int) -> None:
        state.demote_counts[peer] = count
        plane = state._plane
        plane.maint_src[self.slot] = None
        plane.maint_targets[self.slot] = None

    def _mute_out(self, state: StreamState, peer: NodeId) -> None:
        state.out_deactivated.add(peer)
        plane = state._plane
        slot = self.slot
        try:
            plane.relay_rows[slot].remove(peer)
        except ValueError:
            pass  # peer not currently in the active view
        plane.maint_targets[slot] = None
        # No cache invalidation: backflow state is only consulted on the
        # demote branch of the maintenance rule, which a valid cache
        # proves unreachable (check_parent's verdict depends on position
        # and meta alone), and relay targets are read live from the row.

    def _unmute_out(self, state: StreamState, peer: NodeId) -> None:
        state.out_deactivated.discard(peer)
        plane = state._plane
        slot = self.slot
        # Rebuild preserves active-view order for re-opened links and
        # doubles as the membership-change resync (neighbor_up/_down
        # route through here for every stream).  Cache survives for the
        # same reason as in _mute_out.
        plane.relay_rows[slot] = [
            p for p in self.active if p not in state.out_deactivated
        ]
        plane.maint_targets[slot] = None

    # -- membership: keep the kernel's neighbor rows mirrored -----------
    def neighbor_up(self, peer: NodeId) -> None:
        kernel = self.kernel
        if not kernel.bulk_rows:
            kernel.neighbor_rows[self.slot].append(peer)
        super().neighbor_up(peer)

    def neighbor_down(self, peer: NodeId, failure: bool) -> None:
        row = self.kernel.neighbor_rows[self.slot]
        try:
            row.remove(peer)
        except ValueError:
            pass
        super().neighbor_down(peer, failure)

    # on_crash: slot release is driven by Network.crash through
    # SlottedBrisaKernel.release_node (the kernel crash-release hook),
    # after the protocol teardown — not from the node.
