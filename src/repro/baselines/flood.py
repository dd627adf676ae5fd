"""Plain flooding over the HyParView overlay (§II-A, Fig. 2).

"A node receiving a message for the first time from a neighbor simply
propagates it to all its other neighbors."  No deactivation, no structure:
every overlay link carries every message in at least one direction, which
is what produces the duplicate distributions of Fig. 2 — the motivation
BRISA starts from.

Two delivery kernels implement that rule behind the same :class:`Network`
API (DESIGN.md §9):

- :class:`FloodNode` — the readable reference implementation: per-node
  Python object state (``delivered`` dict-of-sets, per-reception
  ``Metrics.record_delivery`` bookkeeping).
- :class:`SlottedFloodNode` + :class:`SlottedFloodKernel` — the scale
  kernel: delivery state lives in flat arrays indexed by a dense node
  *slot*, one :class:`_SlotPlane` per stream (seen byte-maps per
  sequence number, delivered/duplicate counters, payload-byte totals)
  shared by all nodes of a run, with per-slot fan-out rows maintained
  from membership notifications and bulk-installable from PR 3's CSR
  topology arrays.  Draw-for-draw
  equivalent to the object path — same delivery sets, duplicate counts,
  byte totals and timestamps under zero-cost and occupancy-charging
  latency models — pinned by tests/test_slotted_parity.py.
"""

from __future__ import annotations

from array import array

from repro.config import HyParViewConfig
from repro.ids import SEQ_BYTES, NodeId, StreamId
from repro.membership.hyparview import HyParViewNode
from repro.sim.message import Message

STREAM_BYTES = 2
MEASURE_BYTES = 8


class FloodData(Message):
    """One flooded stream message."""

    kind = "flood_data"
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


class FloodNode(HyParViewNode):
    """HyParView participant that floods every stream message."""

    def __init__(
        self,
        network,
        node_id: NodeId,
        hpv_config: HyParViewConfig | None = None,
    ) -> None:
        super().__init__(network, node_id, hpv_config)
        #: stream -> delivered sequence numbers
        self.delivered: dict[StreamId, set[int]] = {}

    def delivered_count(self, stream: StreamId = 0) -> int:
        return len(self.delivered.get(stream, ()))

    # ------------------------------------------------------------------
    def inject(self, stream: StreamId, seq: int, payload_bytes: int) -> None:
        self.transport.metrics.record_injection(stream, seq, self.clock.now)
        self.delivered.setdefault(stream, set()).add(seq)
        self._flood(stream, seq, payload_bytes, exclude=None, hops=0, path_delay=0.0)

    def _flood(
        self,
        stream: StreamId,
        seq: int,
        payload_bytes: int,
        exclude: NodeId | None,
        hops: int,
        path_delay: float,
    ) -> None:
        peers = [peer for peer in self.active if peer != exclude]
        if peers:
            # One shared message instance for the whole fan-out: FloodData
            # is read-only at receivers, so batching is safe and skips the
            # per-peer construction + accounting of the naive loop.
            self.send_many(
                peers,
                FloodData(
                    stream, seq, payload_bytes,
                    hops=hops, path_delay=path_delay, sent_at=self.clock.now,
                ),
            )

    def on_flood_data(self, src: NodeId, msg: FloodData) -> None:
        seen = self.delivered.setdefault(msg.stream, set())
        hop_delay = self.clock.now - msg.sent_at
        path_delay = msg.path_delay + hop_delay
        hops = msg.hops + 1
        first = self.transport.metrics.record_delivery(
            self.node_id, msg.stream, msg.seq, self.clock.now, src, hops, path_delay,
            msg.payload_bytes,
        )
        if msg.seq in seen:
            return
        seen.add(msg.seq)
        if first:
            self._flood(
                msg.stream, msg.seq, msg.payload_bytes,
                exclude=src, hops=hops, path_delay=path_delay,
            )

    def on_crash(self) -> None:
        super().on_crash()
        self.delivered.clear()


# ----------------------------------------------------------------------
# Slotted delivery kernel (DESIGN.md §9)
# ----------------------------------------------------------------------
#: Seen-map cell states.  ``_INJECTED`` marks a sequence the node itself
#: injected (locally delivered, but not yet a *recorded reception* — the
#: source's first echo from a neighbour still counts as a first delivery,
#: matching ``Metrics.record_delivery`` semantics in the object path).
_UNSEEN, _INJECTED, _RECEIVED = 0, 1, 2


class _SlotPlane:
    """Per-stream *slot plane*: one stream's flat delivery state.

    A plane is the slotted analogue of one stream shard — seen maps
    (one ``bytearray`` cell per slot per sequence) and per-slot
    delivered/duplicate/payload counters, all indexed by the kernel's
    dense node slots.  The kernel keeps one plane per active stream id
    (dense plane index, DESIGN.md §10), so K concurrent streams stay on
    the array path with zero shared-dict contention between streams.
    """

    __slots__ = ("stream", "rows", "delivered", "duplicates", "payload_bytes")

    def __init__(self, stream: StreamId, capacity: int) -> None:
        self.stream = stream
        #: Seen maps indexed by seq; one byte cell per slot.
        self.rows: list[bytearray] = []
        zeros = bytes(8 * capacity)
        #: Distinct sequence numbers delivered per slot (injections included).
        self.delivered = array("q", zeros)
        #: Duplicate receptions per slot on this stream.
        self.duplicates = array("q", zeros)
        #: Payload bytes of first-time receptions per slot.
        self.payload_bytes = array("q", zeros)


class SlottedFloodKernel:
    """Flat-array delivery state shared by every :class:`SlottedFloodNode`.

    At xxl populations the dissemination cost is per-delivery Python
    handler work, not the engine: every reception walks ``delivered``
    dict-of-sets plus the ``Metrics.record_delivery`` nested dicts.  This
    kernel replaces all of it with arrays indexed by a dense *slot*:

    - one :class:`_SlotPlane` per stream id (resolved through a dense
      plane index, not ad-hoc ``(stream, seq)`` dict keys): the seen
      maps (``_UNSEEN``/``_INJECTED``/``_RECEIVED`` byte cells) and the
      per-slot delivered/duplicate/payload counters of that stream;
    - ``rx_bytes`` — wire bytes received per slot across all streams;
    - ``fanout_rows`` — per-slot peer-id lists mirroring the node's
      active view in insertion order, maintained from membership
      notifications and bulk-installable from a :class:`CSRTopology`
      (the overlay is shared by every stream, so rows are plane-free).

    Slots are recycled through a free list: :meth:`release` (called from
    ``SlottedFloodNode.on_crash``, i.e. under :meth:`Network.crash`)
    zeroes the slot's cells in *every* plane before the slot can be
    handed to a churn joiner, so a recycled slot starts exactly like a
    fresh object node on every stream.

    When the run's :class:`Metrics` records deliveries (small/parity
    runs), the kernel mirrors every reception into
    ``Metrics.record_delivery`` exactly like the object path, so delivery
    records — timestamps, senders, hops, path delays — are directly
    comparable.  At scale (``record_deliveries=False``) the arrays are
    authoritative and the per-reception dict work disappears entirely.
    """

    def __init__(self, network) -> None:
        self.network = network
        self.sim = network.sim
        self.metrics = network.metrics
        #: Mirror receptions into Metrics (parity/record mode)?
        self._mirror = network.metrics.record_deliveries
        self.slot_of: dict[NodeId, int] = {}
        self._free: list[int] = []
        self.capacity = 0
        #: Wire bytes received per slot on the fan-sink path (the slotted
        #: stand-in for ``Metrics.bytes_received`` at scale; in mirror
        #: mode Metrics is fed too and the two agree).
        self.rx_bytes = array("q")
        #: Per-slot live peer ids, in active-view insertion order.
        self.fanout_rows: list[list[NodeId]] = []
        #: While True, membership notifications skip per-peer row
        #: appends — a bulk bootstrap builds the rows in one
        #: :meth:`install_rows` pass over the CSR arrays instead.
        self.bulk_rows = False
        #: Slot planes in dense-index order; one per stream ever seen.
        self.planes: list[_SlotPlane] = []
        #: stream id -> dense plane index.
        self.plane_of: dict[StreamId, int] = {}
        #: Total receptions processed (first deliveries + duplicates).
        self.receptions = 0
        # Whole fused fan-outs of flood data land in one batched call
        # (Network.register_fan_sink, DESIGN.md §9) instead of one
        # handle_message per receiver.  Fused fan events exist only on
        # the uniform zero-cost path, so on_fan may forward through
        # send_fan_unchecked unconditionally.
        network.register_fan_sink(FloodData.kind, self.on_fan)

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
            self.fanout_rows.append([])
            for plane in self.planes:
                plane.delivered.append(0)
                plane.duplicates.append(0)
                plane.payload_bytes.append(0)
                for row in plane.rows:
                    row.append(_UNSEEN)
        self.slot_of[node_id] = slot
        return slot

    def release(self, node_id: NodeId, slot: int) -> None:
        """Return a crashed node's slot to the free list, zeroed in
        every plane."""
        if self.slot_of.pop(node_id, None) is None:
            return
        self.rx_bytes[slot] = 0
        self.fanout_rows[slot] = []
        for plane in self.planes:
            plane.delivered[slot] = 0
            plane.duplicates[slot] = 0
            plane.payload_bytes[slot] = 0
            for row in plane.rows:
                row[slot] = _UNSEEN
        self._free.append(slot)

    def row_append(self, slot: int, peer: NodeId) -> None:
        """Record a new live peer in ``slot``'s fan-out row.

        Row mutations funnel through this pair of methods (rather than
        poking ``fanout_rows`` directly) so subclasses that keep derived
        per-row state — the vectorized kernel caches numpy mirrors —
        can invalidate it at the mutation site."""
        self.fanout_rows[slot].append(peer)

    def row_remove(self, slot: int, peer: NodeId) -> None:
        """Drop ``peer`` from ``slot``'s fan-out row (no-op when absent)."""
        try:
            self.fanout_rows[slot].remove(peer)
        except ValueError:
            pass

    def install_rows(self, ids, topo) -> None:
        """Bulk-build the fan-out rows from CSR adjacency arrays.

        ``topo`` is a :class:`repro.experiments.bootstrap.CSRTopology`
        over ``ids`` (the i-th row describes ``ids[i]``).  Row order
        matches what :meth:`HyParViewNode.install_overlay` produces from
        the same arrays, so rows built here are identical to the ones
        the membership notifications would have accumulated — set
        :attr:`bulk_rows` around the view installation so that work is
        skipped rather than redone."""
        offsets = topo.offsets
        neighbors = topo.neighbors
        rows = self.fanout_rows
        slot_of = self.slot_of
        for i, nid in enumerate(ids):
            rows[slot_of[nid]] = [
                ids[j] for j in neighbors[offsets[i] : offsets[i + 1]]
            ]

    # -- slot planes ----------------------------------------------------
    def plane(self, stream: StreamId) -> _SlotPlane:
        """The slot plane for ``stream`` (created on first touch)."""
        idx = self.plane_of.get(stream)
        if idx is None:
            idx = self.plane_of[stream] = len(self.planes)
            self.planes.append(_SlotPlane(stream, self.capacity))
        return self.planes[idx]

    def _row(self, plane: _SlotPlane, seq: int) -> bytearray:
        rows = plane.rows
        while len(rows) <= seq:
            rows.append(bytearray(self.capacity))
        return rows[seq]

    def delivered_count(self, slot: int, stream: StreamId) -> int:
        """Distinct sequence numbers delivered at ``slot`` on ``stream``
        (exact walk of the stream plane's seen maps; the hot path keeps
        only the per-slot counters)."""
        idx = self.plane_of.get(stream)
        if idx is None:
            return 0
        return sum(1 for row in self.planes[idx].rows if row[slot])

    # -- cross-plane slot aggregates (tests / parity checks) -------------
    def slot_delivered(self, slot: int) -> int:
        """Distinct (stream, seq) deliveries at ``slot`` across planes —
        the object path's ``FloodNode.delivered`` total size."""
        return sum(plane.delivered[slot] for plane in self.planes)

    def slot_duplicates(self, slot: int) -> int:
        """Duplicate receptions at ``slot`` across planes
        (``Metrics.duplicates[node]`` semantics)."""
        return sum(plane.duplicates[slot] for plane in self.planes)

    def slot_payload_bytes(self, slot: int) -> int:
        """First-reception payload bytes at ``slot`` across planes."""
        return sum(plane.payload_bytes[slot] for plane in self.planes)

    # -- delivery hot path ----------------------------------------------
    def on_fan(self, src: NodeId, dsts: list[NodeId], msg: FloodData, size: int) -> None:
        """Process one whole fused fan-out (the Network fan sink).

        Replaces the per-receiver ``account_receive`` + ``handle_message``
        loop of the uniform zero-cost path: the seen map, counters and
        message-derived values are bound once per fan-out and every
        reception is a handful of array operations.  Per-destination
        order, dead-endpoint drops and (in mirror mode) Metrics calls
        exactly match the generic loop over object nodes.
        """
        stream = msg.stream
        seq = msg.seq
        plane = self.plane(stream)
        rows = plane.rows
        row = rows[seq] if seq < len(rows) else self._row(plane, seq)
        slot_of = self.slot_of
        delivered = plane.delivered
        duplicates = plane.duplicates
        payload_totals = plane.payload_bytes
        rx_bytes = self.rx_bytes
        fanout_rows = self.fanout_rows
        mirror = self._mirror
        metrics = self.metrics
        network = self.network
        nodes = network.nodes
        now = self.sim.now
        hops = msg.hops + 1
        path_delay = msg.path_delay + (now - msg.sent_at)
        payload = msg.payload_bytes
        # Every first-deliverer of this fan re-floods identical content
        # (same hop count, path delay and send instant): one shared
        # forward message serves them all, like any fan-out share.
        fwd = None
        fwd_size = 0
        # on_fan is reachable only through a fused fan event, which the
        # network schedules solely on the uniform zero-cost path — the
        # path send_fan_unchecked implements.  The kernel guarantees the
        # invariants send_many would check: live sender, no self-sends,
        # non-empty snapshot targets.
        fan_send = network.send_fan_unchecked
        processed = 0
        for dst in dsts:
            slot = slot_of.get(dst)
            if slot is None:
                # Crashed (slot released) or not kernel-attached: fall
                # back to the generic single-delivery semantics.
                node = nodes.get(dst)
                if node is None or not node.alive:
                    network._drop(src, dst)
                else:
                    metrics.account_receive(dst, size)
                    node.handle_message(src, msg)
                continue
            processed += 1
            rx_bytes[slot] += size
            if mirror:
                metrics.account_receive(dst, size)
                metrics.record_delivery(
                    dst, stream, seq, now, src, hops, path_delay, payload
                )
            state = row[slot]
            if state == _RECEIVED:
                duplicates[slot] += 1
                continue
            row[slot] = _RECEIVED
            if state == _INJECTED:
                # Source echo: recorded reception, no re-flood.
                continue
            delivered[slot] += 1
            payload_totals[slot] += payload
            targets = [p for p in fanout_rows[slot] if p != src]
            if targets:
                if fwd is None:
                    fwd = FloodData(
                        stream, seq, payload,
                        hops=hops, path_delay=path_delay, sent_at=now,
                    )
                    fwd_size = fwd.size_bytes()
                fan_send(dst, targets, fwd, fwd_size)
        self.receptions += processed

    def inject(self, node: "SlottedFloodNode", stream: StreamId, seq: int,
               payload_bytes: int) -> None:
        self.metrics.record_injection(stream, seq, self.sim.now)
        plane = self.plane(stream)
        row = self._row(plane, seq)
        slot = node.slot
        if row[slot] == _UNSEEN:
            row[slot] = _INJECTED
            plane.delivered[slot] += 1
        self._fan(node, slot, stream, seq, payload_bytes, None, 0, 0.0)

    def on_data(self, node: "SlottedFloodNode", src: NodeId, msg: FloodData) -> None:
        self.receptions += 1
        stream = msg.stream
        seq = msg.seq
        plane = self.plane(stream)
        rows = plane.rows
        row = rows[seq] if seq < len(rows) else self._row(plane, seq)
        slot = node.slot
        state = row[slot]
        if state == _RECEIVED:
            plane.duplicates[slot] += 1
            if self._mirror:
                now = self.sim.now
                self.metrics.record_delivery(
                    node.node_id, stream, seq, now, src,
                    msg.hops + 1, msg.path_delay + (now - msg.sent_at),
                    msg.payload_bytes,
                )
            return
        row[slot] = _RECEIVED
        now = self.sim.now
        hops = msg.hops + 1
        path_delay = msg.path_delay + (now - msg.sent_at)
        if self._mirror:
            self.metrics.record_delivery(
                node.node_id, stream, seq, now, src, hops, path_delay,
                msg.payload_bytes,
            )
        if state == _INJECTED:
            # The source hearing its own message back: a recorded first
            # reception, but locally delivered already — no re-flood
            # (the object path returns on ``seq in seen``).
            return
        plane.delivered[slot] += 1
        plane.payload_bytes[slot] += msg.payload_bytes
        self._fan(node, slot, stream, seq, msg.payload_bytes, src, hops, path_delay)

    def _fan(
        self,
        node: "SlottedFloodNode",
        slot: int,
        stream: StreamId,
        seq: int,
        payload_bytes: int,
        exclude: NodeId | None,
        hops: int,
        path_delay: float,
    ) -> None:
        peers = self.fanout_rows[slot]
        if exclude is not None:
            peers = [p for p in peers if p != exclude]
        if peers:
            self.network.send_many(
                node.node_id,
                peers,
                FloodData(
                    stream, seq, payload_bytes,
                    hops=hops, path_delay=path_delay, sent_at=self.sim.now,
                ),
            )


class SlottedFloodNode(HyParViewNode):
    """HyParView flood participant backed by a :class:`SlottedFloodKernel`.

    Membership (views, repair, promotion) is the unmodified HyParView
    machinery — identical to :class:`FloodNode`'s, and consuming the same
    RNG streams (``rng_kind``) so slotted and object runs of one seed see
    the same overlay evolution under churn.  Only the delivery path is
    slotted: ``FloodData`` receptions short-circuit the ``on_<kind>``
    dispatch and hit the kernel arrays directly.
    """

    #: Consume the RNG streams of the reference implementation: the two
    #: kernels must be draw-for-draw interchangeable within one seed.
    rng_kind = "FloodNode"

    def __init__(
        self,
        network,
        node_id: NodeId,
        hpv_config: HyParViewConfig | None = None,
        *,
        kernel: SlottedFloodKernel,
    ) -> None:
        self.kernel = kernel
        self.slot = kernel.attach(node_id)
        super().__init__(network, node_id, hpv_config)

    def delivered_count(self, stream: StreamId = 0) -> int:
        return self.kernel.delivered_count(self.slot, stream)

    def handle_message(self, src: NodeId, msg: Message) -> None:
        # One type probe replaces the ``getattr("on_" + kind)`` dispatch
        # on the dominant message kind; everything else (membership
        # traffic) takes the regular path.
        if type(msg) is FloodData:
            if self.alive:
                self.kernel.on_data(self, src, msg)
            return
        super().handle_message(src, msg)

    def inject(self, stream: StreamId, seq: int, payload_bytes: int) -> None:
        self.kernel.inject(self, stream, seq, payload_bytes)

    # -- keep the kernel's fan-out rows mirroring the active view -------
    def neighbor_up(self, peer: NodeId) -> None:
        # Fired only on genuine inserts (HyParView guards duplicates), in
        # active-view insertion order — the row stays order-identical to
        # ``[p for p in self.active]``.  During a bulk bootstrap the
        # rows come from one install_rows pass instead.
        kernel = self.kernel
        if not kernel.bulk_rows:
            kernel.row_append(self.slot, peer)

    def neighbor_down(self, peer: NodeId, failure: bool) -> None:
        self.kernel.row_remove(self.slot, peer)

    def on_crash(self) -> None:
        super().on_crash()
        self.kernel.release(self.node_id, self.slot)
