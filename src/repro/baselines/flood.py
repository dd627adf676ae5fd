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
  kernel: delivery state lives in the shared slot store of
  :mod:`repro.core.slots` (one :class:`~repro.core.slots.SlotPlane` per
  stream: seen byte-maps per sequence number, delivered/duplicate
  counters; per-slot neighbor rows appended by membership notifications,
  or installed in one pass from the CSR topology arrays when a cold
  population adopts its views); this module adds only what a flood
  reception does.
  Draw-for-draw equivalent to the object path — same delivery sets,
  duplicate counts, byte totals and timestamps under zero-cost and
  occupancy-charging latency models — pinned by
  tests/test_slotted_parity.py.  The kernels route by slot, never
  through the node object, so a node spawned by a bulk bootstrap is
  *born cold*: an id and a slot until membership touches it (DESIGN.md
  §8, tests/test_cold_population.py).
"""

from __future__ import annotations

from functools import partial

from repro.config import HyParViewConfig
from repro.core.slots import INJECTED, RECEIVED, UNSEEN, SlotKernel
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
class SlottedFloodKernel(SlotKernel):
    """Flat-array delivery state shared by every :class:`SlottedFloodNode`.

    At xxl populations the dissemination cost is per-delivery Python
    handler work, not the engine: every reception walks ``delivered``
    dict-of-sets plus the ``Metrics.record_delivery`` nested dicts.  This
    kernel replaces all of it with the slot store of
    :class:`~repro.core.slots.SlotKernel` — one plane of seen maps
    (``UNSEEN``/``INJECTED``/``RECEIVED`` byte cells) and per-slot
    delivered/duplicate counters per stream id, ``rx_bytes``, and
    ``neighbor_rows`` mirroring each node's active view in insertion
    order — and adds the flood transition on top: first copy delivers
    and re-floods to the row minus the sender, everything else counts.

    When the run's :class:`Metrics` records deliveries (small/parity
    runs), the kernel mirrors every reception into
    ``Metrics.record_delivery`` exactly like the object path, so delivery
    records — timestamps, senders, hops, path delays — are directly
    comparable.  At scale (``record_deliveries=False``) the arrays are
    authoritative and the per-reception dict work disappears entirely.
    """

    def __init__(self, network) -> None:
        super().__init__(network)
        #: Total receptions processed (first deliveries + duplicates).
        self.receptions = 0
        #: The cold marker (DESIGN.md §8): ids of attached nodes that are
        #: still an id and a slot.  A node leaves it exactly once, as the
        #: first step of its wake.
        self.cold: set[NodeId] = set()
        #: The population-level view store cold nodes wake from
        #: (:meth:`adopt_views`), and node id -> store index, built on
        #: the first wake that needs it.
        self._cold_views = None
        self._cold_index: dict[NodeId, int] | None = None
        # Whole fused fan-outs of flood data land in one batched call
        # (Network.register_fan_sink, DESIGN.md §9) instead of one
        # handle_message per receiver.  Fused fan events exist only on
        # the uniform zero-cost path, so on_fan may forward through
        # send_fan_unchecked unconditionally.
        network.register_fan_sink(FloodData.kind, self.on_fan)

    def row_append(self, slot: int, peer: NodeId) -> None:
        """Record a new live peer in ``slot``'s neighbor row.

        Row mutations funnel through this pair of methods (rather than
        poking ``neighbor_rows`` directly) so subclasses that keep derived
        per-row state — the vectorized kernel caches numpy mirrors —
        can invalidate it at the mutation site."""
        self.neighbor_rows[slot].append(peer)

    def row_remove(self, slot: int, peer: NodeId) -> None:
        """Drop ``peer`` from ``slot``'s neighbor row (no-op when absent)."""
        try:
            self.neighbor_rows[slot].remove(peer)
        except ValueError:
            pass

    # -- the cold population's view store (DESIGN.md §8) -----------------
    def adopt_views(self, views) -> bool:
        """Take ``views`` — ``ids``, ``topo``, ``active(i)``, ``view(i)``:
        :class:`repro.experiments.bootstrap.PassiveReservoir` — as the
        store the cold nodes ``views.ids`` wake from, in place of one
        ``install_overlay`` per node.

        All or nothing: ``False`` (nothing taken; the caller installs per
        node, which wakes whoever is still cold) unless every one of
        ``views.ids`` is cold here and no earlier store is held.  The
        fan-out rows are what the skipped neighbour-up notifications
        would have appended, so they are installed here.
        """
        if self._cold_views is not None or not self.cold.issuperset(views.ids):
            return False
        self._cold_views = views
        self.install_rows(views.ids, views.topo)
        return True

    def wake_views(self, node_id: NodeId):
        """``(active ids, passive provider)`` the store holds for
        ``node_id``, or ``None`` for a node no store covers (a churn
        joiner, or a population installed per node)."""
        views = self._cold_views
        if views is None:
            return None
        index = self._cold_index
        if index is None:
            index = self._cold_index = {nid: i for i, nid in enumerate(views.ids)}
        i = index.get(node_id)
        if i is None:
            return None
        return views.active(i), partial(views.view, i)

    # -- cross-plane slot aggregates (tests / parity checks) -------------
    def slot_delivered(self, slot: int) -> int:
        """Distinct (stream, seq) deliveries at ``slot`` across planes —
        the object path's ``FloodNode.delivered`` total size."""
        return sum(plane.delivered[slot] for plane in self.planes)

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
        rx_bytes = self.rx_bytes
        neighbor_rows = self.neighbor_rows
        mirror = self._mirror
        metrics = self.metrics
        network = self.network
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
                network._deliver_fast(src, dst, msg, size)
                continue
            processed += 1
            rx_bytes[slot] += size
            if mirror:
                metrics.account_receive(dst, size)
                metrics.record_delivery(
                    dst, stream, seq, now, src, hops, path_delay, payload
                )
            state = row[slot]
            if state == RECEIVED:
                duplicates[slot] += 1
                continue
            row[slot] = RECEIVED
            if state == INJECTED:
                # Source echo: recorded reception, no re-flood.
                continue
            delivered[slot] += 1
            targets = [p for p in neighbor_rows[slot] if p != src]
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
        if row[slot] == UNSEEN:
            row[slot] = INJECTED
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
        if state == RECEIVED:
            plane.duplicates[slot] += 1
            if self._mirror:
                now = self.sim.now
                self.metrics.record_delivery(
                    node.node_id, stream, seq, now, src,
                    msg.hops + 1, msg.path_delay + (now - msg.sent_at),
                    msg.payload_bytes,
                )
            return
        row[slot] = RECEIVED
        now = self.sim.now
        hops = msg.hops + 1
        path_delay = msg.path_delay + (now - msg.sent_at)
        if self._mirror:
            self.metrics.record_delivery(
                node.node_id, stream, seq, now, src, hops, path_delay,
                msg.payload_bytes,
            )
        if state == INJECTED:
            # The source hearing its own message back: a recorded first
            # reception, but locally delivered already — no re-flood
            # (the object path returns on ``seq in seen``).
            return
        plane.delivered[slot] += 1
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
        peers = self.neighbor_rows[slot]
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

    **Born cold** (DESIGN.md §8): the kernels route every reception by
    slot, never through this object, and §II-A's membership state is read
    only when membership changes.  So a node built while the network is
    not autostarting timers (the bulk bootstrap, churn joiners) holds
    what is read before any membership event — identity, ``alive``,
    ``birth_time``, ``kernel``, ``slot``, the shared ``hpv_config`` — and
    nothing else; the first read of any other attribute lands in
    :meth:`__getattr__` and wakes it.  A node built with timers
    autostarting arms one at birth and is born warm.
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
        if getattr(network, "autostart_timers", True):
            super().__init__(network, node_id, hpv_config)
            return
        # What ProtocolNode.__init__ and HyParViewNode.__init__ would have
        # stored under these names; the rest is deferred to the wake.
        self.transport = network
        self.clock = network.clock
        self.node_id = node_id
        self.alive = True
        self.birth_time = self.clock.now
        self.hpv_config = hpv_config if hpv_config is not None else HyParViewConfig()
        kernel.cold.add(node_id)

    def __getattr__(self, name: str):
        # The first-touch hook of ``_rng`` and ``passive``, for the whole
        # membership layer: a miss on a cold node wakes it and retries.
        # Read through ``__dict__`` so that a miss on a half-built
        # instance (``copy``/``pickle`` probing ``__setstate__``) raises
        # instead of recursing.
        state = self.__dict__
        kernel = state.get("kernel")
        node_id = state.get("node_id")
        if kernel is not None and node_id in kernel.cold:
            # Safe by construction: the marker goes *before* the deferred
            # construction runs, so a miss inside the wake finds a warm
            # node and raises AttributeError below instead of recursing,
            # and a woken node can never wake again.
            kernel.cold.discard(node_id)
            self._wake()
            return getattr(self, name)
        return super().__getattr__(name)

    def _wake(self) -> None:
        """Build the deferred membership state as it would have been at
        birth, and install the views the population store holds.

        Arms no timer, draws from no RNG, pushes no heap event, appends
        to no kernel row: the shuffle task is created unarmed as it was
        for every node born with ``autostart_timers`` off (a static run
        has restored the flag to True by the time something wakes a
        node, hence the bracket); the views go in without neighbour-up
        notifications or link registration — the kernel row and
        ``Network.links`` hold the edges already.  ``alive`` and
        ``birth_time`` are kept: the first reader may be ``on_crash``,
        after ``alive`` went False.
        """
        alive, birth_time = self.alive, self.birth_time
        transport = self.transport
        autostart = transport.autostart_timers
        transport.autostart_timers = False
        try:
            super().__init__(transport, self.node_id, self.hpv_config)
        finally:
            transport.autostart_timers = autostart
        self.alive, self.birth_time = alive, birth_time
        views = self.kernel.wake_views(self.node_id)
        if views is not None:
            # What install_overlay's fresh-node path leaves: the active
            # view in row order, the passive view an unresolved provider.
            active, passive = views
            self.active = dict.fromkeys(active)
            del self.passive
            self._passive_provider = passive

    @classmethod
    def adopt_overlay(cls, nodes, views) -> bool:
        # One kernel serves a population; it refuses unless every one of
        # the nodes is cold in it.
        return nodes[0].kernel.adopt_views(views)

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

    # -- keep the kernel's neighbor rows mirroring the active view ------
    def neighbor_up(self, peer: NodeId) -> None:
        # Fired only on genuine inserts (HyParView guards duplicates), in
        # active-view insertion order — the row stays order-identical to
        # ``[p for p in self.active]``.
        self.kernel.row_append(self.slot, peer)

    def neighbor_down(self, peer: NodeId, failure: bool) -> None:
        self.kernel.row_remove(self.slot, peer)

    # on_crash: slot release is driven by Network.crash through
    # SlotKernel.release_node, after the protocol teardown — not from
    # the node.
