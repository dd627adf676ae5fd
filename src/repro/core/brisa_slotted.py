"""Slotted BRISA kernel: the maintenance cache behind the fan-sink seam.

The flood stack's slotted kernel (DESIGN.md §9) showed that at xxl
populations the dissemination cost is per-reception Python handler work.
BRISA's hot path carries more state than flooding — parent sets, stream
levels, link-activation bits, cycle-prevention positions — but in steady
state almost every reception is the *same* transition: first copy of the
next sequence, from the same parent, carrying the same position metadata,
relayed to the same children.  This kernel makes that transition a
handful of attribute reads behind the ``Data`` fan sink.  It holds no
per-node state: the node's :class:`StreamState` is the one per-stream
view on both kernels — parents, position, delivered set, duplicate
count, and the out-deactivated links that :meth:`BrisaNode._relay_targets`
takes from the active view — and it carries the cache too:

- a *maintenance cache* ``(maint_src, maint_meta)`` keyed by object
  identity: the pure rule table (:mod:`repro.core.rules`) is a function
  of (position, parents, demote counts, backflow, meta), every mutation
  of those inputs funnels through a ``BrisaNode`` choke-point hook, and
  each hook clears the cache.  A reception whose (src, meta) match the
  cache *by identity* with all inputs untouched since must reproduce the
  previous maintenance decision — which, for a surviving cache, took no
  mutating branch — so the whole Fig. 3 / §II-G revalidation can be
  skipped.

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
from repro.core.slots import SlotKernel
from repro.core.state import StreamState
from repro.errors import SimulationError
from repro.ids import NodeId

#: Local alias: the fast path builds forwards via ``__new__`` + direct
#: slot stores (the keyword constructor costs ~3x as much per message).
_Data = bm.Data


class SlottedBrisaKernel:
    """The ``Data`` fan sink shared by every :class:`SlottedBrisaNode`."""

    # bench/trace.py looks its probes up in the class's own ``__dict__``.
    # Never called: this kernel keeps no neighbor rows.
    install_rows = SlotKernel.install_rows

    def __init__(self, network, config: BrisaConfig | None = None) -> None:
        self.network = network
        self.sim = network.sim
        self.metrics = network.metrics
        #: Mirror receptions into Metrics (parity/record mode)?
        self._mirror = network.metrics.record_deliveries
        cfg = config if config is not None else BrisaConfig()
        self.num_parents = cfg.num_parents
        #: The one rule table's predictor: the ``Data`` attribute the
        #: metadata travels in, its filter width and per-relay growth.
        self.predictor = make_predictor(cfg)
        self._gap_cooldown = BrisaNode.GAP_REQUEST_COOLDOWN
        self._buffer_cap = cfg.buffer_size
        network.register_fan_sink(bm.Data.kind, self.on_fan)

    # -- delivery hot path ----------------------------------------------
    def on_fan(self, src: NodeId, dsts: list[NodeId], msg: bm.Data, size: int) -> None:
        """Process one whole fused fan-out of stream data.

        Per destination, in order (matching the generic fan loop): either
        the maintenance-cache fast path — the full steady-state
        transition inlined against the node's stream state — or cold
        delegation to the unmodified ``BrisaNode.on_brisa_data``.
        """
        stream = msg.stream
        seq = msg.seq
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
            node = nodes.get(dst)
            if node is None or not node.alive:
                # The generic single-delivery semantics (drop + notice).
                self.network._deliver_fast(src, dst, msg, size)
                continue
            if mirror:
                self.metrics.account_receive(dst, size)
            state = node.streams.get(stream)
            # A non-None cached source implies a pinned candidate (set
            # together at priming time).
            if (
                state is not None
                and src == state.maint_src
                and meta is state.maint_meta
                and seq not in state.delivered
            ):
                # Fast path: first copy of ``seq`` from the cached
                # parent with identity-identical metadata — the
                # previous revalidation of exactly these inputs took
                # no mutating branch (any hook would have cleared
                # the cache), so the Fig. 3 / §II-G maintenance step
                # is a proven no-op and only the delivery work runs.
                # (That prior MAINTAIN also stored ``parent_meta[src]
                # = meta``, so re-storing it here would be redundant.)
                cand = state.maint_cand
                cand.path_delay = 0.7 * cand.path_delay + 0.3 * mpd
                if mirror:
                    self.metrics.record_delivery(
                        dst, stream, seq, now, src, hops, path_delay, payload
                    )
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
                targets = state.maint_targets
                if targets is None:
                    targets = state.maint_targets = node._relay_targets(state, src)
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
                    node._begin_repair(state, record=False, allow_hard=False)
                continue
            if state is None:
                state = node.stream_state(stream)
            self._cold(node, state, src, msg, meta)

    # -- cold path (everything the maintenance cache does not prove) -----
    def _cold(self, node: "SlottedBrisaNode", state: StreamState,
              src: NodeId, msg: bm.Data, meta) -> None:
        """Optimistically prime the maintenance cache, then run the full
        protocol."""
        if (
            meta is not None
            and not state.is_source
            and msg.seq not in state.delivered
            and src in state.parents
        ):
            # If the revalidation below mutates anything, a choke-point
            # hook clears this again.
            self._prime(state, src, meta)
        node.on_brisa_data(src, msg, state)
        if (
            meta is not None
            and state.maint_src is None
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
            self._prime(state, src, meta)

    @staticmethod
    def _prime(state: StreamState, src: NodeId, meta) -> None:
        """Cache ``(src, meta)`` as ``state``'s proven-no-op maintenance
        input (needs ``src``'s Candidate: the fast path's EMA target)."""
        cand = state.candidates.get(src)
        if cand is not None:
            state.maint_src = src
            state.maint_meta = meta
            state.maint_cand = cand
            state.maint_targets = None

    # -- per-message path (occupancy models, retransmissions) ------------
    def on_data(self, node: "SlottedBrisaNode", src: NodeId, msg: bm.Data) -> None:
        """Single-delivery entry (no fused fan): cold delegation only —
        per-message schedules never dominate, so the fast path is
        reserved for the fan sink."""
        self._cold(node, node.stream_state(msg.stream), src, msg,
                   self.predictor.meta(msg))


class SlottedBrisaNode(BrisaNode):
    """BRISA participant served by a :class:`SlottedBrisaKernel`.

    Protocol behaviour is the unmodified :class:`BrisaNode` — same rule
    table, same state, same RNG streams (``rng_kind``), so slotted and
    object runs of one seed walk the same simulation.  ``Data``
    receptions short-circuit into the kernel.
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
        super().__init__(network, node_id, config, hpv_config)
        if self.predictor.name != kernel.predictor.name:
            raise SimulationError(
                f"kernel predictor {kernel.predictor.name!r} != node predictor "
                f"{self.predictor.name!r}: one kernel serves one rule table"
            )

    def handle_message(self, src: NodeId, msg) -> None:
        # One type probe replaces the ``on_<kind>`` dispatch on the
        # dominant message kind; control traffic takes the regular path.
        if type(msg) is bm.Data:
            if self.alive:
                self.kernel.on_data(self, src, msg)
            return
        super().handle_message(src, msg)
