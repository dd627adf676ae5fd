"""Slotted BRISA kernel: a fan loop over the nodes' own delivery paths.

The flood stack's slotted kernel (DESIGN.md §9) showed that at xxl
populations the dissemination cost is per-reception Python handler work.
For BRISA most of that work is the steady transition of a formed
structure — first copy of the next sequence, from the same parent, with
the same position metadata — and ``BrisaNode`` itself recognizes it
through the maintenance cache on its :class:`StreamState`
(``BrisaNode._steady_data``, DESIGN.md §11), on every kernel and every
delivery plan.

What is left here is fan-specific.  The kernel is the ``Data`` fan sink
of the fused plan: it reads the shared message's metadata, hop count and
path delay once per fan instead of once per recipient, skips the
per-recipient ``handle_message`` dispatch, and books what the generic
fan loop and ``on_brisa_data`` book, in every mode: receive bytes per
recipient and each steady delivery as a first copy (the node's sequence
record said so); the cold path books its own record's verdict.
Each recipient then takes its node's steady path or, when the cache
proves nothing, its cold path —
one rule table and one protocol implementation on both kernels, so
parity is structural.
"""

from __future__ import annotations

from repro.config import BrisaConfig, HyParViewConfig
from repro.core import messages as bm
from repro.core.brisa import BrisaNode
from repro.core.cycle import make_predictor
from repro.core.slots import SlotKernel
from repro.errors import SimulationError
from repro.ids import NodeId


class SlottedBrisaKernel:
    """The ``Data`` fan sink shared by every :class:`SlottedBrisaNode`."""

    # bench/trace.py looks its probes up in the class's own ``__dict__``.
    # Never called: this kernel keeps no fan-out rows.
    install_rows = SlotKernel.install_rows

    def __init__(self, network, config: BrisaConfig | None = None) -> None:
        self.network = network
        self.sim = network.sim
        self.metrics = network.metrics
        #: The one rule table's predictor: it reads a fan's metadata once.
        self.predictor = make_predictor(
            config if config is not None else BrisaConfig()
        )
        network.register_fan_sink(bm.Data.kind, self.on_fan)

    def on_fan(self, src: NodeId, dsts: list[NodeId], msg: bm.Data, size: int) -> None:
        """Process one whole fused fan-out of stream data, per destination
        in order (matching the generic fan loop): the node's steady path
        or, when the maintenance cache proves nothing, its cold path."""
        stream = msg.stream
        metrics = self.metrics
        nodes = self.network.nodes
        now = self.sim.now
        # Read once for the whole fan: every recipient shares the instance.
        hops = msg.hops + 1
        path_delay = msg.path_delay + (now - msg.sent_at)
        meta = self.predictor.meta(msg)
        for dst in dsts:
            node = nodes.get(dst)
            if node is None or not node.alive:
                # The generic single-delivery semantics (drop + notice).
                self.network._deliver_fast(src, dst, msg, size)
                continue
            metrics.account_receive(dst, size)
            state = node.streams.get(stream)
            if state is None:
                state = node.stream_state(stream)
            if node._steady_data(state, src, msg, meta, hops, path_delay):
                metrics.record_delivery(
                    dst, stream, msg.seq, now, src, hops, path_delay, True
                )
            else:
                node._cold_data(state, src, msg, meta, hops, path_delay)


class SlottedBrisaNode(BrisaNode):
    """BRISA participant served by a :class:`SlottedBrisaKernel`.

    Protocol behaviour is the unmodified :class:`BrisaNode` — same rule
    table, same state, same RNG streams (``rng_kind``), so slotted and
    object runs of one seed walk the same simulation.  Fused ``Data``
    fan-outs reach it through the kernel's sink; everything else,
    single ``Data`` sends included, through the regular dispatch.
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
        super().__init__(network, node_id, config, hpv_config)
        if self.predictor.name != kernel.predictor.name:
            raise SimulationError(
                f"kernel predictor {kernel.predictor.name!r} != node predictor "
                f"{self.predictor.name!r}: one kernel serves one rule table"
            )
