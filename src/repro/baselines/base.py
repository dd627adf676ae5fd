"""What every baseline node does with its sequence records.

Each comparison stack keeps one ``SeqRecord`` per stream (DESIGN.md §14,
"The sequence record") and ships :class:`repro.sim.message.StreamData`.
:class:`BaselineNode` is the one place that builds the records, counts
deliveries, clears them on crash and books injections and receptions in
``Metrics`` — hops and cumulative per-hop delay (Fig. 9) included — so a
stack's handlers keep only what they do with the verdict (DESIGN.md §14,
"The stream-data message").
"""

from __future__ import annotations

from typing import Optional

from repro.core.seqrecord import SeqRecords
from repro.ids import NodeId, StreamId
from repro.sim.message import StreamData
from repro.sim.node import ProtocolNode


class BaselineNode(ProtocolNode):
    """Base of the baseline nodes; listed before the membership class
    (``class FloodNode(BaselineNode, HyParViewNode)``), whose constructor
    arguments it passes through."""

    #: Recovery horizon of this stack's records, or None for none.
    seq_horizon: Optional[int] = None

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.seqs = SeqRecords(self.seq_horizon)

    def delivered_count(self, stream: StreamId = 0) -> int:
        return self.seqs.delivered_count(stream)

    def book_injection(self, stream: StreamId, seq: int) -> None:
        """Book this node's own publication of ``seq`` as delivered here."""
        self.transport.metrics.record_injection(stream, seq, self.clock.now)
        self.seqs[stream].note_delivered(seq)

    def book_reception(self, src: NodeId, msg: StreamData) -> tuple[bool, int, float]:
        """Book one reception of ``msg`` from ``src``: its first-copy
        verdict goes to the record and, with the hop count and the path
        delay including this hop, to ``Metrics``.  Returns
        ``(first, hops, path_delay)`` for the relay."""
        now = self.clock.now
        stream, seq = msg.stream, msg.seq
        hops = msg.hops + 1
        path_delay = msg.path_delay + (now - msg.sent_at)
        first = self.seqs[stream].note_delivered(seq)
        self.transport.metrics.record_delivery(
            self.node_id, stream, seq, now, src, hops, path_delay, first
        )
        return first, hops, path_delay

    def on_crash(self) -> None:
        super().on_crash()
        self.seqs.clear()
