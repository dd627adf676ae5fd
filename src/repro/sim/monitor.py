"""Metric collection with phase accounting.

The paper separates *stabilization* bandwidth (overlay + structure
bootstrap) from *dissemination* bandwidth (Fig. 12); :class:`Metrics`
tags every byte with the phase active at send time.  Delivery recording
feeds the duplicates CDF (Fig. 2), routing delays (Fig. 9), dissemination
latency (Table II) and the repair statistics (Table I, Figs. 13–14).

Recording is plain-dict hot-path cheap; the NumPy conversion happens once
at analysis time (see :mod:`repro.metrics.stats`), per the HPC guides'
"profile, then vectorize the aggregation" advice.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.ids import NodeId, StreamId

#: Phase names used across all experiments.
STABILIZATION = "stabilization"
DISSEMINATION = "dissemination"


@dataclass
class DeliveryRecord:
    """First delivery of one (stream, seq) at one node."""

    time: float
    sender: NodeId
    hops: int
    #: Sum of sampled per-hop delays from the source (Fig. 9's cumulative
    #: per-hop routing delay).
    path_delay: float


@dataclass
class RepairEvent:
    """One parent-repair episode at a node (§II-F, Table I, Fig. 14)."""

    time: float
    node: NodeId
    kind: str  # 'soft' | 'hard'
    duration: float  # detection -> new parent active
    stream: StreamId = 0


@dataclass
class ConstructionProbe:
    """Structure construction interval at one node (Fig. 13)."""

    node: NodeId
    start: float  # first deactivation sent (BRISA) / join start (TAG)
    end: float  # all-but-target inbound links deactivated / list settled

    @property
    def duration(self) -> float:
        return self.end - self.start


class StreamMetrics:
    """Delivery/bandwidth shard of one stream (DESIGN.md §10).

    The one read surface for deliveries: books are keyed by plain ``seq``
    (no tuple allocation, no shared dict on the hot path), and per-stream
    reports read their own stream's shard directly.
    """

    __slots__ = (
        "stream",
        "injections",
        "deliveries",
        "duplicates",
        "first_deliveries",
        "duplicate_receptions",
        "payload_bytes",
    )

    def __init__(self, stream: StreamId) -> None:
        self.stream = stream
        #: seq -> injection time at the source.
        self.injections: dict[int, float] = {}
        #: seq -> node -> DeliveryRecord (first delivery only).
        self.deliveries: dict[int, dict[NodeId, DeliveryRecord]] = {}
        #: node -> duplicate receptions on this stream.
        self.duplicates: dict[NodeId, int] = defaultdict(int)
        #: Total first-time receptions recorded on this stream.
        self.first_deliveries = 0
        #: Total duplicate receptions recorded on this stream.
        self.duplicate_receptions = 0
        #: Payload bytes of first-time receptions (per-stream goodput).
        self.payload_bytes = 0


class Metrics:
    """Central metric sink shared by all nodes of one simulation."""

    def __init__(self, record_deliveries: bool = True) -> None:
        self.record_deliveries = record_deliveries
        self.phase: str = STABILIZATION
        #: First time each phase was entered (reporting only; durations
        #: come from the accumulated closed intervals below).
        self.phase_starts: dict[str, float] = {STABILIZATION: 0.0}
        #: Last time each phase was closed.
        self.phase_ends: dict[str, float] = {}
        #: Sum of closed [enter, leave) intervals per phase.  A phase can
        #: be entered repeatedly (e.g. two ``run_stream`` calls on one
        #: testbed); only time actually spent *in* the phase counts, so
        #: interleaved idle gaps cannot deflate bandwidth rates.
        self.phase_elapsed: dict[str, float] = defaultdict(float)
        #: Start of the currently-open interval (None when closed).
        self._phase_opened_at: Optional[float] = 0.0
        # node -> phase -> bytes
        self.bytes_sent: dict[NodeId, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.bytes_received: dict[NodeId, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        # message-kind -> phase -> count
        self.msg_counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        #: Per-stream delivery/bandwidth shards (DESIGN.md §10): every
        #: injection/delivery/duplicate is booked in its own stream's
        #: :class:`StreamMetrics`, so concurrent streams never contend on
        #: one nested dict and per-stream reports read their shard directly.
        self.streams: dict[StreamId, StreamMetrics] = {}
        self.repair_events: list[RepairEvent] = []
        self.parent_losses: list[tuple[float, NodeId]] = []
        self.orphan_events: list[tuple[float, NodeId]] = []
        self.construction_probes: list[ConstructionProbe] = []
        self.counters: dict[str, int] = defaultdict(int)

    def stream(self, stream: StreamId) -> StreamMetrics:
        """The per-stream shard for ``stream`` (created on first touch)."""
        shard = self.streams.get(stream)
        if shard is None:
            shard = self.streams[stream] = StreamMetrics(stream)
        return shard

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------
    def set_phase(self, phase: str, now: float) -> None:
        """Close the current phase interval and open ``phase`` at ``now``.

        Re-entering a phase (after a :meth:`close`, or from another
        phase) opens a *new* interval; the closed ones stay accumulated
        in :attr:`phase_elapsed`."""
        if phase == self.phase and self._phase_opened_at is not None:
            return
        self._close_interval(now)
        self.phase = phase
        self.phase_starts.setdefault(phase, now)
        self._phase_opened_at = now

    def close(self, now: float) -> None:
        """Close the current phase interval (for rate computations).
        Idempotent: a second close without an intervening
        :meth:`set_phase` adds nothing."""
        self._close_interval(now)

    def _close_interval(self, now: float) -> None:
        if self._phase_opened_at is None:
            return
        self.phase_elapsed[self.phase] += max(0.0, now - self._phase_opened_at)
        self.phase_ends[self.phase] = now
        self._phase_opened_at = None

    def phase_duration(self, phase: str) -> float:
        """Total time spent in ``phase`` across all its closed intervals."""
        return self.phase_elapsed.get(phase, 0.0)

    # ------------------------------------------------------------------
    # Traffic
    # ------------------------------------------------------------------
    def account_send(self, node: NodeId, kind: str, nbytes: int) -> None:
        self.bytes_sent[node][self.phase] += nbytes
        self.msg_counts[kind][self.phase] += 1

    def account_send_many(self, node: NodeId, kind: str, nbytes: int, count: int) -> None:
        """Batched form of :meth:`account_send` for fan-out sends: one
        dict walk for ``count`` identical messages (same totals)."""
        phase = self.phase
        self.bytes_sent[node][phase] += nbytes * count
        self.msg_counts[kind][phase] += count

    def account_wave(self, wave) -> None:
        """Batched :meth:`account_send_many` over one
        :class:`~repro.sim.network.FanWave`: the same totals as one call
        per fan (one dict walk per fan, one per wave for the kind
        counter)."""
        phase = self.phase
        bytes_sent = self.bytes_sent
        offs = wave.offs
        fan_bytes = (offs[1:] - offs[:-1]) * wave.size
        for src, nbytes in zip(wave.srcs.tolist(), fan_bytes.tolist()):
            bytes_sent[src][phase] += nbytes
        self.msg_counts[wave.msg.kind][phase] += len(wave.dsts)

    def account_receive(self, node: NodeId, nbytes: int) -> None:
        self.bytes_received[node][self.phase] += nbytes

    def account_overhead(self, node: NodeId, phase: str, sent: int, received: int) -> None:
        """Analytically-accounted traffic (keep-alives; see DESIGN.md §5)."""
        self.bytes_sent[node][phase] += sent
        self.bytes_received[node][phase] += received

    # ------------------------------------------------------------------
    # Deliveries
    # ------------------------------------------------------------------
    def record_injection(self, stream: StreamId, seq: int, time: float) -> None:
        self.stream(stream).injections[seq] = time

    def record_delivery(
        self,
        node: NodeId,
        stream: StreamId,
        seq: int,
        time: float,
        sender: NodeId,
        hops: int,
        path_delay: float,
        payload_bytes: int = 0,
    ) -> bool:
        """Record a reception; returns True iff it was the first delivery.

        ``payload_bytes`` (when the caller knows it) accrues to the
        stream shard's goodput total on first deliveries only.
        """
        shard = self.stream(stream)
        per_node = shard.deliveries.get(seq)
        if per_node is None:
            per_node = shard.deliveries[seq] = {}
        if node in per_node:
            shard.duplicates[node] += 1
            shard.duplicate_receptions += 1
            return False
        shard.first_deliveries += 1
        shard.payload_bytes += payload_bytes
        if self.record_deliveries:
            per_node[node] = DeliveryRecord(time, sender, hops, path_delay)
        else:  # still need first/dup distinction, so store a sentinel
            per_node[node] = _SENTINEL
        return True

    # ------------------------------------------------------------------
    # Repairs & probes
    # ------------------------------------------------------------------
    def record_parent_loss(self, time: float, node: NodeId) -> None:
        self.parent_losses.append((time, node))

    def record_orphan(self, time: float, node: NodeId) -> None:
        self.orphan_events.append((time, node))

    def record_repair(
        self, time: float, node: NodeId, kind: str, duration: float, stream: StreamId = 0
    ) -> None:
        self.repair_events.append(RepairEvent(time, node, kind, duration, stream))

    def record_construction(self, node: NodeId, start: float, end: float) -> None:
        self.construction_probes.append(ConstructionProbe(node, start, end))

    def incr(self, name: str, n: int = 1) -> None:
        self.counters[name] += n

    # ------------------------------------------------------------------
    # Simple queries (heavier analysis lives in repro.metrics)
    # ------------------------------------------------------------------
    def duplicates_per_node(self, nodes) -> list[int]:
        shards = self.streams.values()
        return [sum(shard.duplicates.get(n, 0) for shard in shards) for n in nodes]

    def records(self, stream: StreamId, seq: int) -> dict[NodeId, DeliveryRecord]:
        """node -> first-delivery record of one message (empty when none
        is recorded; never creates a shard).  Without
        ``record_deliveries`` every record is the shared ``_SENTINEL``."""
        shard = self.streams.get(stream)
        return {} if shard is None else shard.deliveries.get(seq, {})

    def stream_delivery_count(
        self,
        stream: StreamId,
        receivers: Iterable[NodeId],
        *,
        window: Optional[tuple[int, int]] = None,
    ) -> int:
        """First deliveries of ``stream`` observed by ``receivers`` over a
        half-open ``[lo, hi)`` sequence ``window``.

        ``window=None`` spans every injection recorded for the stream —
        ``[min seq, max seq + 1)``.  The window is half-open so callers
        can split a stream into disjoint ranges (``(0, k)`` + ``(k, n)``)
        without double-counting the boundary sequence.
        """
        if not isinstance(receivers, set):
            receivers = set(receivers)
        shard = self.streams.get(stream)
        lo, hi = self._resolve_window(shard, window)
        if not receivers or hi <= lo or shard is None:
            return 0
        deliveries = shard.deliveries
        got = 0
        for seq in range(lo, hi):
            per_node = deliveries.get(seq)
            if per_node:
                got += len(receivers & per_node.keys())
        return got

    def delivered_fraction(
        self,
        stream: StreamId,
        receivers: Iterable[NodeId],
        *,
        window: Optional[tuple[int, int]] = None,
    ) -> float:
        """Fraction of (sequence, receiver) pairs of ``stream`` delivered,
        over the half-open ``window`` (see :meth:`stream_delivery_count`).

        An empty audience or an empty window expects zero pairs and is
        vacuously complete (1.0); a window with no recorded injections
        and no deliveries is 0.0.
        """
        if not isinstance(receivers, set):
            receivers = set(receivers)
        if not receivers:
            return 1.0
        shard = self.streams.get(stream)
        lo, hi = self._resolve_window(shard, window)
        if hi <= lo:
            return 1.0 if window is not None else 0.0
        got = self.stream_delivery_count(stream, receivers, window=(lo, hi))
        return got / ((hi - lo) * len(receivers))

    @staticmethod
    def _resolve_window(
        shard: Optional[StreamMetrics], window: Optional[tuple[int, int]]
    ) -> tuple[int, int]:
        if window is not None:
            return window
        if shard is None or not shard.injections:
            return (0, 0)
        return (min(shard.injections), max(shard.injections) + 1)

    def total_bytes(self, phase: Optional[str] = None) -> int:
        total = 0
        for per_phase in self.bytes_sent.values():
            if phase is None:
                total += sum(per_phase.values())
            else:
                total += per_phase.get(phase, 0)
        return total

    def node_bytes(self, node: NodeId, phase: str, direction: str = "sent") -> int:
        book = self.bytes_sent if direction == "sent" else self.bytes_received
        return book.get(node, {}).get(phase, 0)


#: Shared sentinel for delivery bookkeeping when full records are disabled.
_SENTINEL = DeliveryRecord(0.0, -1, 0, 0.0)
