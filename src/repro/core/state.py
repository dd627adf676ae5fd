"""Per-stream protocol state of one BRISA node.

BRISA keys all dissemination state by stream id (the paper evaluates a
single stream; §IV's multiple-trees perspective falls out of this keying
for free).  The state tracks both directions of link activation:

- ``in_active[peer]`` — whether *we* still accept this stream from
  ``peer`` (False once we sent it a Deactivate);
- ``out_deactivated`` — peers that deactivated *our* outbound link (we
  stop relaying to them).

``position`` is the node's standing under the configured cycle predictor
(source path / depth label / Bloom mask); ``None`` means fresh — either
never reached or reset by a hard repair (§II-F).

The delivered seqs take O(gaps) memory, not O(messages): the recovery
prefix ``max_contig``, the never-delivered runs at or below it
(``holes``) and the delivered seqs above it (``ahead``, at most one
buffer's worth), with a counter beside them.  ``delivered`` is a
read-only set view over the three (DESIGN.md §11, §14).

One ``StreamState`` per node and stream is the whole per-stream view on
both BRISA kernels, the maintenance cache included.
The class is slotted: with more than 30 fields an instance ``__dict__``
would no longer share its keys across instances, and a node holds one
state per stream.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator, Set
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.core.recovery import MessageBuffer
from repro.core.strategies import Candidate
from repro.ids import NodeId, StreamId


@dataclass(slots=True)
class StreamState:
    stream: StreamId
    buffer: MessageBuffer
    is_source: bool = False

    # -- structure ------------------------------------------------------
    position: Any = None
    hops: Optional[int] = None
    parents: dict[NodeId, Candidate] = field(default_factory=dict)
    parent_meta: dict[NodeId, Any] = field(default_factory=dict)
    in_active: dict[NodeId, bool] = field(default_factory=dict)
    #: Number of True entries in ``in_active`` (the Fig. 13 settled
    #: probe reads it on every deactivation); kept by the
    #: ``BrisaNode._set_in_active``/``_forget_in_active`` choke points.
    active_in: int = 0
    out_deactivated: set[NodeId] = field(default_factory=set)
    #: Peers that *explicitly* re-activated our outbound link (Activate,
    #: §II-F) since their last Deactivate.  The symmetric-deactivation
    #: inference of §II-E ("src received this first, we can never be its
    #: first-come parent") must not silently re-mute these: a repair
    #: adoption is not governed by first-come order, and muting a peer
    #: that considers us its parent severs it permanently.
    reactivated: set[NodeId] = field(default_factory=set)
    #: First-arrival candidate info per neighbour (duplicates observed).
    candidates: dict[NodeId, Candidate] = field(default_factory=dict)

    # -- delivery (seqs start at 0) ------------------------------------
    #: The recovery prefix: every seq <= it is delivered or has left every
    #: retransmit buffer (``note_delivered``'s horizon, DESIGN.md §14), so
    #: a ``RetransmitRequest(max_contig)`` asks only for what a parent can
    #: still replay.  Not the delivered prefix: ``holes`` lists the seqs
    #: at or below it that never arrived.
    max_contig: int = -1
    #: Delivered seqs above ``max_contig``: at most ``buffer.capacity`` of
    #: them, since the horizon keeps the prefix that close to the newest.
    ahead: set[int] = field(default_factory=set)
    #: Never-delivered runs at or below ``max_contig`` as sorted half-open
    #: bounds ``[lo0, hi0, lo1, hi1, ...]``: ``seq`` is in a hole iff
    #: ``bisect_right(holes, seq)`` is odd.  One run per gap the horizon
    #: passed, split by a late first copy.
    holes: list[int] = field(default_factory=list)
    #: Distinct seqs delivered (``len(delivered)``).
    delivered_n: int = 0
    #: Last time a gap-triggered retransmit request went out (cooldown).
    last_gap_request: float = -1.0
    #: Non-first receptions (``Metrics.duplicates_per_node`` semantics,
    #: counted on both kernels, source echoes excluded).
    duplicates: int = 0

    # -- construction probe (Fig. 13) ------------------------------------
    first_deact_at: Optional[float] = None
    settled_at: Optional[float] = None

    #: Consecutive demotions attributed to each parent — the breaker for
    #: the mutual-adoption depth race (two equal-depth nodes adopting each
    #: other would otherwise chase each other's depth forever).
    demote_counts: dict[NodeId, int] = field(default_factory=dict)

    # -- repair machinery (§II-F) ----------------------------------------
    repairing: bool = False
    repair_record: bool = False
    repair_started: float = 0.0
    repair_hard: bool = False
    #: Whether this repair may escalate to a hard repair.  True for
    #: orphans and re-activation waves; False for DAG parent top-ups
    #: (losing one of several parents must never reset the position).
    repair_allow_hard: bool = True
    repair_queue: list[Candidate] = field(default_factory=list)
    repair_pending: Optional[NodeId] = None
    repair_attempt: int = 0

    # -- maintenance cache (BrisaNode._steady_data, DESIGN.md §11) -------
    #: Last (src, meta) whose full revalidation took no mutating branch;
    #: ``maint_src is None`` = invalid.  Every ``BrisaNode`` choke-point
    #: hook that changes an input of the rule table clears it.
    maint_src: Optional[NodeId] = None
    maint_meta: Any = None
    #: The cached source's Candidate (the steady path's EMA target), pinned
    #: at priming time: only ``neighbor_down`` removes a candidate, and it
    #: also drops the parent edge, which clears the cache.
    maint_cand: Optional[Candidate] = None
    #: Relay targets minus ``maint_src``, built lazily by the steady path;
    #: ``None`` = recompute.  Cleared with ``maint_src`` and on every
    #: change of the fan-out set; never mutated in place, so pending fan
    #: events may share it.
    maint_targets: Optional[list[NodeId]] = None

    # ------------------------------------------------------------------
    def note_delivered(self, seq: int) -> bool:
        """Record a reception of ``seq``; return whether it was the first.
        The only writer of the delivery fields, and the one place the
        recovery prefix advances (§II-F).  A parent's buffer keeps its
        ``capacity`` most recent stores, so once ``seq`` is out nothing at
        or below ``seq - capacity`` can still be replayed: the prefix
        moves up to that horizon first, its undelivered seqs becoming a
        hole, then folds in the delivered seqs above it.  Both data paths
        call this before the gap rule, so a gap request never asks for
        what no buffer can still hold (DESIGN.md §14)."""
        contig = self.max_contig
        if seq <= contig:
            holes = self.holes
            i = bisect_right(holes, seq)
            if not i & 1:
                return False
            # A late first copy inside the hole [lo, hi): what is left is
            # [lo, seq) and [seq + 1, hi), either of them maybe empty.
            lo, hi = holes[i - 1], holes[i]
            holes[i - 1:i + 1] = [
                bound for run in ((lo, seq), (seq + 1, hi)) if run[0] < run[1]
                for bound in run
            ]
            self.delivered_n += 1
            return True
        ahead = self.ahead
        if seq in ahead:
            return False
        self.delivered_n += 1
        if seq == contig + 1:
            contig = seq
        else:
            ahead.add(seq)
            horizon = seq - self.buffer.capacity
            if horizon > contig:
                self._pass_horizon(contig, horizon)
                contig = horizon
        while contig + 1 in ahead:
            contig += 1
            ahead.remove(contig)
        self.max_contig = contig
        return True

    def _pass_horizon(self, contig: int, horizon: int) -> None:
        """Move the delivered seqs in ``(contig, horizon]`` out of
        ``ahead`` and record the rest of that range as holes."""
        ahead = self.ahead
        caught = sorted(s for s in ahead if s <= horizon)
        ahead.difference_update(caught)
        holes = self.holes
        lo = contig + 1
        for seq in caught + [horizon + 1]:
            if seq > lo:
                if holes and holes[-1] == lo:
                    holes[-1] = seq
                else:
                    holes += (lo, seq)
            lo = seq + 1

    @property
    def delivered(self) -> DeliveredSeqs:
        """The delivered seqs as a read-only set."""
        return DeliveredSeqs(self)

    def reset_position(self) -> None:
        self.position = None
        self.hops = None

    def drop_parent(self, peer: NodeId) -> bool:
        self.parent_meta.pop(peer, None)
        return self.parents.pop(peer, None) is not None

    @property
    def engaged(self) -> bool:
        """Has this node participated in the stream at all?"""
        return self.is_source or self.position is not None or self.delivered_n > 0


class DeliveredSeqs(Set):
    """Read-only set view of a ``StreamState``'s delivered seqs: ``[0,
    max_contig]`` minus the holes, plus ``ahead``.  Set operators against
    it return plain sets."""

    __slots__ = ("_state",)

    def __init__(self, state: StreamState) -> None:
        self._state = state

    def __contains__(self, seq: object) -> bool:
        state = self._state
        if seq > state.max_contig:
            return seq in state.ahead
        return seq >= 0 and not bisect_right(state.holes, seq) & 1

    def __len__(self) -> int:
        return self._state.delivered_n

    def __iter__(self) -> Iterator[int]:
        state = self._state
        holes = state.holes
        lo = 0
        for k in range(0, len(holes), 2):
            yield from range(lo, holes[k])
            lo = holes[k + 1]
        yield from range(lo, state.max_contig + 1)
        yield from sorted(state.ahead)

    @classmethod
    def _from_iterable(cls, it) -> set[int]:
        return set(it)

    def __repr__(self) -> str:
        return f"DeliveredSeqs({set(self)!r})"
