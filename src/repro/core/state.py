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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.core.recovery import MessageBuffer
from repro.core.strategies import Candidate
from repro.ids import NodeId, StreamId


@dataclass
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

    # -- delivery -------------------------------------------------------
    delivered: set[int] = field(default_factory=set)
    max_contig: int = -1
    #: Last time a gap-triggered retransmit request went out (cooldown).
    last_gap_request: float = -1.0

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

    # ------------------------------------------------------------------
    def note_delivered(self, seq: int) -> None:
        self.delivered.add(seq)
        while (self.max_contig + 1) in self.delivered:
            self.max_contig += 1

    def reset_position(self) -> None:
        self.position = None
        self.hops = None

    def drop_parent(self, peer: NodeId) -> bool:
        self.parent_meta.pop(peer, None)
        return self.parents.pop(peer, None) is not None

    @property
    def engaged(self) -> bool:
        """Has this node participated in the stream at all?"""
        return self.is_source or self.position is not None or bool(self.delivered)
