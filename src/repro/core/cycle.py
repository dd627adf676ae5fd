"""Cycle predictors: the three candidates §II-D/§II-G weigh against each other.

A predictor owns everything a node's *position* — its standing in the
structure — means; ``meta`` is a parent's position as a message carries
it, ``None`` a fresh node (anything is eligible; hard repair resets to
it).  Three implementations:

- :class:`PathEmbeddingPredictor` — exact, used for trees.  Messages carry
  the identifiers on the path from the source; a candidate is eligible iff
  the node does not appear in its path.  Zero false positives/negatives;
  metadata grows with tree height (≈ ``log_b N`` ids).
- :class:`DepthLabelPredictor` — approximate, used for DAGs.  Messages
  carry a single integer depth; eligible iff the candidate sits no deeper
  than the node.  May reject causally-unrelated candidates (false
  negatives, Fig. 5) but can never create a cycle.
- :class:`BloomFilterPredictor` — the probabilistic alternative the paper
  argues *against* (§II-D cost comparison); implemented for the ablation
  bench.  Messages carry a Bloom filter of the candidate's ancestors;
  false positives of the filter translate into false-negative parent
  rejections.

The interface, in the order a node meets it: ``source_position``;
``meta`` (read a message's metadata) and ``message_fields`` / ``stamp``
(write it; ``relay_bytes`` is what one relay adds); ``eligible`` (may a
provider become a parent — Fig. 3, soft repair, ``ActivateAck``);
``adopt`` (the position one parent implies) and ``join`` (combined with
the current one when a parent is added: path the newest, depth the
deepest, Bloom the union); ``check_parent`` (revalidate a parent: ok /
demote / cycle); ``refresh`` (the steady-state position from an ok
parent: path re-embeds, Bloom folds in every parent's current filter,
depth stays); ``hops`` (the distance a position implies, none for a
filter); and ``update`` (what a position change pushes to the
neighbours still linked to the node: ``DepthUpdate`` on a demotion,
``BloomUpdate`` on filter growth).  ``core/brisa.py`` threads the results
through its side effects and :mod:`repro.core.rules` turns
``check_parent`` into maintenance verdicts; no caller branches on
``name``.  A child is consistent with a parent at ``meta`` iff
``join(child, position, meta) == position``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Optional

from repro.config import BrisaConfig
from repro.core import messages as bm
from repro.ids import NODE_ID_BYTES, NodeId, StreamId
from repro.sim.message import Message
from repro.sim.rng import derive_seed

#: Verdicts of :meth:`CyclePredictor.check_parent`.
PARENT_OK = "ok"
PARENT_DEMOTE = "demote"  # depth mode: move self below the parent
PARENT_CYCLE = "cycle"  # exact modes: drop this parent, reselect


class CyclePredictor(ABC):
    """Strategy object for cycle-free parent eligibility."""

    #: Predictor name, doubling as the message attribute its metadata
    #: travels in (``path`` / ``depth`` / ``bloom``).
    name: str = ""
    #: Filter width declared on the wire (``bloom_bits``); 0 = no filter.
    bits: int = 0
    #: Metadata bytes one relay adds to a forwarded message.
    relay_bytes: int = 0

    @abstractmethod
    def source_position(self, node_id: NodeId) -> Any:
        """Initial position of the stream source."""

    @abstractmethod
    def adopt(self, node_id: NodeId, meta: Any) -> Any:
        """Own position implied by one parent at ``meta``."""

    @abstractmethod
    def join(self, node_id: NodeId, position: Any, meta: Any) -> Any:
        """Own position after adding a parent at ``meta``."""

    @abstractmethod
    def eligible(self, node_id: NodeId, position: Any, meta: Any) -> bool:
        """May a provider at ``meta`` become a parent (never if ``None``)?"""

    @abstractmethod
    def check_parent(self, node_id: NodeId, position: Any, meta: Any) -> str:
        """Re-validate an *existing* parent from a fresh ``meta``."""

    def message_fields(self, position: Any) -> dict:
        """Keyword fields that carry ``position`` on a ``Data`` / ``ActivateAck``."""
        return {self.name: position, "bloom_bits": self.bits}

    def meta(self, msg: Message) -> Any:
        """The metadata ``msg`` carries (``None``: it carries none)."""
        return getattr(msg, self.name, None)

    def stamp(self, msg: bm.Data, position: Any) -> None:
        """Store ``position`` on a ``Data`` built through ``__new__``."""
        msg.path = msg.depth = msg.bloom = None
        setattr(msg, self.name, position)
        msg.bloom_bits = self.bits

    def refresh(self, node_id: NodeId, position: Any, meta: Any, parent_metas) -> Any:
        """Own position after an ``ok`` parent sent ``meta``."""
        return position

    def hops(self, position: Any) -> Optional[int]:
        """Distance from the source that ``position`` implies, if any."""
        return None

    def update(self, stream: StreamId, old: Any, new: Any) -> Optional[Message]:
        """The message a move from ``old`` to ``new`` pushes, if any."""
        return None


class PathEmbeddingPredictor(CyclePredictor):
    """Exact prediction through embedded source paths (§II-D)."""

    name = "path"
    relay_bytes = NODE_ID_BYTES

    def source_position(self, node_id: NodeId) -> tuple[NodeId, ...]:
        return (node_id,)

    def adopt(self, node_id: NodeId, meta: tuple[NodeId, ...]) -> tuple[NodeId, ...]:
        return tuple(meta) + (node_id,)

    def join(self, node_id: NodeId, position, meta) -> tuple[NodeId, ...]:
        return self.adopt(node_id, meta)

    def eligible(self, node_id: NodeId, position, meta) -> bool:
        return meta is not None and node_id not in meta

    def check_parent(self, node_id: NodeId, position, meta) -> str:
        return PARENT_CYCLE if node_id in meta else PARENT_OK

    def refresh(self, node_id: NodeId, position, meta, parent_metas):
        return self.adopt(node_id, meta)

    def hops(self, position) -> int:
        return len(position) - 1


class DepthLabelPredictor(CyclePredictor):
    """Approximate prediction through depth labels (§II-G)."""

    name = "depth"

    def source_position(self, node_id: NodeId) -> int:
        return 0

    def adopt(self, node_id: NodeId, meta: int) -> int:
        return int(meta) + 1

    def join(self, node_id: NodeId, position, meta) -> int:
        depth = self.adopt(node_id, meta)
        return depth if position is None else max(position, depth)

    def eligible(self, node_id: NodeId, position, meta) -> bool:
        # §II-G: "N can select parents from nodes at any depth not greater
        # than i".  Adopting an equal-depth parent moves N down to depth
        # i+1 (handled by join() + the demotion propagation), restoring
        # the strict parent-above-child invariant.
        return meta is not None and (position is None or meta <= position)

    def check_parent(self, node_id: NodeId, position, meta) -> str:
        # A parent that moved to our depth (or below) pushes us down — the
        # "N moves to depth i+1 and updates its children" rule of §II-G.
        demote = position is not None and meta >= position
        return PARENT_DEMOTE if demote else PARENT_OK

    def hops(self, position) -> int:
        return int(position)

    def update(self, stream: StreamId, old, new) -> Optional[Message]:
        # Moving down (§II-G): "immediately updates its downstream
        # children accordingly".
        moved_down = old is not None and new > old
        return bm.DepthUpdate(stream, new) if moved_down else None


class BloomFilterPredictor(CyclePredictor):
    """Probabilistic ancestor sets via Bloom filters (comparison baseline).

    The filter is an ``m``-bit integer mask; each node sets ``k``
    hash-derived bits.  A candidate is eligible iff the node's bits are
    not all present in the candidate's filter — false positives of the
    filter therefore *reject valid parents* (safe but wasteful), never
    admit cycles.
    """

    name = "bloom"

    def __init__(self, bits: int = 1024, hashes: int = 4) -> None:
        if bits <= 0 or hashes <= 0:
            raise ValueError("bits and hashes must be positive")
        self.bits = bits
        self.hashes = hashes

    def _node_mask(self, node_id: NodeId) -> int:
        mask = 0
        for i in range(self.hashes):
            bit = derive_seed(0, "bloom", node_id, i) % self.bits
            mask |= 1 << bit
        return mask

    def contains(self, filter_mask: int, node_id: NodeId) -> bool:
        bits = self._node_mask(node_id)
        return (filter_mask & bits) == bits

    def source_position(self, node_id: NodeId) -> int:
        return self._node_mask(node_id)

    def adopt(self, node_id: NodeId, meta: int) -> int:
        return int(meta) | self._node_mask(node_id)

    def join(self, node_id: NodeId, position, meta) -> int:
        mask = self.adopt(node_id, meta)
        return mask if position is None else position | mask

    def eligible(self, node_id: NodeId, position, meta) -> bool:
        return meta is not None and not self.contains(meta, node_id)

    def check_parent(self, node_id: NodeId, position, meta) -> str:
        return PARENT_CYCLE if self.contains(meta, node_id) else PARENT_OK

    def refresh(self, node_id: NodeId, position, meta, parent_metas):
        # A filter frozen at adoption time can never circulate the
        # evidence of a concurrently-formed cycle: every member's filter
        # predates the loop closing, so check_parent stays silent forever.
        # Folding each parent's *current* filter in — and pushing growth
        # to children (update) — lets the union circulate a loop until
        # some member sees its own bits and breaks it (§II-G safety:
        # cycles must never survive).  Growth is monotone and
        # bit-bounded, so the cascade reaches a fixpoint even after the
        # stream has drained.
        combined = position
        for parent_meta in parent_metas:
            if parent_meta is not None:
                combined = parent_meta if combined is None else combined | parent_meta
        return position if combined is None else self.adopt(node_id, combined)

    def update(self, stream: StreamId, old, new) -> Optional[Message]:
        return bm.BloomUpdate(stream, new, self.bits) if new != old else None


def make_predictor(config: BrisaConfig) -> CyclePredictor:
    """Build the predictor selected by a :class:`BrisaConfig`."""
    if config.cycle_predictor == "path":
        return PathEmbeddingPredictor()
    if config.cycle_predictor == "depth":
        return DepthLabelPredictor()
    if config.cycle_predictor == "bloom":
        return BloomFilterPredictor(config.bloom_bits, config.bloom_hashes)
    raise ValueError(f"unknown cycle predictor {config.cycle_predictor!r}")
