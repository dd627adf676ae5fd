"""Configuration dataclasses for every subsystem.

All defaults mirror the paper's evaluation setup (§III): active view size 4,
expansion factor 2, 500 messages at 5/s, first-come first-picked strategy.
Configs are frozen so that experiment descriptions are hashable and cannot
be mutated mid-run; use :func:`dataclasses.replace` to derive variants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import ConfigError


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


@dataclass(frozen=True)
class HyParViewConfig:
    """HyParView peer sampling service parameters (§II-A).

    ``active_size`` is the *target* active-view size; the view may grow up
    to ``active_size * expansion_factor`` before joins start evicting
    neighbours, and evictions between the target and the expanded maximum
    do not trigger replacements (the join-storm damper of §II-A).
    """

    active_size: int = 4
    passive_size: int = 16
    expansion_factor: float = 2.0
    #: Active Random Walk Length for ForwardJoin propagation.
    arwl: int = 6
    #: Passive Random Walk Length: the TTL at which a walking join is
    #: recorded into a passive view.
    prwl: int = 3
    #: Period of passive-view shuffles (seconds).
    shuffle_period: float = 10.0
    #: Number of active-view entries contributed to a shuffle.
    shuffle_active: int = 3
    #: Number of passive-view entries contributed to a shuffle.
    shuffle_passive: int = 4

    def __post_init__(self) -> None:
        _require(self.active_size >= 1, "active_size must be >= 1")
        _require(self.passive_size >= 0, "passive_size must be >= 0")
        _require(self.expansion_factor >= 1.0, "expansion_factor must be >= 1")
        _require(self.arwl >= self.prwl >= 0, "need arwl >= prwl >= 0")
        _require(self.shuffle_period > 0, "shuffle_period must be positive")

    @property
    def max_active(self) -> int:
        """Hard cap on the active view: target size times expansion factor."""
        return max(self.active_size, int(math.ceil(self.active_size * self.expansion_factor)))


@dataclass(frozen=True)
class CyclonConfig:
    """Cyclon proactive PSS parameters (used by SimpleGossip, §III-D)."""

    view_size: int = 8
    shuffle_period: float = 2.0
    #: Entries exchanged per shuffle (including the sender's own entry).
    shuffle_length: int = 4

    def __post_init__(self) -> None:
        _require(self.view_size >= 1, "view_size must be >= 1")
        _require(0 < self.shuffle_length <= self.view_size, "0 < shuffle_length <= view_size")
        _require(self.shuffle_period > 0, "shuffle_period must be positive")


#: Valid structure modes for BRISA.
BRISA_MODES = ("tree", "dag")

#: Valid cycle predictors (§II-D, §II-G and the Bloom-filter comparison).
CYCLE_PREDICTORS = ("path", "depth", "bloom")

#: Registered parent-selection strategies (§II-E + §IV perspectives).
STRATEGY_NAMES = (
    "first-come",
    "delay-aware",
    "gerontocratic",
    "load-balancing",
    "heterogeneity",
)


@dataclass(frozen=True)
class BrisaConfig:
    """BRISA protocol parameters (§II).

    ``mode='tree'`` keeps exactly one parent per stream; ``mode='dag'``
    keeps ``num_parents`` parents and switches cycle prevention from exact
    path embedding to approximate depth labels (§II-G) unless overridden
    through ``cycle_predictor``.
    """

    mode: str = "tree"
    num_parents: int = 1
    strategy: str = "first-come"
    #: 'path' (exact, tree default), 'depth' (approximate, DAG default) or
    #: 'bloom' (probabilistic baseline used in the §II-D cost comparison).
    cycle_predictor: str = ""
    #: Whether first-come deactivation is applied symmetrically (§II-E).
    symmetric_deactivation: bool = True
    #: Messages buffered per stream for post-repair retransmission (§II-F).
    buffer_size: int = 64
    #: Probe a parent when a stream goes quiet (lossy-link deployments).
    #: §II-F gap recovery only fires when a *later* seq arrives, so a lost
    #: final message orphans its whole subtree with no traffic left to
    #: reveal the gap.  With this enabled, each node asks one parent for
    #: anything beyond its contiguous prefix after the stream quiesces;
    #: recovered data re-enters the normal first-reception forwarding path
    #: and cascades down the subtree.
    tail_probe: bool = False
    #: Bloom-filter size in bits (only used with cycle_predictor='bloom').
    bloom_bits: int = 1024
    bloom_hashes: int = 4

    def __post_init__(self) -> None:
        _require(self.mode in BRISA_MODES, f"mode must be one of {BRISA_MODES}")
        _require(self.num_parents >= 1, "num_parents must be >= 1")
        if self.mode == "tree":
            _require(self.num_parents == 1, "tree mode implies num_parents == 1")
        _require(self.strategy in STRATEGY_NAMES, f"unknown strategy {self.strategy!r}")
        predictor = self.cycle_predictor or self.default_predictor(self.mode)
        _require(predictor in CYCLE_PREDICTORS, f"unknown cycle predictor {predictor!r}")
        # §II-G: a single embedded path cannot express the ancestor set of
        # a multi-parent node; DAGs need depth labels or Bloom filters.
        _require(
            not (self.mode == "dag" and predictor == "path"),
            "path embedding is tree-only; use 'depth' or 'bloom' for DAGs",
        )
        if not self.cycle_predictor:
            object.__setattr__(self, "cycle_predictor", predictor)
        _require(self.buffer_size >= 0, "buffer_size must be >= 0")
        _require(self.bloom_bits > 0 and self.bloom_hashes > 0, "bloom params must be positive")

    @staticmethod
    def default_predictor(mode: str) -> str:
        return "path" if mode == "tree" else "depth"


@dataclass(frozen=True)
class StreamConfig:
    """Workload of one dissemination stream (§III: 500 msgs at 5/s)."""

    count: int = 500
    rate: float = 5.0
    payload_bytes: int = 1024
    stream_id: int = 0

    def __post_init__(self) -> None:
        _require(self.count >= 1, "count must be >= 1")
        _require(self.rate > 0, "rate must be positive")
        _require(self.payload_bytes >= 0, "payload_bytes must be >= 0")

    @property
    def duration(self) -> float:
        """Time spanned by the injections (first message goes out at t+0)."""
        return (self.count - 1) / self.rate


@dataclass(frozen=True)
class GossipConfig:
    """SimpleGossip baseline (§III-D): Cyclon + push rumor mongering with
    fanout ``ln(N)`` + anti-entropy pull at twice the message creation rate
    (``SimpleGossipNode(anti_entropy_period=)``, set by its caller)."""

    #: Explicit fanout; ``0`` means ``ceil(ln(N))`` evaluated at runtime.
    fanout: int = 0
    cyclon: CyclonConfig = field(default_factory=CyclonConfig)

    def __post_init__(self) -> None:
        _require(self.fanout >= 0, "fanout must be >= 0 (0 = ln N)")

    def effective_fanout(self, n: int) -> int:
        if self.fanout:
            return self.fanout
        return max(1, int(math.ceil(math.log(max(2, n)))))


@dataclass(frozen=True)
class SimpleTreeConfig:
    """SimpleTree baseline (§III-D): centralized random tree, push."""

    #: Maximum children per node; 0 = unbounded (the paper's tree is
    #: random over all previously-joined nodes, unbounded degree).
    max_children: int = 0

    def __post_init__(self) -> None:
        _require(self.max_children >= 0, "max_children must be >= 0")


@dataclass(frozen=True)
class TagConfig:
    """TAG baseline (§III-D, after Liu & Zhou 2006).

    Nodes sit in a linked list sorted by join time with 2-hop
    predecessor/successor knowledge; new nodes traverse the list backwards,
    collect ``gossip_partners`` random peers, and stop at the first node
    with spare tree capacity.  Dissemination is pull-based from the tree
    parent, with gossip partners used to prefetch.
    """

    #: Random peers collected during the join traversal.
    gossip_partners: int = 4
    #: Tree fan-out limit that ends the join traversal.
    max_children: int = 4
    #: Period between pulls to the tree parent (seconds).
    pull_period: float = 0.4
    #: Messages fetched per pull round (media-streaming segment model).
    pull_batch: int = 1
    #: Period between prefetch pulls to a random gossip partner.
    gossip_pull_period: float = 2.0
    #: TCP connection setup cost in RTTs (TAG tears connections down
    #: between traversal hops — §III-D construction-time discussion).
    connection_setup_rtts: float = 1.5
    #: Minimum uptime before a node may accept tree children — the proxy
    #: for TAG's "application specific condition" (a media-streaming node
    #: must have content buffered ahead of the joiner's play position).
    #: Without it every joiner attaches to the freshest predecessor and
    #: the tree degenerates into a chain.
    min_parent_age: float = 3.0

    def __post_init__(self) -> None:
        _require(self.gossip_partners >= 0, "gossip_partners must be >= 0")
        _require(self.max_children >= 1, "max_children must be >= 1")
        _require(self.pull_period > 0, "pull_period must be positive")
        _require(self.pull_batch >= 1, "pull_batch must be >= 1")
        _require(self.gossip_pull_period > 0, "gossip_pull_period must be positive")
        _require(self.connection_setup_rtts >= 0, "connection_setup_rtts must be >= 0")
        _require(self.min_parent_age >= 0, "min_parent_age must be >= 0")
