"""Testbed builder and stream driver shared by all experiments.

The shape of every experiment in §III is the same: bootstrap ``n`` nodes
(Listing 1's join ramp), let the overlay stabilize, pick a source, switch
the metrics phase to *dissemination*, inject ``count`` messages at
``rate``/s, and run until the stream drains.  :class:`Testbed` implements
that shape once, for any protocol stack exposing the common node API
(``join(contact)`` + ``inject(stream, seq, payload_bytes)``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.config import BrisaConfig, HyParViewConfig, StreamConfig
from repro.core.brisa import BrisaNode
from repro.errors import SimulationError
from repro.experiments import bootstrap as bootstrap_mod
from repro.core.structure import extract_structure, is_complete_structure
from repro.ids import NodeId, StreamId
from repro.sim.engine import Simulator
from repro.sim.latency import ClusterLatency, LatencyModel
from repro.sim.monitor import DISSEMINATION, STABILIZATION, Metrics
from repro.sim.network import Network

NodeFactory = Callable[[Network, NodeId], object]


def delivered_fraction(nodes, stream: StreamId, count: int) -> float:
    """Fraction of the (seq, node) pairs of a ``count``-message
    ``stream`` that ``nodes`` delivered, as each node's own sequence
    record counts them (DESIGN.md §14); vacuously 1.0 when no pair is
    expected."""
    expected = count * len(nodes)
    if not expected:
        return 1.0
    return sum(node.delivered_count(stream) for node in nodes) / expected


class Testbed:
    """A populated simulation ready to disseminate streams."""

    def __init__(
        self,
        *,
        seed: int = 1,
        latency: Optional[LatencyModel] = None,
        record_deliveries: bool = True,
        loss_percent: float = 0.0,
    ) -> None:
        self.sim = Simulator(seed=seed)
        self.metrics = Metrics(record_deliveries=record_deliveries)
        self.network = Network(
            self.sim,
            latency if latency is not None else ClusterLatency(seed=seed),
            self.metrics,
            loss_percent=loss_percent,
        )
        self.nodes: list = []
        self._factory: Optional[NodeFactory] = None
        self._join_rng = self.sim.rng("testbed-joins")

    # ------------------------------------------------------------------
    # Population
    # ------------------------------------------------------------------
    def populate(
        self,
        n: int,
        factory: NodeFactory,
        *,
        join_spacing: float = 0.05,
        settle: float = 30.0,
        join_first: bool = False,
        bootstrap: "str | object" = "simulated",
        degree: Optional[int] = None,
        topology: str = "uniform",
        validate: bool = False,
        defer_timers: bool = False,
    ) -> "Testbed":
        """Bootstrap ``n`` nodes into an overlay.

        ``bootstrap`` selects how (DESIGN.md §7):

        - ``"simulated"`` (default) — Listing 1's join ramp: the first
          node stands alone, the rest join through uniformly random
          existing contacts, one every ``join_spacing`` seconds, then
          ``settle`` seconds of quiet.  The settle deadline is relative
          to the *current* clock, so repeated ``populate`` calls (or one
          after a prior ``run``) settle fully instead of under-running.
        - ``"synthesized"`` — wire a HyParView-convergent topology
          directly into node state in O(n), no simulated joins.  Only
          valid for HyParView stacks; ``degree`` overrides the target
          mean degree, ``validate`` audits the result.
        - a path (``str``/``Path`` naming a file) — rehydrate a
          checkpoint written by :meth:`save_overlay`.

        ``join_first`` also runs the join procedure for the very first
        node — needed by protocols with an explicit registry (SimpleTree's
        coordinator, TAG's tracker); it is incompatible with synthesized
        bootstraps, which never touch a registry.

        ``defer_timers`` (synthesized/checkpoint bootstraps only) spawns
        the nodes with their periodic timers created but not armed, so
        wiring a 100k-node benchmark overlay schedules zero shuffle
        events (DESIGN.md §8); arm them later with :meth:`start_timers`
        if the run needs live shuffles."""
        if n < 1:
            raise ValueError("need at least one node")
        self._factory = factory
        if bootstrap != "synthesized" and degree is not None:
            raise ValueError(
                "--degree applies to synthesized bootstraps only; the "
                "simulated join ramp converges on HyParViewConfig alone, "
                "and a checkpoint already fixes the overlay shape"
            )
        if bootstrap == "simulated" and topology != "uniform":
            raise ValueError(
                "--topology applies to synthesized bootstraps only; the "
                "simulated join ramp always converges on the HyParView-"
                "uniform overlay"
            )
        if bootstrap != "simulated":
            if join_first:
                raise ValueError(
                    "synthesized/checkpointed bootstrap cannot run registry "
                    "joins (join_first)"
                )
            return self._populate_direct(
                n, factory, bootstrap, degree, topology, validate, defer_timers
            )
        if defer_timers:
            # The ramp needs live timers: shuffle integration re-arms
            # promotion episodes during convergence (DESIGN.md §7).
            raise ValueError("defer_timers requires a synthesized/checkpoint bootstrap")
        start = 0
        if not self.nodes:
            # Only the very first node of an *empty* testbed stands alone;
            # later populate calls join every new node through existing
            # contacts (a second batch's first node must not end up
            # isolated from the overlay).
            first = self.network.spawn(factory)
            self.nodes.append(first)
            if join_first:
                first.join(first.node_id)
            start = 1
        for i in range(start, n):
            self.sim.schedule(i * join_spacing, self._join_one)
        self.sim.run(until=self.sim.now + n * join_spacing + settle)
        if validate:
            bootstrap_mod.assert_valid_overlay(self.nodes)
        return self

    # An array build, not a simulation (the join ramp above is one): the
    # population it allocates cannot die, so the collector sits it out.
    @bootstrap_mod.quiet_collector()
    def _populate_direct(
        self,
        n: int,
        factory: NodeFactory,
        bootstrap: "str | object",
        degree: Optional[int],
        topology: str,
        validate: bool,
        defer_timers: bool,
    ) -> "Testbed":
        """Synthesized or checkpoint-restored population (no join ramp)."""
        checkpoint = None
        if bootstrap != "synthesized":
            if topology != "uniform":
                raise ValueError(
                    "--topology applies to synthesized bootstraps only; a "
                    "checkpoint already fixes the overlay shape"
                )
            # Load (and size-check) before spawning anything: a bad
            # checkpoint must not leave orphan nodes with live shuffle
            # timers registered in the network.
            checkpoint = bootstrap_mod.load_overlay(bootstrap)
            if checkpoint.n != n:
                raise SimulationError(
                    f"checkpoint holds {checkpoint.n} nodes, populate asked for {n}"
                )
        network = self.network
        if defer_timers:
            prior = network.autostart_timers
            network.autostart_timers = False
            try:
                spawned = network.spawn_many(factory, n)
            finally:
                network.autostart_timers = prior
        else:
            spawned = network.spawn_many(factory, n)
        if checkpoint is None:
            bootstrap_mod.synthesize_overlay(
                spawned, network, rng=self.sim.rng("synth-overlay"),
                degree=degree, topology=topology,
            )
        else:
            bootstrap_mod.install_checkpoint(spawned, network, checkpoint)
        self.nodes.extend(spawned)
        if validate:
            bootstrap_mod.assert_valid_overlay(spawned)
        return self

    def save_overlay(self, path) -> None:
        """Checkpoint the current overlay (active/passive views) to JSON;
        rehydrate with ``populate(n, factory, bootstrap=path)``."""
        bootstrap_mod.save_overlay(self.alive_nodes(), path)

    def start_timers(self) -> "Testbed":
        """Arm every node's periodic timers — the counterpart of a
        ``populate(..., defer_timers=True)`` bootstrap when the run does
        need live shuffles after all.  ``PeriodicTask.start`` is
        idempotent, so already-armed timers are untouched."""
        for node in self.nodes:
            node.start_timers()
        return self

    def stop_shuffles(self) -> "Testbed":
        """Stop every node's passive-view shuffle timer.  Static-overlay
        benchmark runs use this so a drained heap marks the exact end of
        dissemination (there is no churn for shuffles to repair)."""
        for node in self.nodes:
            task = getattr(node, "_shuffle_task", None)
            if task is not None:
                task.stop()
        return self

    def _join_one(self):
        node = self.network.spawn(self._factory)
        contacts = [x.node_id for x in self.nodes if x.alive]
        if contacts:
            node.join(self._join_rng.choice(contacts))
        self.nodes.append(node)
        return node

    def spawn_joiner(self):
        """Create + join one more node (used as ChurnDriver's join_fn)."""
        return self._join_one()

    # ------------------------------------------------------------------
    # Views over the population
    # ------------------------------------------------------------------
    def alive_nodes(self) -> list:
        return [n for n in self.nodes if n.alive]

    def alive_ids(self) -> list[NodeId]:
        return [n.node_id for n in self.nodes if n.alive]

    def node(self, node_id: NodeId):
        return self.network.nodes[node_id]

    def choose_source(self, label: str = "source"):
        """Pick the stream source uniformly at random (§III: "randomly
        choose a node to be the source across all the experiment")."""
        rng = self.sim.rng(label)
        return rng.choice(self.alive_nodes())

    # ------------------------------------------------------------------
    # Stream driving
    # ------------------------------------------------------------------
    def start_stream(
        self,
        source,
        stream_cfg: StreamConfig,
        *,
        mark_phase: bool = True,
    ) -> None:
        """Schedule the injections of one stream starting now."""
        if mark_phase:
            self.metrics.set_phase(DISSEMINATION, self.sim.now)
        if hasattr(source, "become_source"):
            source.become_source(stream_cfg.stream_id)
        for seq in range(stream_cfg.count):
            self.sim.schedule(
                seq / stream_cfg.rate,
                source.inject,
                stream_cfg.stream_id,
                seq,
                stream_cfg.payload_bytes,
            )

    def run_stream(
        self,
        source,
        stream_cfg: StreamConfig,
        *,
        drain: float = 10.0,
        account_keepalives: bool = True,
    ) -> "RunResult":
        """Inject a full stream and run until it drains."""
        start = self.sim.now
        self.start_stream(source, stream_cfg)
        self.sim.run(until=start + stream_cfg.duration + drain)
        self.metrics.close(self.sim.now)
        if account_keepalives:
            self.network.account_keepalives(DISSEMINATION, self.sim.now - start)
        return RunResult(self, source, stream_cfg)

    def run(self, until: float) -> None:
        self.sim.run(until=until)


@dataclass
class RunResult:
    """Outcome of one stream dissemination over a testbed."""

    testbed: Testbed
    source: object
    stream_cfg: StreamConfig

    # ------------------------------------------------------------------
    @property
    def metrics(self) -> Metrics:
        return self.testbed.metrics

    def receivers(self) -> list[NodeId]:
        """All live nodes except the source."""
        src = self.source.node_id
        return [n for n in self.testbed.alive_ids() if n != src]

    def delivered_fraction(self) -> float:
        """Fraction of (message, receiver) pairs delivered."""
        return delivered_fraction(
            [n for n in self.testbed.alive_nodes() if n is not self.source],
            self.stream_cfg.stream_id,
            self.stream_cfg.count,
        )

    def duplicates_per_node(self) -> list[int]:
        return self.metrics.duplicates_per_node(self.receivers())

    def structure(self):
        """The emerged parent->child structure (BRISA stacks only)."""
        return extract_structure(self.testbed.alive_nodes(), self.stream_cfg.stream_id)

    def structure_ok(self) -> tuple[bool, str]:
        g = self.structure()
        return is_complete_structure(
            g, self.source.node_id, set(self.testbed.alive_ids())
        )

    def summary(self) -> str:
        frac = self.delivered_fraction()
        dups = self.duplicates_per_node()
        mean_dups = sum(dups) / len(dups) if dups else 0.0
        lines = [
            f"nodes: {len(self.testbed.alive_ids())}",
            f"messages: {self.stream_cfg.count} x {self.stream_cfg.payload_bytes} B",
            f"delivered: {frac * 100:.2f}%",
            f"duplicates/node (mean): {mean_dups:.2f}",
        ]
        if isinstance(self.source, BrisaNode):
            ok, reason = self.structure_ok()
            lines.append(f"structure: {'complete/acyclic' if ok else reason}")
        return "\n".join(lines)


def brisa_factory(
    config: Optional[BrisaConfig] = None,
    hpv_config: Optional[HyParViewConfig] = None,
    *,
    kernel=None,
) -> NodeFactory:
    """Node factory for BRISA stacks.

    ``kernel`` (a :class:`~repro.core.brisa_slotted.SlottedBrisaKernel`
    bound to the testbed's network) switches the stack to the slotted
    kernel: its fan sink serves the nodes' ``Data`` receptions."""
    cfg = config if config is not None else BrisaConfig()
    hpv = hpv_config if hpv_config is not None else HyParViewConfig()
    if kernel is not None:
        from repro.core.brisa_slotted import SlottedBrisaNode

        return lambda network, nid: SlottedBrisaNode(
            network, nid, cfg, hpv, kernel=kernel
        )
    return lambda network, nid: BrisaNode(network, nid, cfg, hpv)


def build_brisa_testbed(
    n: int,
    *,
    seed: int = 1,
    config: Optional[BrisaConfig] = None,
    hpv_config: Optional[HyParViewConfig] = None,
    latency: Optional[LatencyModel] = None,
    join_spacing: float = 0.05,
    settle: float = 30.0,
    record_deliveries: bool = True,
    bootstrap: "str | object" = "simulated",
) -> Testbed:
    """One-call BRISA testbed used by most scenarios and tests."""
    bed = Testbed(seed=seed, latency=latency, record_deliveries=record_deliveries)
    bed.populate(
        n,
        brisa_factory(config, hpv_config),
        join_spacing=join_spacing,
        settle=settle,
        bootstrap=bootstrap,
    )
    return bed


def build_flood_testbed(
    n: int,
    *,
    seed: int = 1,
    hpv_config: Optional[HyParViewConfig] = None,
    latency: Optional[LatencyModel] = None,
    join_spacing: float = 0.05,
    settle: float = 30.0,
    record_deliveries: bool = True,
    bootstrap: "str | object" = "simulated",
) -> Testbed:
    """Pure-flooding stack over HyParView (Fig. 2 baseline)."""
    from repro.baselines.flood import FloodNode

    hpv = hpv_config if hpv_config is not None else HyParViewConfig()
    bed = Testbed(seed=seed, latency=latency, record_deliveries=record_deliveries)
    bed.populate(
        n,
        lambda network, nid: FloodNode(network, nid, hpv),
        join_spacing=join_spacing,
        settle=settle,
        bootstrap=bootstrap,
    )
    return bed


def build_gossip_testbed(
    n: int,
    *,
    seed: int = 1,
    gossip_config=None,
    anti_entropy_period: float = 0.1,
    latency: Optional[LatencyModel] = None,
    join_spacing: float = 0.05,
    settle: float = 60.0,
    record_deliveries: bool = True,
) -> Testbed:
    """SimpleGossip stack (Cyclon + rumor mongering + anti-entropy)."""
    from repro.baselines.simplegossip import SimpleGossipNode
    from repro.config import GossipConfig

    cfg = gossip_config if gossip_config is not None else GossipConfig()
    bed = Testbed(seed=seed, latency=latency, record_deliveries=record_deliveries)
    bed.populate(
        n,
        lambda network, nid: SimpleGossipNode(
            network, nid, cfg, anti_entropy_period=anti_entropy_period
        ),
        join_spacing=join_spacing,
        settle=settle,
    )
    return bed


def build_simpletree_testbed(
    n: int,
    *,
    seed: int = 1,
    tree_config=None,
    latency: Optional[LatencyModel] = None,
    join_spacing: float = 0.05,
    settle: float = 10.0,
    record_deliveries: bool = True,
):
    """SimpleTree stack; returns (testbed, coordinator node)."""
    from repro.baselines.simpletree import SimpleTreeCoordinator, SimpleTreeNode
    from repro.config import SimpleTreeConfig

    cfg = tree_config if tree_config is not None else SimpleTreeConfig()
    bed = Testbed(seed=seed, latency=latency, record_deliveries=record_deliveries)
    coordinator = bed.network.spawn(
        lambda network, nid: SimpleTreeCoordinator(network, nid, cfg)
    )
    bed.populate(
        n,
        lambda network, nid: SimpleTreeNode(network, nid, coordinator.node_id),
        join_spacing=join_spacing,
        settle=settle,
        join_first=True,
    )
    return bed, coordinator


def build_tag_testbed(
    n: int,
    *,
    seed: int = 1,
    tag_config=None,
    latency: Optional[LatencyModel] = None,
    join_spacing: float = 0.1,
    settle: float = 30.0,
    record_deliveries: bool = True,
):
    """TAG stack; returns (testbed, tracker).  The natural stream source
    is the list head / tree root: ``bed.nodes[0]``."""
    from repro.baselines.tag import TagNode, TagTracker
    from repro.config import TagConfig

    cfg = tag_config if tag_config is not None else TagConfig()
    tracker = TagTracker()
    bed = Testbed(seed=seed, latency=latency, record_deliveries=record_deliveries)
    bed.populate(
        n,
        lambda network, nid: TagNode(network, nid, tracker, cfg),
        join_spacing=join_spacing,
        settle=settle,
        join_first=True,
    )
    return bed, tracker


def quick_brisa_run(
    n: int = 64,
    messages: int = 50,
    *,
    seed: int = 1,
    payload_bytes: int = 1024,
    rate: float = 5.0,
    config: Optional[BrisaConfig] = None,
) -> RunResult:
    """Library quickstart: bootstrap, disseminate, return the result."""
    bed = build_brisa_testbed(n, seed=seed, config=config)
    source = bed.choose_source()
    stream = StreamConfig(count=messages, rate=rate, payload_bytes=payload_bytes)
    return bed.run_stream(source, stream)
