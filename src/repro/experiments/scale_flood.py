"""Large-scale flood dissemination: the simulator hot-path proving ground.

The paper stops at 512 cluster nodes; the interesting epidemic
reliability/efficiency trade-offs appear at populations well beyond that
(cf. Moreno et al. on epidemic dissemination in complex networks).  This
module opens those scenarios: it builds a *static* random overlay —
skipping the HyParView join ramp, which would dominate a benchmark of
the dissemination hot path — floods K concurrent streams over it,
optionally under churn, and reports delivery, duplicates and engine
telemetry (events, receptions/s, peak heap backlog, wall time).

The stack's builder is :func:`build_flood`, which
:func:`repro.experiments.scale_runner.run_spec` calls for ``repro scale
--stack flood`` and every ``RunSpec(stack="flood")``: it builds the
stack, schedules its churn and accounts its receptions; the run itself —
source spreading, injection windows, the timed drain, the roll-up and
the :class:`ScaleResult` — is
:func:`repro.experiments.scale_runner.run_stack`, shared with the BRISA
and pull stacks (DESIGN.md §10).  How fast it goes is measured by
``python3 -m bench``, not here.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.baselines.flood import FloodNode, SlottedFloodKernel, SlottedFloodNode
from repro.config import HyParViewConfig
from repro.sim.churn import ChurnDriver
from repro.sim.engine import Simulator
from repro.sim.latency import ConstantLatency, LatencyModel
from repro.sim.monitor import Metrics
from repro.sim.network import Network
from repro.sim.trace import ConstChurn, Trace
from repro.experiments.bootstrap import quiet_collector, static_view_config
from repro.experiments.scale_runner import (
    STACKS,
    RunSpec,
    check_kernel,
    flood_stream_outcomes,
    shard_receptions,
    spread_sources,
)


# Nothing this build allocates can die before the run does, so the
# collector sits it out (DESIGN.md §8).
@quiet_collector()
def build_static_flood_overlay(
    n: int,
    *,
    degree: int = STACKS["flood"].default_degree,
    seed: int = 1,
    latency: Optional[LatencyModel] = None,
    record_deliveries: bool = False,
    shuffles: bool = False,
    kernel: str = "object",
    topology: str = "uniform",
    loss_percent: float = 0.0,
    node_factory: Optional[Callable] = None,
) -> tuple[Simulator, Network, list]:
    """Spawn ``n`` nodes pre-wired into a connected random overlay.

    The topology comes from the shared synthesized-overlay constructor
    (:mod:`repro.experiments.bootstrap`): a Hamiltonian ring plus random
    chords up to an average degree of ``degree`` — the same shape a
    settled HyParView overlay converges to, built in O(n) instead of
    simulating the join ramp.  ``shuffles=False`` (default) stops the
    HyParView shuffle timers: a static overlay has no churn to repair,
    and a drained heap then marks the exact end of dissemination.

    ``kernel`` selects the flood delivery implementation: ``"object"``
    (per-node dict state, the reference), ``"slotted"`` (shared
    flat-array kernel, DESIGN.md §9) or ``"vectorized"`` (numpy slot
    planes draining whole fan-out batches, DESIGN.md §12; requires
    numpy).  All are draw-for-draw equivalent for one seed.

    ``node_factory(network, node_id, hpv_config)`` puts another protocol
    on the same overlay (the pull stack passes its node class); the
    default is the flood node of ``kernel``.
    """
    # Bound at call time: bench/trace.py spans it by patching the module
    # attribute.
    from repro.experiments.bootstrap import synthesize_overlay

    sim = Simulator(seed=seed)
    net = Network(
        sim,
        latency if latency is not None else ConstantLatency(0.001, seed=seed),
        Metrics(record_deliveries=record_deliveries),
        loss_percent=loss_percent,
    )
    # The static views may exceed HyParView's default cap.
    hpv = static_view_config(degree)
    if node_factory is None:
        factory = flood_node_factory(kernel, net, hpv)
    else:
        factory = lambda network, nid: node_factory(network, nid, hpv)
    # Batched materialization (DESIGN.md §8): with shuffles off the
    # timers are never armed, so spawning schedules zero events — and
    # flood nodes on an array kernel are born cold.
    prior = net.autostart_timers
    net.autostart_timers = shuffles and prior
    try:
        nodes = net.spawn_many(factory, n)
    finally:
        net.autostart_timers = prior
    # Array kernels get their fan-out rows from the install itself: a
    # cold population's adopted views carry them, warm nodes append them
    # per neighbour-up notification (contents identical either way,
    # pinned by the parity tests).
    synthesize_overlay(
        nodes, net, rng=sim.rng("static-overlay"), degree=degree,
        topology=topology,
    )
    return sim, net, nodes


def flood_node_factory(
    kernel: str,
    net: Network,
    hpv: HyParViewConfig,
    *,
    slot_kernel: Optional[SlottedFloodKernel] = None,
):
    """Node factory for one flood delivery kernel (``spawn``-compatible).

    For ``"slotted"`` and ``"vectorized"`` the factory closes over one
    shared kernel (:class:`SlottedFloodKernel` /
    :class:`repro.core.flood_vectorized.VectorizedFloodKernel`): a fresh
    one by default (population bootstrap), or the existing kernel passed
    as ``slot_kernel`` so churn joiners land in the same arrays and
    recycle freed slots.
    """
    check_kernel("flood", kernel)
    if kernel == "object":
        return lambda network, nid: FloodNode(network, nid, hpv)
    if slot_kernel is None:
        if kernel == "vectorized":
            # numpy loads only in a process that runs this kernel
            # (DESIGN.md §17).
            from repro.core.flood_vectorized import VectorizedFloodKernel as cls
        else:
            cls = SlottedFloodKernel
        slot_kernel = cls(net)
    return lambda network, nid: SlottedFloodNode(network, nid, hpv, kernel=slot_kernel)


def _schedule_churn(sim, net, flood_nodes, protected, kernel, percent, span):
    """One constant-churn period over ``[now, now + span]``: kill
    ``percent`` of the live population at random instants (never a
    ``protected`` source, as in §III-C) and join as many fresh nodes
    through the regular HyParView join protocol."""
    # Joiners arm no periodic timers (message-driven join only), so the
    # heap still drains exactly when the last repair settles.
    net.autostart_timers = False
    join_factory = flood_node_factory(
        kernel, net, flood_nodes[0].hpv_config,
        slot_kernel=getattr(flood_nodes[0], "kernel", None),
    )
    contact_rng = sim.rng("scale-churn-contacts")
    initial_ids = [node.node_id for node in flood_nodes]

    def join_fn():
        node = net.spawn(join_factory)
        # Rejection-sample a live contact among the initial population
        # (expected O(1) tries; the protected sources guarantee
        # termination).
        while True:
            contact = contact_rng.choice(initial_ids)
            if net.alive(contact):
                break
        node.join(contact)
        return node

    start = sim.now
    trace = Trace((ConstChurn(start, start + span, percent, span),))
    driver = ChurnDriver(
        sim, net, trace, join_fn, protected=protected, seed_label="scale-churn",
    )
    driver.apply()
    return driver


def build_flood(spec: RunSpec, scale, *, node_factory: Optional[Callable] = None):
    """The flood stack's builder (``STACKS["flood"]``): the static
    overlay with the spec's kernel, and its churn.

    ``churn_percent`` > 0 opens the churn-at-scale scenario (DESIGN.md
    §9): one constant-churn period spanning the injection window
    replaces that percentage of the population.  Delivery is then
    reported over the *surviving* initial receivers — joiners cannot
    observe messages injected before they arrived (flooding has no
    anti-entropy), so they are excluded from the denominator.

    ``node_factory`` puts another protocol on the same overlay
    (:func:`repro.experiments.scale_pull.build_pull`).
    """
    kernel = spec.resolved_kernel()
    sim, net, flood_nodes = build_static_flood_overlay(
        spec.population(), degree=spec.resolved_degree(), seed=spec.seed,
        kernel=kernel, topology=spec.topology, loss_percent=spec.loss_percent,
        node_factory=node_factory,
    )
    churn_percent = spec.churn_percent or 0.0
    driver = None
    if churn_percent:
        driver = _schedule_churn(
            sim, net, flood_nodes,
            tuple(s.node_id for s in spread_sources(flood_nodes, spec.streams)),
            kernel, churn_percent, spec.messages / spec.rate,
        )

    def account(sources, alive):
        receptions = (
            shard_receptions(net.metrics) if kernel == "object"
            else flood_nodes[0].kernel.receptions
        )
        return flood_stream_outcomes(sources, alive, spec.messages), receptions, {
            "churn_percent": churn_percent,
            "kills": driver.stats.kills if driver else 0,
            "joins": driver.stats.joins if driver else 0,
        }

    return sim, net, flood_nodes, account
