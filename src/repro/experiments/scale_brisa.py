"""Large-scale BRISA dissemination over synthesized overlays.

PR 1 opened 10k-node scenarios for the flood baseline only; the
synthesized-overlay bootstrap (:mod:`repro.experiments.bootstrap`,
DESIGN.md §7) makes the *full* BRISA stack — membership + emergence +
repair, §II — affordable at those populations by skipping the simulated
HyParView join ramp.  This module carries the scenario entry point
(:func:`run_scale_brisa`, also behind ``repro scale --stack brisa``): it
builds the testbed and accounts duplicates, structure and relay load;
the run itself is :func:`repro.experiments.scale_runner.run_stack`,
shared with the flood and pull stacks (DESIGN.md §10).
"""

from __future__ import annotations

import time
from typing import Optional

from repro.config import BrisaConfig, HyParViewConfig
from repro.experiments.common import Testbed, brisa_factory
from repro.experiments.scale_runner import (
    STACKS,
    ScaleResult,
    brisa_stream_outcomes,
    check_kernel,
    run_stack,
    validate_workload,
)
from repro.sim.latency import ConstantLatency, LatencyModel


def run_scale_brisa(
    nodes: int,
    messages: int,
    *,
    mode: str = "tree",
    rate: float = 20.0,
    payload_bytes: int = 1024,
    seed: int = 1,
    bootstrap: str = "synthesized",
    degree: Optional[int] = STACKS["brisa"].default_degree,
    config: Optional[BrisaConfig] = None,
    hpv_config: Optional[HyParViewConfig] = None,
    latency: Optional[LatencyModel] = None,
    join_spacing: float = 0.05,
    settle: float = 45.0,
    streams: int = 1,
    kernel: str = "object",
    topology: str = "uniform",
    loss_percent: float = 0.0,
) -> ScaleResult:
    """Run the full BRISA stack over a ``nodes``-population overlay.

    ``bootstrap`` is the :meth:`Testbed.populate` switch: ``synthesized``
    (default — the O(n) constructor), ``simulated`` (the join ramp, for
    baseline comparisons) or a checkpoint path.  The overlay is static
    during dissemination (shuffles stopped), so the heap drains exactly
    when the structure settles and the last message lands.

    ``streams`` > 1 opens the paper's §IV workload at scale (DESIGN.md
    §10): K publishers spread over the population emerge K independent
    trees over the one overlay, each checked for the §II-B invariant,
    with a relay-load-spread report on how interior duty distributes.

    ``kernel`` selects how ``Data`` receptions reach the nodes:
    ``object`` (the regular per-node dispatch) or ``slotted`` (one loop
    per fused fan-out, :class:`SlottedBrisaKernel`, DESIGN.md §11).  Both
    take the same maintenance-cache steady path and run draw-for-draw
    identical simulations — pinned by tests/test_slotted_parity.py — so
    the choice is purely a throughput lever.
    """
    validate_workload(messages, rate, streams, population=nodes)
    check_kernel("brisa", kernel)
    # Lossy links make §II-F's blind spot real: a lost final message
    # orphans a subtree with no later traffic to reveal the gap.  The
    # quiescence tail probe (DESIGN.md §14) closes it, so lossy runs get
    # it by default; lossless runs skip the extra probe traffic.
    cfg = (
        config
        if config is not None
        else BrisaConfig(mode=mode, tail_probe=loss_percent > 0)
    )
    if degree is not None and hpv_config is None:
        # Same idiom as build_static_flood_overlay: size the membership
        # config so the requested degree is legal under the protocol's
        # own view cap, instead of silently building a sparser overlay.
        hpv_config = HyParViewConfig(active_size=max(4, degree), passive_size=16)
    bed = Testbed(
        seed=seed,
        latency=latency if latency is not None else ConstantLatency(0.001, seed=seed),
        record_deliveries=False,
        loss_percent=loss_percent,
    )
    slot_kernel = None
    if kernel == "slotted":
        from repro.core.brisa_slotted import SlottedBrisaKernel

        slot_kernel = SlottedBrisaKernel(bed.network, cfg)
    t0 = time.perf_counter()
    bed.populate(
        nodes,
        brisa_factory(cfg, hpv_config, kernel=slot_kernel),
        bootstrap=bootstrap,
        degree=degree,
        topology=topology,
        join_spacing=join_spacing,
        settle=settle,
        validate=True,
        # The overlay is static during dissemination, so shuffle timers
        # are never armed — at xxl populations this is the difference
        # between spawning 100k nodes and spawning 100k nodes plus 100k
        # scheduled shuffle events (DESIGN.md §8).
        defer_timers=bootstrap != "simulated",
    )
    bootstrap_wall = time.perf_counter() - t0
    bed.stop_shuffles()

    def account(sources, alive):
        outcomes = brisa_stream_outcomes(sources, alive, messages)
        source_ids = {s.node_id for s in sources}
        receivers = [n for n in alive if n.node_id not in source_ids]
        # Duplicates are counted on the node's stream state by both
        # kernels (the Metrics shards are only partly fed at scale).
        # Source nodes are excluded, here and in the mean's denominator:
        # ``duplicates_per_node`` is a receiver statistic.
        dup_total = sum(
            state.duplicates for n in receivers for state in n.streams.values()
        )
        relay_spread = None
        if streams > 1:
            from repro.experiments.structural import relay_load_spread

            relay_spread = relay_load_spread(alive, range(streams)).to_dict()
        return outcomes, sum(o.deliveries for o in outcomes) + dup_total, {
            "mode": cfg.mode,
            "bootstrap": (
                bootstrap if bootstrap in ("simulated", "synthesized") else "checkpoint"
            ),
            "structure_complete": all(o.structure_complete for o in outcomes),
            "structure_reason": next(
                (o.structure_reason for o in outcomes if not o.structure_complete), ""
            ),
            "duplicates_per_node": dup_total / len(receivers) if receivers else 0.0,
            "relay_spread": relay_spread,
        }

    return run_stack(
        bed.sim, bed.network, bed.nodes, account,
        nodes=nodes, messages=messages, rate=rate, payload_bytes=payload_bytes,
        seed=seed, streams=streams, kernel=kernel, degree=degree,
        topology=topology, loss_percent=loss_percent,
        bootstrap_wall=bootstrap_wall,
    )
