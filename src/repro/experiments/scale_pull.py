"""Large-scale lazy-push/pull dissemination (the recovery baseline).

The pull stack (:mod:`repro.baselines.pullgossip`) is the literature-
standard comparator for BRISA's repair machinery under lossy links:
probabilistic eager push bounded by a hop TTL, completed by gap-driven
pull recovery with bounded retry rounds.  This module carries its scale
entry point (:func:`run_scale_pull`, behind ``repro scale --stack
pull``): the flood stack's static overlay with pull-gossip nodes on it,
driven by the shared spine
(:func:`repro.experiments.scale_runner.run_stack`).

The stack runs on the object kernel only — recovery is timer- and
request-driven, far off the fan-out hot path the slotted/vectorized
kernels exist for.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.baselines.pullgossip import PullGossipNode
from repro.sim.latency import LatencyModel
from repro.experiments.scale_flood import build_static_flood_overlay
from repro.experiments.scale_runner import (
    STACKS,
    ScaleResult,
    flood_stream_outcomes,
    run_stack,
    shard_receptions,
    validate_workload,
)


def run_scale_pull(
    nodes: int,
    messages: int,
    *,
    degree: int = STACKS["pull"].default_degree,
    rate: float = 20.0,
    payload_bytes: int = 1024,
    seed: int = 1,
    latency: Optional[LatencyModel] = None,
    streams: int = 1,
    topology: str = "uniform",
    loss_percent: float = 0.0,
) -> ScaleResult:
    """Disseminate ``streams`` concurrent streams through the lazy-push/
    pull stack over a static overlay.

    Unlike flooding, delivery converges *below* 1.0 even on lossless
    links (tail blindness — see :mod:`repro.baselines.pullgossip`); the
    quantity of interest is how far pull recovery closes the gap the
    probabilistic push leaves, per topology class and loss rate.  The
    heap drains exactly when the last pull round settles.
    """
    validate_workload(messages, rate, streams, population=nodes)
    t0 = time.perf_counter()
    sim, net, pull_nodes = build_static_flood_overlay(
        nodes, degree=degree, seed=seed, latency=latency,
        topology=topology, loss_percent=loss_percent,
        node_factory=PullGossipNode,
    )
    bootstrap_wall = time.perf_counter() - t0

    def account(sources, alive):
        outcomes = flood_stream_outcomes(sources, alive, messages)
        return outcomes, shard_receptions(net.metrics), {}

    return run_stack(
        sim, net, pull_nodes, account,
        nodes=nodes, messages=messages, rate=rate, payload_bytes=payload_bytes,
        seed=seed, streams=streams, kernel="object", degree=degree,
        topology=topology, loss_percent=loss_percent,
        bootstrap_wall=bootstrap_wall,
    )
