"""Large-scale BRISA dissemination over synthesized overlays.

The synthesized-overlay bootstrap (:mod:`repro.experiments.bootstrap`,
DESIGN.md §7) makes the *full* BRISA stack — membership + emergence +
repair, §II — affordable at large populations by skipping the simulated
HyParView join ramp.  This module carries the stack's builder
(:func:`build_brisa`, behind ``repro scale --stack brisa``): it builds
the testbed and accounts duplicates, structure and relay load; the run
itself is :func:`repro.experiments.scale_runner.run_stack`, shared with
the flood and pull stacks (DESIGN.md §10).
"""

from __future__ import annotations

from repro.config import BrisaConfig
from repro.experiments.bootstrap import static_view_config
from repro.experiments.common import Testbed, brisa_factory
from repro.experiments.scale_runner import RunSpec, brisa_stream_outcomes
from repro.sim.latency import ConstantLatency


def build_brisa(spec: RunSpec, scale):
    """The BRISA stack's builder (``STACKS["brisa"]``): a testbed
    populated over ``spec.bootstrap``.

    ``bootstrap`` is the :meth:`Testbed.populate` switch: ``synthesized``
    (default — the O(n) constructor), ``simulated`` (the join ramp, at
    the rung's ``join_spacing`` and ``settle``) or a checkpoint path.
    The overlay is static during dissemination (shuffles stopped), so
    the heap drains exactly when the structure settles and the last
    message lands.

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
    # Lossy links make §II-F's blind spot real: a lost final message
    # orphans a subtree with no later traffic to reveal the gap.  The
    # quiescence tail probe (DESIGN.md §14) closes it, so lossy runs get
    # it; lossless runs skip the extra probe traffic.
    cfg = BrisaConfig(mode=spec.mode or "tree", tail_probe=spec.loss_percent > 0)
    bootstrap = spec.bootstrap or "synthesized"
    bed = Testbed(
        seed=spec.seed,
        latency=ConstantLatency(0.001, seed=spec.seed),
        record_deliveries=False,
        loss_percent=spec.loss_percent,
    )
    slot_kernel = None
    if spec.kernel == "slotted":
        from repro.core.brisa_slotted import SlottedBrisaKernel

        slot_kernel = SlottedBrisaKernel(bed.network, cfg)
    bed.populate(
        spec.population(),
        brisa_factory(cfg, static_view_config(spec.degree), kernel=slot_kernel),
        bootstrap=bootstrap,
        degree=spec.degree,
        topology=spec.topology,
        join_spacing=scale.join_spacing,
        settle=scale.settle,
        validate=True,
        # The overlay is static during dissemination, so shuffle timers
        # are never armed — at xxl populations this is the difference
        # between spawning 100k nodes and spawning 100k nodes plus 100k
        # scheduled shuffle events (DESIGN.md §8).
        defer_timers=bootstrap != "simulated",
    )
    bed.stop_shuffles()

    def account(sources, alive):
        outcomes = brisa_stream_outcomes(sources, alive, spec.messages)
        source_ids = {s.node_id for s in sources}
        receivers = [n for n in alive if n.node_id not in source_ids]
        # Duplicates are counted on the node's stream state by both
        # kernels.  Source nodes are excluded, here and in the mean's
        # denominator: ``duplicates_per_node`` is a receiver statistic.
        dup_total = sum(
            state.duplicates for n in receivers for state in n.streams.values()
        )
        relay_spread = None
        if spec.streams > 1:
            from repro.experiments.structural import relay_load_spread

            relay_spread = relay_load_spread(alive, range(spec.streams)).to_dict()
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

    return bed.sim, bed.network, bed.nodes, account
