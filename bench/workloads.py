"""The benchmark's workloads (mirrored in BENCHMARK.json).

Every workload goes through a public entry point of the program
(``scenarios.run_spec`` / ``scenarios.table1_churn``) and receives only
inputs generated from the seed.  Simulated injection is open-loop at
20 msg/s per stream (5 msg/s under churn); the host side is a batch job,
so the speed figure is work completed per host second at the stated size.

Sizes are chosen so that one cell takes about two seconds on the 2-vCPU
reference host: a run is a fixed time budget (BENCHMARK.json
``run_seconds``), and the estimator needs eight or more cells per run to
discard the ones a noisy neighbour hit (README, "Why reference seconds").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

#: Fields of a cell outcome that are simulated statistics: identical for
#: one seed across cells, hash seeds, hosts, and commits that change only
#: speed.  ``events``/``peak_pending`` are engine cost counters.
SIMULATED_FIELDS = (
    "delivered_fraction",
    "rx_per_delivery",
    "sim_span_s",
    "ops_attempted",
    "ops_failed",
    "receptions",
    "events",
    "peak_pending",
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``run(seed, smoke) -> outcome dict``; ``smoke`` selects the
    #: 64-node variant the harness test runs in-process.
    run: Callable[[int, bool], dict]
    #: Correctness floor on ``delivered_fraction`` (1.0 = exact).
    min_delivered: float
    #: Whether every stream must end with a complete, acyclic structure.
    needs_structure: bool


def _scale_outcome(result, messages: int) -> dict:
    """Simulated statistics of a ``run_spec`` result dataclass."""
    rows = result.per_stream
    expected = sum(row["receivers"] for row in rows) * messages
    structures = [row["structure_complete"] for row in rows]
    structures = [s for s in structures if s is not None]
    return _outcome(
        deliveries=result.deliveries,
        expected=expected,
        receptions=result.receptions,
        first_deliveries=result.deliveries,
        sim_span=result.sim_time,
        structures=len(structures),
        structures_complete=sum(structures),
        events=result.events,
        peak_pending=result.peak_pending,
    )


def _outcome(
    *, deliveries, expected, receptions, first_deliveries, sim_span,
    structures, structures_complete, events, peak_pending,
) -> dict:
    """``deliveries``/``expected`` cover the audience the workload
    accounts delivery over; ``receptions``/``first_deliveries`` the
    population whose data receptions were counted."""
    return {
        "delivered_fraction": deliveries / expected,
        "rx_per_delivery": receptions / first_deliveries,
        "sim_span_s": sim_span,
        "ops_attempted": expected + structures,
        "ops_failed": (expected - deliveries) + (structures - structures_complete),
        "receptions": receptions,
        "structures": structures,
        "structures_complete": structures_complete,
        "events": events,
        "peak_pending": peak_pending,
    }


def _run_spec(seed: int, messages: int, **spec):
    from repro.experiments import scenarios

    result = scenarios.run_spec(
        scenarios.RunSpec(seed=seed, messages=messages, **spec)
    )
    return _scale_outcome(result, messages)


def flood_vectorized_30k(seed: int, smoke: bool = False):
    return _run_spec(
        seed, 5, stack="flood", size="xxl", nodes=64 if smoke else 30_000,
        kernel="vectorized",
    )


def brisa_object_5k(seed: int, smoke: bool = False):
    return _run_spec(
        seed, 10, stack="brisa", size="xl", nodes=64 if smoke else 5_000,
        kernel="object",
    )


def brisa_slotted_lossy_2stream(seed: int, smoke: bool = False):
    return _run_spec(
        seed, 10, stack="brisa", size="xl", nodes=64 if smoke else 2_500,
        kernel="slotted", topology="powerlaw", loss_percent=2.0, streams=2,
    )


def brisa_paper_churn(seed: int, smoke: bool = False):
    """Table I at the paper's 128-node population (tree + DAG, 5 %/min
    churn), churn window cut from 600 s to 45 s.

    The testbeds are not part of ``Table1Result``, so they are captured
    by wrapping the factory the scenario calls; delivery is accounted
    over the surviving initial nodes (joiners cannot have seen messages
    injected before they arrived)."""
    from repro.experiments import robustness, scenarios
    from repro.sim.monitor import DISSEMINATION

    n = 64 if smoke else 128
    scale = scenarios.Scale(
        name="bench", cluster_nodes=n, planetlab_nodes=n,
        planetlab_nodes_large=n, small_nodes=n, messages=100,
        churn_duration=15.0 if smoke else 45.0, churn_period=15.0,
        settle=20.0, join_spacing=0.05,
    )
    beds = []
    build = robustness.build_brisa_testbed

    def capturing_build(*args, **kwargs):
        bed = build(*args, **kwargs)
        beds.append(bed)
        return bed

    robustness.build_brisa_testbed = capturing_build
    try:
        scenarios.table1_churn(
            scale, seed=seed, populations=(n,), churn_rates=(5.0,)
        )
    finally:
        robustness.build_brisa_testbed = build

    deliveries = expected = first = duplicates = events = peak = 0
    sim_span = 0.0
    for bed in beds:
        shard = bed.metrics.streams[0]
        source = next(node for node in bed.nodes if node.stream_state(0).is_source)
        survivors = [
            node for node in bed.nodes[:n] if node.alive and node is not source
        ]
        deliveries += sum(node.delivered_count(0) for node in survivors)
        expected += len(survivors) * len(shard.injections)
        first += shard.first_deliveries
        duplicates += shard.duplicate_receptions
        events += bed.sim.events_processed
        peak = max(peak, bed.sim.peak_pending)
        sim_span += bed.sim.now - bed.metrics.phase_starts[DISSEMINATION]
    # Receptions are booked network-wide (joiners included), so their
    # ratio is taken over the same population's first deliveries.
    return _outcome(
        deliveries=deliveries, expected=expected,
        receptions=first + duplicates, first_deliveries=first,
        sim_span=sim_span, structures=0, structures_complete=0,
        events=events, peak_pending=peak,
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "flood_vectorized_30k",
            "set-up (CSR synthesis, spawn_many, install_overlay, rows) is ~60% of "
            "the run and the drain is the batch-drain tier + numpy waves; the "
            "per-event path and the BRISA rule table do nothing",
            flood_vectorized_30k, 1.0, False,
        ),
        Workload(
            "brisa_object_5k",
            "full BRISA on the fire-and-forget per-event tier: send_many to "
            "per-node handlers, rule table, predictors, per-node timers; "
            "core/brisa* dominates, set-up ~10%",
            brisa_object_5k, 1.0, True,
        ),
        Workload(
            "brisa_slotted_lossy_2stream",
            "same protocol on slot planes + Bloom bit-matrix per stream over a "
            "power-law overlay with 2% link loss: loss mask, hubs, tail probe / "
            "retransmit cold path, multi-stream assemble",
            brisa_slotted_lossy_2stream, 0.999, True,
        ),
        Workload(
            "brisa_paper_churn",
            "what repro run users pay: simulated HyParView join ramp, cancellable "
            "timers, ClusterLatency sampling + FIFO clamp, per-message send, "
            "ChurnDriver kills, soft/hard repair; no array kernel, no fused fan",
            brisa_paper_churn, 0.80, False,
        ),
    )
}
