"""Ablation — all five parent-selection strategies (§II-E + §IV).

Runs the same PlanetLab stream under each strategy and reports what each
one optimizes: routing delay (delay-aware), parent uptime (gerontocratic),
relay-load spread (load-balancing) and parent capacity (heterogeneity) —
the §IV perspectives implemented as first-class strategies.
"""

import statistics

from repro.config import BrisaConfig, HyParViewConfig, StreamConfig
from repro.experiments.common import build_brisa_testbed
from repro.experiments.report import banner, table
from repro.sim.latency import PlanetLabLatency

STRATEGIES = (
    "first-come",
    "delay-aware",
    "gerontocratic",
    "load-balancing",
    "heterogeneity",
)


def run_strategy(strategy, scale, seed=24):
    n = scale.planetlab_nodes
    bed = build_brisa_testbed(
        n,
        seed=seed,
        config=BrisaConfig(strategy=strategy),
        hpv_config=HyParViewConfig(active_size=4),
        latency=PlanetLabLatency(seed=seed),
    )
    source = bed.choose_source()
    stream = StreamConfig(count=60, rate=5.0, payload_bytes=1024)
    result = bed.run_stream(source, stream, drain=40.0)
    delays = [
        rec.path_delay
        for seq in range(stream.count)
        for nid, rec in bed.metrics.deliveries.get((0, seq), {}).items()
        if nid != source.node_id
    ]
    parents = [
        state.parents
        for node in bed.alive_nodes()
        if node is not source
        for state in [node.streams.get(0)]
        if state is not None and state.parents
    ]
    # Read the parents themselves, not the adoption-time snapshots: a
    # snapshot carries only the inputs its strategy declares.
    parent_uptime = statistics.mean(
        bed.node(p).uptime for ps in parents for p in ps
    )
    parent_capacity = statistics.mean(
        bed.network.capacity(p) for ps in parents for p in ps
    )
    loads = [len(node.children_of(0)) for node in bed.alive_nodes()]
    return {
        "median_delay": statistics.median(delays) if delays else float("inf"),
        "delivered": result.delivered_fraction(),
        "parent_uptime": parent_uptime,
        "parent_capacity": parent_capacity,
        "load_stdev": statistics.pstdev(loads),
    }


def test_ablation_strategies(benchmark, scale, emit):
    results = benchmark.pedantic(
        lambda: {s: run_strategy(s, scale) for s in STRATEGIES},
        rounds=1,
        iterations=1,
    )
    rows = [
        [s, round(r["median_delay"], 3), f"{r['delivered'] * 100:.1f}%",
         round(r["parent_uptime"], 1), round(r["parent_capacity"], 2),
         round(r["load_stdev"], 2)]
        for s, r in results.items()
    ]
    text = banner("Ablation — parent-selection strategies (PlanetLab)") + "\n"
    text += table(
        ["strategy", "median delay (s)", "delivered", "mean parent uptime (s)",
         "mean parent capacity", "relay-load stdev"],
        rows,
    )
    emit("ablation_strategies", text)

    # Stable strategies must deliver everything; the dynamic §IV
    # perspectives (hysteresis-damped) may trail marginally.
    for s in ("first-come", "delay-aware"):
        assert results[s]["delivered"] == 1.0, s
    for s in ("gerontocratic", "load-balancing", "heterogeneity"):
        assert results[s]["delivered"] > 0.9, (s, results[s]["delivered"])
    # Each perspective optimizes its own objective vs first-come.
    fc = results["first-come"]
    assert results["gerontocratic"]["parent_uptime"] >= fc["parent_uptime"] * 0.95
    assert results["heterogeneity"]["parent_capacity"] >= fc["parent_capacity"] * 1.1
    assert results["delay-aware"]["median_delay"] <= fc["median_delay"] * 1.1
