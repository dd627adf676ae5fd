"""Ablation — cycle predictors: path embedding vs depth labels vs Bloom.

Quantifies the §II-D cost argument: exact path embedding carries a few
tens of bytes (bounded by tree height × 6 B), depth labels 4 B, Bloom
filters bits/8 B regardless of depth — and only the Bloom variant rejects
valid parents through false positives.  All three must keep the structure
complete and acyclic.
"""

from repro.config import BrisaConfig, StreamConfig
from repro.experiments.common import build_brisa_testbed
from repro.experiments.report import banner, table
from repro.ids import DEPTH_BYTES, NODE_ID_BYTES
from tests.helpers import to_networkx


def run_predictor(mode, predictor, scale, seed=31, bloom_bits=1024):
    cfg = BrisaConfig(
        mode=mode,
        num_parents=1 if mode == "tree" else 2,
        cycle_predictor=predictor,
        bloom_bits=bloom_bits,
    )
    n = max(48, scale.cluster_nodes // 2)
    bed = build_brisa_testbed(n, seed=seed, config=cfg)
    source = bed.choose_source()
    result = bed.run_stream(source, StreamConfig(count=40, rate=5.0, payload_bytes=1024))
    ok, reason = result.structure_ok()
    g = result.structure()
    # Metadata bytes actually carried per message at the deepest node.
    import networkx as nx

    depth = nx.single_source_shortest_path_length(to_networkx(g), source.node_id)
    max_depth = max(depth.values()) if depth else 0
    if predictor == "path":
        meta_bytes = (max_depth + 1) * NODE_ID_BYTES
    elif predictor == "depth":
        meta_bytes = DEPTH_BYTES
    else:
        meta_bytes = bloom_bits // 8
    return {
        "complete": ok,
        "reason": reason,
        "delivered": result.delivered_fraction(),
        "max_depth": max_depth,
        "meta_bytes": meta_bytes,
        "data_mb": bed.metrics.total_bytes() / 2**20,
    }


def test_ablation_cycle_predictors(benchmark, scale, emit):
    def run_all():
        return {
            ("tree", "path"): run_predictor("tree", "path", scale),
            ("tree", "bloom"): run_predictor("tree", "bloom", scale),
            ("dag", "depth"): run_predictor("dag", "depth", scale),
            ("dag", "bloom"): run_predictor("dag", "bloom", scale),
        }

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = [
        [f"{mode}/{pred}", r["complete"], f"{r['delivered'] * 100:.1f}%",
         r["max_depth"], r["meta_bytes"], round(r["data_mb"], 2)]
        for (mode, pred), r in results.items()
    ]
    text = banner("Ablation — cycle predictors (§II-D cost comparison)") + "\n"
    text += table(
        ["config", "complete+acyclic", "delivered", "max depth",
         "worst-case metadata B/msg", "total MB"],
        rows,
    )
    emit("ablation_cycle_predictors", text)

    for key, r in results.items():
        assert r["complete"], (key, r["reason"])
        assert r["delivered"] == 1.0, key
    # §II-D: the path metadata stays tiny (bounded by tree height), the
    # depth label is constant, and the Bloom filter dwarfs both.
    assert results[("tree", "path")]["meta_bytes"] < 128
    assert results[("dag", "depth")]["meta_bytes"] == DEPTH_BYTES
    assert results[("tree", "bloom")]["meta_bytes"] >= 128
    # Bloom's fixed cost also shows in total traffic vs path embedding.
    assert (
        results[("tree", "bloom")]["data_mb"]
        > results[("tree", "path")]["data_mb"]
    )
