"""Scale BRISA — the full stack (membership + emergence + repair) at 10k.

Not a paper artifact: the ROADMAP rung after PR 1's flood-only scale
runs.  The synthesized-overlay bootstrap (DESIGN.md §7) replaces the
simulated HyParView join ramp, making the complete BRISA protocol
affordable at populations the paper never reached.  The deterministic
outcomes persist to ``benchmarks/run/BENCH_scale_brisa.json`` for
``compare_bench.py``; how fast the simulator runs them is measured by
``python3 -m bench``, not here.

Asserted: the 10k-node BRISA dissemination completes with a
complete/acyclic emerged structure, a delivered fraction at least the
flood baseline's on the identical population/workload and far fewer
duplicates; 8 publishers emerge 8 distinct trees; the object and slotted
kernels run the identical xl simulation.

The ``xxl`` (100k-node) rung opened by the array-backed bootstrap runs
behind ``REPRO_XXL=1`` (nightly CI / driver acceptance).  A 2k-node
smoke variant (``-k smoke``) covers CI pushes where the full 10k run
would be too heavy.
"""

import os

import pytest

from repro.experiments.report import banner
from repro.experiments.scale import LARGE, XL, XXL
from repro.experiments.scale_brisa import run_scale_brisa
from repro.experiments.scale_flood import run_scale_flood
from repro.experiments.scale_runner import merge_json

from benchmarks.conftest import RUN_DIR

#: Stream length for the benchmark runs (matches test_scale_flood).
MESSAGES = 20


def test_scale_brisa_10k(emit):
    brisa = run_scale_brisa(XL.cluster_nodes, MESSAGES, rate=20.0, seed=3)
    flood = run_scale_flood(XL.cluster_nodes, MESSAGES, rate=20.0, seed=3)
    text = (
        banner(f"Scale BRISA — {brisa.nodes} nodes (xl)")
        + "\n" + brisa.summary()
        + "\n" + banner("Flood baseline — same population/workload")
        + "\n" + flood.summary()
    )
    emit("scale_brisa", text)

    merge_json(
        RUN_DIR / "BENCH_scale_brisa.json",
        {"scale_run": brisa.to_dict(), "flood_baseline": flood.to_dict()},
    )

    # Structure correctness (§II-B) at a population 20x the paper's.
    assert brisa.nodes == XL.cluster_nodes
    assert brisa.structure_complete, brisa.structure_reason
    # Reliability: BRISA must not trade delivery away against flooding.
    assert brisa.delivered_fraction >= flood.delivered_fraction
    # Efficiency: once the structure emerges, duplicates stay far below
    # flooding's every-link-every-message regime (degree - 1 per message).
    assert brisa.duplicates_per_node < flood.messages * 2


@pytest.mark.xl
def test_scale_brisa_multistream_xl(emit):
    """The §IV acceptance run (DESIGN.md §10): 8 publishers over one
    10k overlay emerge 8 independent complete/acyclic trees with 100%
    aggregate delivery, and the relay-load-spread report shows the
    interior-node sets differ across streams (SplitStream-style load
    spreading on shared infrastructure)."""
    result = run_scale_brisa(XL.cluster_nodes, 10, rate=20.0, seed=3, streams=8)
    emit(
        "scale_brisa_multistream",
        banner(f"Scale BRISA multi-stream — {result.nodes} nodes (xl), 8 streams")
        + "\n" + result.summary(),
    )
    merge_json(RUN_DIR / "BENCH_scale_brisa.json", {"multistream": result.to_dict()})

    assert result.streams == 8 and len(result.per_stream) == 8
    assert result.structure_complete, result.structure_reason
    for row in result.per_stream:
        assert row["structure_complete"], (row["stream"], row["structure_reason"])
        assert row["delivered_fraction"] == 1.0, row
    assert result.delivered_fraction == 1.0
    rs = result.relay_spread
    assert rs is not None and rs["streams"] == 8
    # The §IV claim: every stream emerges its own relay set.
    assert rs["distinct_sets"] is True
    assert rs["interior_all"] <= min(rs["interior_per_stream"].values())


@pytest.mark.xl
def test_brisa_kernels_agree_xl():
    """The slotted BRISA kernel (DESIGN.md §11) is a pure throughput
    lever: flat-array tree state + packed Bloom rows run the identical xl
    simulation as the object kernel (the full draw-for-draw surface is
    pinned at small populations by tests/test_slotted_parity.py)."""
    results = {
        kernel: run_scale_brisa(
            XL.cluster_nodes, MESSAGES, rate=20.0, seed=3, kernel=kernel
        )
        for kernel in ("object", "slotted")
    }
    obj, slotted = results["object"], results["slotted"]
    assert slotted.kernel == "slotted" and obj.receptions > 0
    assert obj.structure_complete, obj.structure_reason
    for name in ("receptions", "events", "duplicates_per_node", "structure_complete"):
        assert getattr(slotted, name) == getattr(obj, name), name


@pytest.mark.skipif(
    not os.environ.get("REPRO_XXL"),
    reason="100k rung runs nightly / on demand (set REPRO_XXL=1)",
)
@pytest.mark.xxl
def test_scale_brisa_xxl_slotted_100k(emit):
    """The 100k rung on the slotted BRISA kernel: the throughput lever
    must preserve the deterministic outcomes (full delivery, complete
    structure) at the largest population."""
    result = run_scale_brisa(
        XXL.cluster_nodes, XXL.messages, rate=20.0, seed=3, kernel="slotted"
    )
    emit(
        "scale_brisa_xxl_slotted",
        banner(f"Scale BRISA slotted — {result.nodes} nodes (xxl)")
        + "\n" + result.summary(),
    )
    merge_json(RUN_DIR / "BENCH_scale_brisa.json", {"xxl_slotted": result.to_dict()})

    assert result.kernel == "slotted"
    assert result.structure_complete, result.structure_reason
    assert result.delivered_fraction == 1.0


@pytest.mark.skipif(
    not os.environ.get("REPRO_XXL"),
    reason="100k rung runs nightly / on demand (set REPRO_XXL=1)",
)
@pytest.mark.xxl
def test_scale_brisa_xxl_100k(emit):
    """The 100k rung for the full BRISA stack: membership + emergence
    over an array-backed synthesized overlay."""
    result = run_scale_brisa(XXL.cluster_nodes, XXL.messages, rate=20.0, seed=3)
    emit(
        "scale_brisa_xxl",
        banner(f"Scale BRISA — {result.nodes} nodes (xxl)") + "\n" + result.summary(),
    )
    merge_json(RUN_DIR / "BENCH_scale_brisa.json", {"xxl": result.to_dict()})

    assert result.nodes == XXL.cluster_nodes
    assert result.structure_complete, result.structure_reason
    assert result.delivered_fraction == 1.0


def test_scale_brisa_smoke_2k(emit):
    """CI smoke: the large (2k) scenario end-to-end, full BRISA stack."""
    result = run_scale_brisa(LARGE.cluster_nodes, 10, rate=20.0, seed=4)
    emit("scale_brisa_smoke", banner("Scale BRISA smoke — 2k nodes") + "\n" + result.summary())
    assert result.delivered_fraction == 1.0
    assert result.structure_complete, result.structure_reason
    assert result.deliveries == (LARGE.cluster_nodes - 1) * 10
