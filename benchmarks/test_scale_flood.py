"""Scale flood — the 10k/100k/1M dissemination rungs.

Not a paper artifact: these rungs report what the paper's claims are
about — delivery, duplicates, churn and loss response — at populations
the paper never reached (DESIGN.md §6, §8), and persist the
deterministic outcomes to ``benchmarks/run/BENCH_scale.json`` for
``compare_bench.py``.  How fast the simulator runs them is measured by
``python3 -m bench``, not here.

Asserted: the 10k-node dissemination completes with every receiver
served; the object, slotted and vectorized kernels run the identical xl
simulation; 8 concurrent streams each deliver fully; churn and loss
leave delivery above their floors on every topology class.

The ``xxl`` (100k-node) rung opened by the array-backed bootstrap runs
behind ``REPRO_XXL=1``; the ``xxxl`` (1M-node) rung opened by the
vectorized kernel runs behind ``REPRO_XXXL=1`` — both are exercised by
the nightly CI workflow and by driver acceptance runs, not by per-push
CI.  A 2k-node smoke variant (``-k smoke``) covers CI pushes where even
the 10k run would be heavy.
"""

import os

import pytest

from repro.experiments.report import banner
from repro.experiments.scale import LARGE, XL, XXL, XXXL
from repro.experiments.scale_flood import run_scale_flood
from repro.experiments.scale_runner import merge_json

from benchmarks.conftest import RUN_DIR

#: Stream length for the benchmark runs: long enough to overlap many
#: messages in flight (peak-heap pressure), short enough for CI.
MESSAGES = 20


def test_scale_flood_10k(benchmark, emit):
    result = benchmark.pedantic(
        lambda: run_scale_flood(XL.cluster_nodes, MESSAGES, rate=20.0, seed=3),
        rounds=1,
        iterations=1,
    )
    emit(
        "scale_flood",
        banner(f"Scale flood — {result.nodes} nodes (xl)") + "\n" + result.summary(),
    )
    merge_json(RUN_DIR / "BENCH_scale.json", {"scale_run": result.to_dict()})

    # The dissemination completed: every live receiver got every message.
    assert result.nodes == XL.cluster_nodes
    assert result.delivered_fraction == 1.0
    # Telemetry sanity: the run actually stressed the engine.
    assert result.events > result.nodes * MESSAGES
    assert result.peak_pending > 0
    assert result.handle_pool_size > 0


@pytest.mark.xl
def test_flood_kernels_agree_xl():
    """The three flood kernels (DESIGN.md §9, §12) run the identical xl
    simulation: same seed, same synthesized overlay, same injection
    schedule, draw for draw (the full parity surface is pinned at small
    populations by tests/test_slotted_parity.py)."""
    pytest.importorskip("numpy")
    results = {
        kernel: run_scale_flood(
            XL.cluster_nodes, MESSAGES, rate=20.0, seed=3, kernel=kernel
        )
        for kernel in ("object", "slotted", "vectorized")
    }
    reference = results["object"]
    assert reference.receptions > reference.deliveries > 0
    for kernel, result in results.items():
        assert result.kernel == kernel
        for name in ("deliveries", "receptions", "events", "sim_time"):
            assert getattr(result, name) == getattr(reference, name), (kernel, name)


@pytest.mark.xl
def test_multistream_xl(emit):
    """Multi-stream at scale (DESIGN.md §10): 8 concurrent publishers
    over the xl slotted overlay must deliver every stream fully."""
    multi = run_scale_flood(
        XL.cluster_nodes, 10, rate=20.0, seed=3, kernel="slotted", streams=8
    )
    emit(
        "scale_flood_multistream",
        banner(f"Scale flood multi-stream — {multi.nodes} nodes (xl), 8 streams")
        + "\n" + multi.summary(),
    )
    merge_json(RUN_DIR / "BENCH_scale.json", {"multistream": multi.to_dict()})

    assert multi.streams == 8 and len(multi.per_stream) == 8
    assert multi.delivered_fraction == 1.0
    for row in multi.per_stream:
        assert row["delivered_fraction"] == 1.0, row


@pytest.mark.xl
def test_scale_flood_churn_xl(emit):
    """Churn at scale (DESIGN.md §9): the xl flood run loses 1% of its
    population mid-stream and must still deliver >=99% of the stream to
    the surviving initial receivers, on both kernels, with identical
    outcomes.  This is the CI churn smoke."""
    results = {
        kernel: run_scale_flood(
            XL.cluster_nodes, 10, rate=20.0, seed=3,
            kernel=kernel, churn_percent=1.0,
        )
        for kernel in ("slotted", "object")
    }
    slotted = results["slotted"]
    emit(
        "scale_flood_churn",
        banner(f"Scale flood churn — {slotted.nodes} nodes (xl), 1% churn")
        + "\n" + slotted.summary(),
    )
    merge_json(RUN_DIR / "BENCH_scale.json", {"churn": slotted.to_dict()})

    for kernel, result in results.items():
        assert result.kills > 0, kernel
        assert result.survivors < XL.cluster_nodes - 1, kernel
        assert result.delivered_fraction >= 0.99, (kernel, result.summary())
    # Kernel parity holds under churn too (slot recycling included).
    for field in ("deliveries", "receptions", "events", "kills", "joins",
                  "survivors", "sim_time"):
        assert getattr(slotted, field) == getattr(results["object"], field), field


@pytest.mark.xl
def test_topology_loss_matrix_xl(emit):
    """The scenario-diversity family (DESIGN.md §14): delivery fraction,
    duplicate overhead and relay-load spread per topology class × loss
    rate over the xl overlay (slotted kernel — parity with the object and
    vectorized kernels under loss is pinned in tests/test_slotted_parity.py).
    Persists the gated ``topology.*`` / ``loss.*`` entries of
    BENCH_scale.json."""
    from repro.config import HyParViewConfig
    from repro.experiments.bootstrap import TOPOLOGY_BUILDERS
    from repro.sim.rng import derive

    # Mirror build_static_flood_overlay's overlay parameters (degree 5)
    # so the rebuilt CSR arrays are the run's actual topology: same
    # builder, same derived RNG stream, same cap.
    degree, seed = 5, 3
    cap = HyParViewConfig(active_size=max(4, degree), passive_size=16).max_active
    topo_entries: dict = {}
    loss_entries: dict = {}
    report: list[str] = []
    for name in sorted(TOPOLOGY_BUILDERS):
        arrays = TOPOLOGY_BUILDERS[name](
            XL.cluster_nodes, degree=degree, max_degree=cap,
            rng=derive(seed, "static-overlay"),
        )
        # Relay load in a flood is proportional to degree; the spread is
        # its coefficient of variation (the cap clamps the *maximum*, so
        # max/mean cannot tell a heavy tail from a lucky uniform draw).
        degrees = arrays.degrees
        mean = sum(degrees) / len(degrees)
        relay_spread = (
            sum((d - mean) ** 2 for d in degrees) / len(degrees)
        ) ** 0.5 / mean
        for loss in (0.0, 2.0):
            result = run_scale_flood(
                XL.cluster_nodes, 10, rate=20.0, seed=seed,
                kernel="slotted", topology=name, loss_percent=loss,
            )
            entry = {
                "delivered_fraction": result.delivered_fraction,
                "duplicate_overhead": result.receptions / result.deliveries - 1.0,
                "relay_spread": relay_spread,
                "events": result.events,
                "dropped_loss": result.dropped_loss,
            }
            if loss:
                loss_entries[f"{name}_l{loss:g}"] = entry
            else:
                topo_entries[name] = entry
            report.append(
                banner(f"Scale flood — {result.nodes} nodes (xl, {name}, "
                       f"{loss:g}% loss)")
                + "\n" + result.summary()
            )
            # Flood redundancy must absorb 2% per-link loss on every
            # topology class: a node misses a message only when *all* its
            # inbound copies are dropped.
            assert result.delivered_fraction >= 0.995, (name, loss, result.summary())
            assert (result.dropped_loss > 0) == bool(loss), (name, loss)
    emit("scale_flood_topology_loss", "\n\n".join(report))

    merge_json(
        RUN_DIR / "BENCH_scale.json",
        {"topology": topo_entries, "loss": loss_entries},
    )

    # Preferential attachment concentrates relay load on hubs; the
    # cap-clamped power-law overlay must still show a visibly heavier
    # spread than the uniform one, and the lattice-like small-world
    # overlay a flatter or equal one.
    assert topo_entries["powerlaw"]["relay_spread"] > topo_entries["uniform"]["relay_spread"]
    assert topo_entries["smallworld"]["relay_spread"] <= topo_entries["powerlaw"]["relay_spread"]


@pytest.mark.skipif(
    not os.environ.get("REPRO_XXL"),
    reason="100k rung runs nightly / on demand (set REPRO_XXL=1)",
)
@pytest.mark.xxl
def test_scale_flood_xxl_100k(emit):
    """The 100k rung: array-backed bootstrap + fused delivery end to end."""
    result = run_scale_flood(XXL.cluster_nodes, XXL.messages, rate=20.0, seed=3)
    emit(
        "scale_flood_xxl",
        banner(f"Scale flood — {result.nodes} nodes (xxl)") + "\n" + result.summary(),
    )
    merge_json(RUN_DIR / "BENCH_scale.json", {"xxl": result.to_dict()})

    assert result.nodes == XXL.cluster_nodes
    assert result.delivered_fraction == 1.0
    assert result.deliveries == (XXL.cluster_nodes - 1) * XXL.messages


@pytest.mark.skipif(
    not os.environ.get("REPRO_XXL"),
    reason="100k rung runs nightly / on demand (set REPRO_XXL=1)",
)
@pytest.mark.xxl
def test_scale_flood_xxl_slotted_churn(emit):
    """The 100k rung on the slotted kernel, with 1% churn mid-stream:
    slot recycling and CSR-link purging at full scale (DESIGN.md §9)."""
    result = run_scale_flood(
        XXL.cluster_nodes, XXL.messages, rate=20.0, seed=3,
        kernel="slotted", churn_percent=1.0,
    )
    emit(
        "scale_flood_xxl_churn",
        banner(f"Scale flood churn — {result.nodes} nodes (xxl, slotted, 1% churn)")
        + "\n" + result.summary(),
    )
    merge_json(RUN_DIR / "BENCH_scale.json", {"xxl_churn": result.to_dict()})

    assert result.kills > 0
    assert result.delivered_fraction >= 0.99


@pytest.mark.skipif(
    not os.environ.get("REPRO_XXXL"),
    reason="1M rung runs nightly / on demand (set REPRO_XXXL=1)",
)
@pytest.mark.xxxl
def test_scale_flood_xxxl_1m(emit):
    """The 1M rung (DESIGN.md §12): CSR bootstrap + vectorized batch
    drains end to end — only the numpy kernel makes this population
    tractable, so it is the rung's sole configuration."""
    pytest.importorskip("numpy")
    result = run_scale_flood(
        XXXL.cluster_nodes, XXXL.messages, rate=20.0, seed=3,
        kernel="vectorized",
    )
    emit(
        "scale_flood_xxxl",
        banner(f"Scale flood — {result.nodes} nodes (xxxl, vectorized)")
        + "\n" + result.summary(),
    )
    merge_json(RUN_DIR / "BENCH_scale.json", {"xxxl": result.to_dict()})

    assert result.nodes == XXXL.cluster_nodes
    assert result.delivered_fraction == 1.0
    assert result.deliveries == (XXXL.cluster_nodes - 1) * XXXL.messages


def test_scale_flood_smoke_2k(emit):
    """CI smoke: the large (2k) scenario end-to-end, no benchmark fixture."""
    result = run_scale_flood(LARGE.cluster_nodes, 10, rate=20.0, seed=4)
    emit("scale_flood_smoke", banner("Scale flood smoke — 2k nodes") + "\n" + result.summary())
    assert result.delivered_fraction == 1.0
    assert result.deliveries == (LARGE.cluster_nodes - 1) * 10
