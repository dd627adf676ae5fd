"""Experiment scales: paper-faithful population sizes vs fast CI sizes.

``paper`` reproduces the published populations and message counts (§III:
512 cluster nodes, 150–200 PlanetLab nodes, 500 messages at 5/s, 10 min
of churn).  ``fast`` shrinks everything shape-preservingly so the whole
bench suite completes in minutes.  ``large`` (2k), ``xl`` (10k) and
``xxl`` (100k) and ``xxxl`` (1M) go beyond the paper for the scale
benchmarks enabled by the simulator hot-path overhaul, the array-backed
bootstrap and the vectorized wave kernel.  Select with
``REPRO_SCALE=paper`` etc.
"""

from __future__ import annotations

import os
from dataclasses import dataclass


@dataclass(frozen=True)
class Scale:
    name: str
    #: Cluster-testbed population (paper: 512).
    cluster_nodes: int
    #: PlanetLab-testbed population for Fig. 9 (paper: 150).
    planetlab_nodes: int
    #: PlanetLab population for Fig. 13 (paper: 200).
    planetlab_nodes_large: int
    #: Small-population churn experiments (paper: 128).
    small_nodes: int
    #: Stream length (paper: 500).
    messages: int
    #: Seconds of churn (paper: 600).
    churn_duration: float
    #: Churn period (paper: 60).
    churn_period: float
    #: Overlay settle time after the join ramp.
    settle: float
    #: Spacing between bootstrap joins (paper trace: 1/s).
    join_spacing: float


PAPER = Scale(
    name="paper",
    cluster_nodes=512,
    planetlab_nodes=150,
    planetlab_nodes_large=200,
    small_nodes=128,
    messages=500,
    churn_duration=600.0,
    churn_period=60.0,
    settle=60.0,
    join_spacing=0.25,
)

FAST = Scale(
    name="fast",
    cluster_nodes=128,
    planetlab_nodes=48,
    planetlab_nodes_large=64,
    small_nodes=64,
    messages=100,
    churn_duration=180.0,
    churn_period=30.0,
    settle=30.0,
    join_spacing=0.05,
)

#: The live-runner smoke rung (DESIGN.md §13): 64 nodes is small enough
#: for a multi-process localhost UDP run to finish in seconds while
#: still forcing real cross-process traffic with two or more workers.
SMALL = Scale(
    name="small",
    cluster_nodes=64,
    planetlab_nodes=24,
    planetlab_nodes_large=24,
    small_nodes=32,
    messages=10,
    churn_duration=60.0,
    churn_period=15.0,
    settle=20.0,
    join_spacing=0.05,
)

TINY = Scale(
    name="tiny",
    cluster_nodes=32,
    planetlab_nodes=24,
    planetlab_nodes_large=24,
    small_nodes=24,
    messages=30,
    churn_duration=60.0,
    churn_period=15.0,
    settle=20.0,
    join_spacing=0.05,
)

#: Beyond-paper populations opened by the hot-path overhaul (DESIGN.md §6).
#: ``large`` is the CI smoke size for the scale benchmark; ``xl`` is the
#: 10k-node target every scaling PR is measured against.
LARGE = Scale(
    name="large",
    cluster_nodes=2048,
    planetlab_nodes=150,
    planetlab_nodes_large=200,
    small_nodes=256,
    messages=200,
    churn_duration=300.0,
    churn_period=60.0,
    settle=45.0,
    join_spacing=0.05,
)

XL = Scale(
    name="xl",
    cluster_nodes=10_000,
    planetlab_nodes=150,
    planetlab_nodes_large=200,
    small_nodes=512,
    messages=100,
    churn_duration=300.0,
    churn_period=60.0,
    settle=60.0,
    join_spacing=0.01,
)

#: The 100k rung: only reachable through the array-backed bootstrap
#: (DESIGN.md §8) — the simulated join ramp is rejected outright at this
#: population by wall-clock.  Exercised by the nightly CI workflow and
#: ``REPRO_XXL=1`` benchmark runs, not by per-push CI.
XXL = Scale(
    name="xxl",
    cluster_nodes=100_000,
    planetlab_nodes=150,
    planetlab_nodes_large=200,
    small_nodes=512,
    messages=10,
    churn_duration=300.0,
    churn_period=60.0,
    settle=60.0,
    join_spacing=0.01,
)

#: The 1M rung (DESIGN.md §12): only reachable through the vectorized
#: wave kernel — at this population even the pure-python slotted
#: per-reception loop is the wall.  Exercised by the nightly CI workflow
#: behind ``REPRO_XXXL=1``, not by per-push CI.
XXXL = Scale(
    name="xxxl",
    cluster_nodes=1_000_000,
    planetlab_nodes=150,
    planetlab_nodes_large=200,
    small_nodes=512,
    messages=10,
    churn_duration=300.0,
    churn_period=60.0,
    settle=60.0,
    join_spacing=0.01,
)

SCALES = {
    "paper": PAPER,
    "fast": FAST,
    "small": SMALL,
    "tiny": TINY,
    "large": LARGE,
    "xl": XL,
    "xxl": XXL,
    "xxxl": XXXL,
}


def get_scale(name: str | None = None) -> Scale:
    """Resolve a scale by name, defaulting to ``$REPRO_SCALE`` or fast."""
    if name is None:
        name = os.environ.get("REPRO_SCALE", "fast")
    try:
        return SCALES[name]
    except KeyError:
        raise ValueError(f"unknown scale {name!r}; known: {sorted(SCALES)}") from None
