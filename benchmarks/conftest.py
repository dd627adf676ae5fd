"""Shared fixtures for the reproduction benches.

Each bench runs one paper artifact's scenario once (``pedantic`` with a
single round — these are experiments, not microbenchmarks), prints the
paper-style rows, writes them to ``benchmarks/run/<artifact>.txt`` and
asserts the qualitative shape against the digitized paper anchors.

``benchmarks/run/`` is ignored by git: a test run never touches a
tracked file.  ``benchmarks/out/`` holds the committed baselines and
changes only through ``python benchmarks/compare_bench.py --accept``.

Scale: ``REPRO_SCALE=paper pytest benchmarks/ --benchmark-only`` runs the
published populations; the default ``fast`` scale preserves shapes at a
fraction of the runtime.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.experiments.scale import get_scale
from repro.experiments.scale_runner import merge_json

RUN_DIR = pathlib.Path(__file__).parent / "run"


def merge_bench_json(name: str, updates: dict) -> dict:
    """Merge ``updates`` into this run's ``benchmarks/run/<name>``,
    preserving entries written by other benches of the run — the scale
    benchmarks update disjoint keys of one BENCH_*.json file."""
    return merge_json(RUN_DIR / name, updates)


def assert_ratio_gate(env_var: str, ratio: float, detail: str) -> None:
    """Assert a wall-clock ratio only when its gate is set explicitly.

    Two timings of one process on a shared host swing the ratio by tens
    of percent on identical code, so by default (tier-1) the ratio is
    only reported — the deterministic assertions next to each call are
    what must hold.  Setting ``env_var`` (the nightly workflow does)
    turns the gate on at that value.
    """
    gate = os.environ.get(env_var)
    if gate is not None:
        assert ratio >= float(gate), detail


@pytest.fixture(scope="session")
def scale():
    return get_scale()


@pytest.fixture(scope="session")
def emit():
    """Print a report block and persist it under benchmarks/run/."""
    RUN_DIR.mkdir(exist_ok=True)

    def _emit(name: str, text: str) -> None:
        print(text)
        (RUN_DIR / f"{name}.txt").write_text(text + "\n")

    return _emit


@pytest.fixture(scope="session")
def shared_cache():
    """Session cache so artifact pairs measured by one scenario run
    (Figs. 6+7, Figs. 10+11) don't recompute the heavy simulation."""
    return {}
