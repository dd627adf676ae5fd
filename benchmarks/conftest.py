"""Shared fixtures for the reproduction benches.

Each bench runs one paper artifact's scenario once (``pedantic`` with a
single round — these are experiments, not timing loops), prints the
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

import gc
import pathlib

import pytest

from repro.experiments.scale import get_scale

#: Where a run's reports and BENCH_*.json land.  The scale benches
#: merge-write disjoint keys of one BENCH file with
#: ``merge_json(RUN_DIR / name, ...)``.
RUN_DIR = pathlib.Path(__file__).parent / "run"


@pytest.fixture(autouse=True)
def collector_left_as_found():
    """Mirror of ``tests/conftest.py``: no bench may leave the collector
    paused or the heap frozen behind it (DESIGN.md §8)."""
    yield
    assert gc.isenabled(), "a bench left the cyclic collector disabled"
    assert gc.get_freeze_count() == 0, "a bench left the heap frozen"


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
