"""Shared fixtures for the reproduction benches.

Each paper-artifact bench runs its ``scenarios.ARTIFACTS`` entry once
(``pedantic`` with a single round — these are experiments, not timing
loops) through the ``artifact`` fixture, which writes the entry's
reports to ``benchmarks/run/`` (the files ``repro run`` prints), and
asserts the qualitative shape against the digitized paper anchors.  The
ablation and scale benches render their own reports through ``emit``.

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
from repro.experiments.scenarios import ARTIFACTS

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


def _write(file_name: str, text: str) -> None:
    """Print a report and persist it as benchmarks/run/<file_name>."""
    RUN_DIR.mkdir(exist_ok=True)
    print(text, end="")
    (RUN_DIR / file_name).write_text(text)


@pytest.fixture(scope="session")
def emit():
    """Print a report block and persist it as benchmarks/run/<name>.txt."""
    return lambda name, text: _write(f"{name}.txt", text + "\n")


@pytest.fixture
def artifact(benchmark, scale, shared_cache):
    """Run an ``ARTIFACTS`` entry at the session scale, write every
    report it renders and return its result.  The benches of an
    artifact with two figures (6+7, 10+11) share one run."""

    def _run(name: str):
        key = (name, scale.name)

        def produce():
            if key not in shared_cache:
                shared_cache[key] = ARTIFACTS[name].produce(scale)
            return shared_cache[key]

        result, reports = benchmark.pedantic(produce, rounds=1, iterations=1)
        for file_name, text in reports.items():
            _write(file_name, text)
        return result

    return _run


@pytest.fixture(scope="session")
def shared_cache():
    """Session cache so artifact pairs measured by one scenario run
    (Figs. 6+7, Figs. 10+11) don't recompute the heavy simulation."""
    return {}
