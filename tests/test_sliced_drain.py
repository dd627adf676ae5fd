"""Sliced drains walk the same simulation (DESIGN.md §1, §12).

``sim.run(max_events=k)`` can end inside a run entry — one dissemination
wave of the vectorized flood kernel.  The head it processed is gone and
the tail waits at its own first seq, so the next call picks up exactly
where the last one stopped.  Driving whole vectorized flood runs through
repeated ``run(max_events=k)`` must therefore end where the unsliced run
and the slotted kernel (one scalar call per fan, no waves) end: every
``VECTOR_PARITY_FIELDS`` entry, ``peak_pending`` included, and every
per-stream row.  Neither vectorized leg may register an engine batch
drain: a wave is a run entry, so the claim tier has no caller.
"""

from __future__ import annotations

import pytest

from repro.experiments.scale_flood import run_scale_flood
from repro.sim.engine import Simulator
from tests.test_slotted_parity import VECTOR_PARITY_FIELDS, requires_numpy

#: spec -> (nodes, messages, run_scale_flood options).
SPECS = {
    "static": (2000, 3, {}),
    "loss": (1024, 4, {"loss_percent": 2.0}),
    "churn": (512, 8, {"churn_percent": 6.0}),
}


def sliced(k: int):
    """``Simulator.run_until_idle`` as repeated ``run(max_events=k)``."""

    def run_until_idle(sim) -> int:
        processed = sim.run(max_events=k)
        while sim.pending:
            processed += sim.run(max_events=k)
        return processed

    return run_until_idle


def outcome(spec: str, kernel: str) -> dict:
    nodes, messages, options = SPECS[spec]
    result = run_scale_flood(nodes, messages, seed=7, kernel=kernel, **options).to_dict()
    return {field: result[field] for field in VECTOR_PARITY_FIELDS + ("per_stream",)}


def no_batch_drain(sim, fn, drain):
    raise AssertionError("a vectorized flood run registered a batch drain")


@requires_numpy
@pytest.mark.parametrize("spec", sorted(SPECS))
def test_sliced_drains_match_the_whole_run_and_the_slotted_kernel(spec, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(Simulator, "register_batch_drain", no_batch_drain)
        whole = outcome(spec, "vectorized")
    assert outcome(spec, "slotted") == whole
    for k in (1, 7, 997):
        with monkeypatch.context() as patch:
            patch.setattr(Simulator, "register_batch_drain", no_batch_drain)
            patch.setattr(Simulator, "run_until_idle", sliced(k))
            assert outcome(spec, "vectorized") == whole, k
