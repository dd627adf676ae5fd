"""Suite-wide fixtures (mirrored in ``benchmarks/conftest.py``)."""

from __future__ import annotations

import gc

import pytest


@pytest.fixture(autouse=True)
def collector_left_as_found():
    """The array bootstrap pauses the collector and ``run_stack`` freezes
    the heap (DESIGN.md §8); tier-1 runs hundreds of scale runs in one
    process, so one leaked pause or freeze would pin every later test's
    garbage for the rest of the session."""
    yield
    assert gc.isenabled(), "a test left the cyclic collector disabled"
    assert gc.get_freeze_count() == 0, "a test left the heap frozen"
