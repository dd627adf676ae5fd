"""Smoke tests: every paper artifact renders paper-style reports.

Each ``scenarios.ARTIFACTS`` entry runs at tiny scale through
``Artifact.produce``, the one path ``repro run`` and the benches share.
"""

import pytest

from repro.experiments.scale import TINY
from repro.experiments.scenarios import ARTIFACTS


@pytest.mark.parametrize("name", sorted(ARTIFACTS))
def test_renderer_produces_rows(name):
    _, reports = ARTIFACTS[name].produce(TINY)
    texts = [text for file_name, text in reports.items() if file_name.endswith(".txt")]
    assert texts
    for text in texts:
        assert "===" in text  # banner present
        assert len(text.splitlines()) >= 5  # headers + at least one data row
