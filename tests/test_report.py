"""Tests for the ASCII report rendering."""

from repro.experiments.report import (
    banner,
    cdf_rows,
    overhead_percent,
    percentile_rows,
    table,
)
from repro.metrics.stats import cdf_of


def test_table_alignment_and_content():
    out = table(["a", "bb"], [[1, 2.5], ["x", 0.001]])
    lines = out.splitlines()
    assert len(lines) == 4
    assert "a" in lines[0] and "bb" in lines[0]
    assert "2.50" in out and "0.0010" in out


def test_cdf_rows_with_data_and_empty():
    out = cdf_rows({"full": cdf_of([1, 2, 3]), "none": cdf_of([])})
    assert "full" in out and "none" in out
    assert "median" in out


def test_percentile_rows():
    out = percentile_rows({"cfg": {5: 1.0, 50: 2.0, 90: 3.0}}, unit="KB/s")
    assert "p50 (KB/s)" in out
    assert "cfg" in out


def test_banner():
    out = banner("Fig. 2")
    assert "Fig. 2" in out and out.count("=") >= 120


def test_overhead_percent_signs_after_rounding():
    # Table II's BRISA cell: a span a hair below the ideal is no
    # negative overhead, and a negative zero is no sign at all.
    assert overhead_percent(-0.0) == "+0%"
    assert overhead_percent(-0.004) == "+0%"
    assert overhead_percent(0.0) == "+0%"
    assert overhead_percent(0.88) == "+88%"
    assert overhead_percent(1.0) == "+100%"
    assert overhead_percent(-0.06) == "-6%"
