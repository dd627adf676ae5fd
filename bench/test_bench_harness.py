"""Harness tests of the benchmark (no timing assertions).

Collected by the tier-1 command.  They pin what a later change could
break without noticing: the estimator, the agreement of BENCHMARK.json
with the tables the code reports from, the layer map's coverage of the
program, and that every workload still produces every metric.
"""

from __future__ import annotations

import json
import os
import re

import pytest

from bench import check, metrics
from bench.cell import run_cell
from bench.layers import LAYERS, PROGRAM_DIR, layer_of_module
from bench.run import ROOT_DIR, check_cells, summarise
from bench.workloads import SIMULATED_FIELDS, WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _series(planted: float, slow: float, drift: float, cells: int = 10):
    """``R W R W ... R`` on a host ``slow`` times slower than nominal whose
    speed drifts by ``drift`` over the run, with a spike on three samples
    of each series."""
    def host(step):
        return slow * (1.0 + drift * step / (2 * cells))

    refs = [metrics.REF_NOMINAL_S * host(2 * i) for i in range(cells + 1)]
    work = [planted * host(2 * i + 1) for i in range(cells)]
    for i in (1, 4, 8):
        work[i] += 0.5 * planted
    for i in (0, 5, 9):
        refs[i] += 0.4
    return work, refs


@pytest.mark.parametrize("planted", [0.17, 1.5, 4.0])
@pytest.mark.parametrize("slow", [1.0, 1.7])
@pytest.mark.parametrize("drift", [0.0, 0.1, -0.1, 0.2])
def test_lowhalf_normalisation_recovers_planted_value(planted, slow, drift):
    work, refs = _series(planted, slow, drift)
    assert abs(metrics.ref_seconds(work, refs) / planted - 1.0) < 0.02
    # What the normalisation is for: the raw figure follows the host.
    assert abs(metrics.lowhalf(work) / (planted * slow) - 1.0) < 0.15


def test_lowhalf_and_spread_definitions():
    assert metrics.lowhalf([5, 1, 3, 2, 4]) == 2.0  # lower ceil(5/2) = {1, 2, 3}
    assert metrics.lowhalf([4, 1]) == 1.0
    assert metrics.spread([10, 10, 10, 10]) == 0.0
    # A run without noise has no rerun spread; one spiked cell in ten barely
    # moves an estimate that discards the slow half.
    quiet = ([2.0] * 10, [1.0] * 11)
    assert metrics.ref_seconds_spread(*quiet) == 0.0
    assert metrics.ref_seconds_spread([2.0] * 9 + [5.0], [1.0] * 11) < 0.01
    assert metrics.ref_seconds_spread([2.0, 2.4, 2.1, 2.9, 2.0, 2.2], [1.0] * 7) > 0.01


def test_manifest_agrees_with_tables():
    with open(os.path.join(ROOT_DIR, "BENCHMARK.json")) as handle:
        manifest = json.load(handle)
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert manifest["paths"] == ["bench"]
    assert [(w["name"], w["why"]) for w in manifest["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert manifest["end_to_end"] == [
        {"name": x.name, "unit": x.unit, "better": x.better, "bound": x.bound}
        for x in metrics.END_TO_END
    ]
    assert manifest["per_layer"] == [
        {"name": x.name, "unit": x.unit, "better": x.better} for x in metrics.PER_LAYER
    ]
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer") for x in manifest[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(0 < x["bound"] <= 0.25 for x in manifest["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        x for x in manifest["end_to_end"] if x["name"] == "setup_s"
    ).items()
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in manifest["workloads"])


def test_every_program_module_has_a_layer():
    modules = []
    for folder, _dirs, files in os.walk(PROGRAM_DIR):
        for name in files:
            if name.endswith(".py"):
                modules.append(os.path.join(folder, name)[len(PROGRAM_DIR):])
    assert len(modules) > 50
    unassigned = [mod for mod in modules if layer_of_module(mod) == "other"]
    assert not unassigned, f"assign a layer in bench/layers.py: {unassigned}"
    assert all(layer_of_module(mod) in LAYERS for mod in modules)
    # Longest prefix wins, so the specific rules beat their package default.
    assert layer_of_module("core/brisa_slotted.py") == "brisa_slotted"
    assert layer_of_module("core/brisa.py") == "brisa"
    assert layer_of_module("experiments/bootstrap.py") == "bootstrap"
    assert layer_of_module("sim/latency.py") == "latency"


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_pass_reports_every_metric_deterministically(workload):
    first = run_cell(workload, 3, smoke=True)
    second = run_cell(workload, 3, smoke=True)
    traced = run_cell(workload, 3, smoke=True, trace=True)
    for field in SIMULATED_FIELDS:
        assert first["outcome"][field] == second["outcome"][field] == traced["outcome"][field]
    assert not check_cells(workload, [first, second, traced])
    assert first["missing_probes"] == [] and traced["missing_probes"] == []

    table = summarise([first, second], [0.5, 0.5, 0.5])
    assert list(table) == [x.name for x in metrics.END_TO_END]
    assert all(entry["value"] > 0 for entry in table.values())

    per_layer = traced["per_layer"]
    expected = {x.name for x in metrics.PER_LAYER} - {"trace.overhead_ratio"}
    assert set(per_layer) == expected
    assert all(value is not None for value in per_layer.values())
    spans = traced["spans"]
    assert spans[0]["name"] == "root" and spans[0]["parent"] is None
    assert all(s["parent"] is not None and s["end"] >= s["start"] for s in spans[1:])
    assert len({s["run"] for s in spans}) == 1


def test_check_verdicts_and_refusal():
    def result(total, spread=0.01, failed=0, sha="a"):
        table = {}
        for x in metrics.END_TO_END:
            table[x.name] = {"value": 1.0, "unit": x.unit, "spread": spread}
        table["total_s"]["value"] = total
        return {
            "meta": {"refkernel_sha256": sha, "ref_nominal_s": 0.5, "seed": 1,
                     "seconds": 30, "repeats": None, "workload_table": {}},
            "workloads": {"w": {"metrics": table, "simulated": {
                "ops_attempted": 100, "ops_failed": failed}}},
        }

    def verdicts(a, b):
        return {row["metric"]: row["verdict"] for row in check.compare(a, b)}

    assert set(verdicts(result(1.0), result(1.05)).values()) == {"same"}
    assert verdicts(result(1.0), result(1.5))["total_s"] == "worse"
    assert verdicts(result(1.0), result(0.5))["total_s"] == "better"
    assert verdicts(result(1.0), result(1.0, spread=0.5))["total_s"] == "unresolved"
    assert verdicts(result(1.0), result(1.0, failed=1))["ops_failed_share"] == "worse"
    with pytest.raises(check.NotComparable):
        check.compare(result(1.0), result(1.0, sha="b"))
