"""Orchestrator: interleaved reference / workload cells, one at a time.

A *run* of one workload is ``R W R W ... R``: workload cells interleaved
with reference-kernel cells, each a fresh child process, started one
after the other by this single-threaded process (which pins itself, and
so its children, to one CPU).  The run lasts a fixed time budget; the
estimator (``bench.metrics``) turns the two series into reference
seconds.  The same function checks the outputs: every cell must report
identical simulated statistics (one cell runs under another
``PYTHONHASHSEED``), and delivery must reach the workload's floor.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import time

from bench import metrics as m
from bench.workloads import SIMULATED_FIELDS, WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT_DIR = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
REFKERNEL = os.path.join(BENCH_DIR, "refkernel.py")

#: A run never reports from fewer workload cells than this, whatever the
#: time budget says.
MIN_CELLS = 3
#: No child may run longer than this (a run must end within 180 s).
CHILD_TIMEOUT_S = 100


class BenchError(Exception):
    """The benchmark could not produce a result (a child failed)."""


def pin_to_last_cpu() -> None:
    """Keep the orchestrator and every child on one CPU (the last allowed
    one: CPU 0 takes most interrupts), so migrations add no spread."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _child(argv: list[str], hash_seed: str) -> dict:
    """Run one child to completion and parse its one JSON line."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    try:
        done = subprocess.run(
            [sys.executable, *argv], cwd=ROOT_DIR, env=env, timeout=CHILD_TIMEOUT_S,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {argv} exceeded {CHILD_TIMEOUT_S} s") from exc
    if done.returncode != 0:
        raise BenchError(f"child {argv} exited {done.returncode}:\n{done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def reference_cell() -> float:
    return _child([REFKERNEL], "0")["ref_s"]


def workload_cell(workload: str, seed: int, *, hash_seed: str = "0", trace: bool = False) -> dict:
    argv = ["-m", "bench.cell", "--workload", workload, "--seed", str(seed)]
    if trace:
        argv.append("--trace")
    cell = _child(argv, hash_seed)
    if cell["phases"] is None:
        raise BenchError(
            f"{workload}: timing probes saw nothing (missing: {cell['missing_probes']})"
        )
    return cell


def refkernel_sha256() -> str:
    with open(REFKERNEL, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def run_meta(seed: int, seconds: float, repeats: "int | None") -> dict:
    """What a result must agree on with another to be comparable."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "refkernel_sha256": refkernel_sha256(),
        "ref_nominal_s": m.REF_NOMINAL_S,
        "seed": seed,
        "seconds": seconds,
        "repeats": repeats,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "workload_table": {name: w.why for name, w in WORKLOADS.items()},
    }


def check_cells(workload: str, cells: list[dict]) -> list[str]:
    """The output checks of one run; returns the problems found."""
    problems = []
    first = cells[0]["outcome"]
    for index, cell in enumerate(cells[1:], start=1):
        for field in SIMULATED_FIELDS:
            if cell["outcome"][field] != first[field]:
                problems.append(
                    f"{field} differs between cell 0 (PYTHONHASHSEED="
                    f"{cells[0]['hash_seed']}) and cell {index} (PYTHONHASHSEED="
                    f"{cell['hash_seed']}): {first[field]!r} != {cell['outcome'][field]!r}"
                )
    spec = WORKLOADS[workload]
    if first["delivered_fraction"] < spec.min_delivered:
        problems.append(
            f"delivered_fraction {first['delivered_fraction']!r} below the "
            f"workload's floor {spec.min_delivered}"
        )
    if spec.needs_structure and first["structures_complete"] != first["structures"]:
        problems.append(
            f"{first['structures'] - first['structures_complete']} of "
            f"{first['structures']} streams ended without a complete acyclic structure"
        )
    return problems


def phase_series(cells: list[dict]) -> dict:
    return {
        phase: [cell["phases"][phase] for cell in cells]
        for phase in ("total", "setup", "drain")
    }


def summarise(cells: list[dict], refs: list[float]) -> dict:
    """End-to-end metrics of one run from its two series.  Host metrics
    carry the un-normalised lowhalf (``raw``), the estimate's expected
    rerun ``spread`` and ``noisy`` when that exceeds the metric's bound."""
    outcome = cells[0]["outcome"]
    series = phase_series(cells)
    rss = [cell["rss_mb"] for cell in cells]

    def timing(phase: str) -> tuple:
        return (
            m.ref_seconds(series[phase], refs),
            m.lowhalf(series[phase]),
            m.ref_seconds_spread(series[phase], refs),
        )

    drain_s, drain_raw, drain_spread = timing("drain")
    receptions = outcome["receptions"]
    host = {
        "total_s": timing("total"),
        "setup_s": timing("setup"),
        "rx_per_s": (receptions / drain_s, receptions / drain_raw, drain_spread),
        "peak_rss_mb": (max(rss), max(rss), m.spread(rss)),
    }
    table = {}
    for metric in m.END_TO_END:
        if metric.simulated:
            table[metric.name] = {"value": outcome[metric.name], "unit": metric.unit}
        else:
            value, raw, spread = host[metric.name]
            table[metric.name] = {
                "value": value, "unit": metric.unit, "raw": raw,
                "spread": spread, "noisy": spread > metric.bound,
            }
    return table


def run_workload(
    workload: str, seed: int, seconds: float, repeats: "int | None" = None, log=None
) -> dict:
    """One run: ``R W R W ... R`` until the budget (or ``repeats``) is
    used, then the metrics and the output checks."""
    started = time.perf_counter()
    deadline = started + seconds
    refs = [reference_cell()]
    cells = []
    while True:
        pair_started = time.perf_counter()
        # One cell of every run uses another hash seed: set and dict
        # iteration order of the program must not leak into its results.
        cells.append(workload_cell(workload, seed, hash_seed="123" if not cells else "0"))
        refs.append(reference_cell())
        now = time.perf_counter()
        if log is not None:
            log(f"  cell {len(cells)}: total {cells[-1]['phases']['total']:.3f} s, "
                f"reference {refs[-1]:.3f} s")
        if repeats is not None:
            if len(cells) >= repeats:
                break
        elif len(cells) >= MIN_CELLS and now + (now - pair_started) > deadline:
            break
    problems = check_cells(workload, cells)
    return {
        "cells": len(cells),
        "wall_s": time.perf_counter() - started,
        "metrics": summarise(cells, refs),
        "simulated": {field: cells[0]["outcome"][field] for field in SIMULATED_FIELDS},
        "reference_series": refs,
        "cell_series": phase_series(cells),
        "missing_probes": cells[0]["missing_probes"],
        "correct": not problems,
        "problems": problems,
    }


def traced_pass(workload: str, seed: int) -> dict:
    """One traced cell for the per-layer numbers, in a fresh child, next
    to one untraced cell that only supplies the overhead ratio's base."""
    plain = workload_cell(workload, seed)
    traced = workload_cell(workload, seed, hash_seed="123", trace=True)
    per_layer = traced["per_layer"]
    per_layer["trace.overhead_ratio"] = (
        traced["phases"]["total"] / plain["phases"]["total"]
    )
    problems = check_cells(workload, [plain, traced])
    total = traced["phases"]["total"]
    shares = {
        key[: -len(".self_s")]: value / total
        for key, value in per_layer.items()
        if key.endswith(".self_s")
    }
    report = {
        "workload": workload,
        "seed": seed,
        "traced_total_s": total,
        "untraced_total_s": plain["phases"]["total"],
        "layer_share": shares,
        "per_layer": per_layer,
        "missing_probes": traced["missing_probes"],
        "spans": traced["spans"],
        "correct": not problems,
        "problems": problems,
    }
    write_json(os.path.join(OUT_DIR, f"trace_{workload}.json"), report)
    return report


def write_json(path: str, data: dict) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")
