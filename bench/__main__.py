"""``python -m bench`` — run, trace or compare the benchmark.

    python -m bench run [--workload W] [--seed 1] [--seconds S | --repeats K]
                        [--trace 0|1] [--json bench/out/result.json]
    python -m bench trace [--workload W] [--seed 1]
    python -m bench check A.json B.json

``run`` prints every metric by name with its unit and checks the outputs;
with one ``--workload`` its last line is the JSON object BENCHMARK.json's
driver reads (end-to-end metrics with ``--trace 0``, per-layer metrics
from one traced pass with ``--trace 1``).  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from bench import check, run
from bench import metrics as m
from bench.workloads import WORKLOADS

#: Printed for a per-layer metric whose source the program no longer has
#: (the trace file holds ``null``): the contract line needs a number, and
#: 0 would read as "measured, nothing happened".
ABSENT = -1


def _run_seconds_default() -> float:
    with open(os.path.join(run.ROOT_DIR, "BENCHMARK.json")) as handle:
        return float(json.load(handle)["run_seconds"])


def _print_metrics(table: dict) -> None:
    for name, entry in table.items():
        extra = ""
        if "spread" in entry:
            extra = f"   spread {entry['spread'] * 100:.1f}%"
            if entry.get("noisy"):
                extra += " NOISY"
        print(f"  {name:<32}{entry['value']:>16.6f} {entry['unit']}{extra}")


def _contract_line(correct: bool, cells: int, table: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": cells,
        "failed": 0 if correct else cells,
        "metrics": {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in table.items()
        },
    })


def cmd_run(names: list, args) -> int:
    seconds = args.seconds if args.seconds is not None else _run_seconds_default()
    result = {"meta": run.run_meta(args.seed, seconds, args.repeats), "workloads": {}}
    line = None
    for name in names:
        print(f"{name} (seed {args.seed})")
        outcome = run.run_workload(name, args.seed, seconds, args.repeats, log=print)
        result["workloads"][name] = outcome
        print(f"  {outcome['cells']} cells in {outcome['wall_s']:.1f} s")
        _print_metrics(outcome["metrics"])
        for field in ("ops_attempted", "ops_failed", "events", "peak_pending"):
            print(f"  {field:<32}{outcome['simulated'][field]:>16} count")
        for problem in outcome["problems"]:
            print(f"  FAILED: {problem}")
        line = _contract_line(outcome["correct"], outcome["cells"], outcome["metrics"])
    run.write_json(args.json, result)
    print(f"result written to {os.path.relpath(args.json)}")
    if len(names) == 1:
        print(line)
    return 0 if all(w["correct"] for w in result["workloads"].values()) else 1


def cmd_trace(names: list, args) -> int:
    line = None
    ok = True
    for name in names:
        print(f"{name} (seed {args.seed}, traced)")
        report = run.traced_pass(name, args.seed)
        ok = ok and report["correct"]
        table = {}
        for metric in m.PER_LAYER:
            value = report["per_layer"][metric.name]
            table[metric.name] = {
                "value": ABSENT if value is None else value, "unit": metric.unit,
            }
        _print_metrics(table)
        shares = sorted(report["layer_share"].items(), key=lambda kv: -kv[1])
        print("  layer shares of the traced total: " + ", ".join(
            f"{layer} {share * 100:.1f}%" for layer, share in shares if share >= 0.005
        ))
        for probe in report["missing_probes"]:
            print(f"  missing probe: {probe}")
        for problem in report["problems"]:
            print(f"  FAILED: {problem}")
        line = _contract_line(report["correct"], 2, table)
    if len(names) == 1:
        print(line)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "trace"):
        p = sub.add_parser(name)
        p.add_argument("--workload", choices=list(WORKLOADS))
        p.add_argument("--seed", type=int, default=1)
        if name == "run":
            p.add_argument("--seconds", type=float,
                           help="time budget of one run (default: BENCHMARK.json run_seconds)")
            p.add_argument("--repeats", type=int,
                           help="run exactly this many workload cells instead of a time budget")
            p.add_argument("--trace", type=int, choices=(0, 1), default=0)
            p.add_argument("--json", default=os.path.join(run.OUT_DIR, "result.json"))
    p = sub.add_parser("check")
    p.add_argument("a")
    p.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "check":
        return check.main(args.a, args.b)
    if not os.path.isdir(os.path.join(run.ROOT_DIR, "src", "repro")):
        print("bench: no program to measure (src/repro is missing)", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    traced = args.command == "trace" or args.trace
    run.pin_to_last_cpu()
    try:
        return cmd_trace(names, args) if traced else cmd_run(names, args)
    except run.BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
