"""One workload cell: a fresh process that runs one workload once.

``python -m bench.cell --workload W --seed S [--trace]`` prints one JSON
line.  The orchestrator (``bench.run``) starts one cell at a time; each
inherits the orchestrator's one-CPU affinity, imports the program,
freezes the import-time heap out of the collector's reach and only then
starts the clock, so a cell's time is the entry call alone: build + wire
+ inject + drain + assemble.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time

from bench.layers import SRC_DIR


def import_program() -> float:
    """Put the program on the path and import its entry points."""
    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        raise SystemExit(f"bench: no program to measure at {SRC_DIR}/repro")
    started = time.perf_counter()
    if SRC_DIR not in sys.path:
        sys.path.insert(0, SRC_DIR)
    import repro.experiments.scenarios  # noqa: F401

    return time.perf_counter() - started


def run_cell(workload: str, seed: int, *, trace: bool = False, smoke: bool = False) -> dict:
    """Run one workload once in this process and return the cell record."""
    import_s = import_program()
    from bench.trace import TIMING_PROBES, Recorder, Tracer, phase_seconds
    from bench.workloads import WORKLOADS

    rec = Recorder(run_id=f"{workload}/{seed}/{os.getpid()}")
    for module, attr, name in TIMING_PROBES:
        rec.wrap(module, attr, name)
    tracer = None
    if trace:
        tracer = Tracer(rec)
        tracer.install()
    gc.collect()
    gc.freeze()
    try:
        root = rec.begin("root")
        if tracer is not None:
            tracer.start()
        try:
            outcome = WORKLOADS[workload].run(seed, smoke)
        finally:
            if tracer is not None:
                tracer.stop()
            rec.end(root)
    finally:
        rec.restore()
        gc.unfreeze()
    root_span = rec.spans[root]
    record = {
        "workload": workload,
        "seed": seed,
        "hash_seed": os.environ.get("PYTHONHASHSEED", "random"),
        "phases": phase_seconds(rec, root_span),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outcome": outcome,
        "missing_probes": rec.missing,
    }
    if tracer is not None:
        record["per_layer"] = tracer.per_layer(root_span, outcome, import_s)
        record["spans"] = rec.spans
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.cell")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    record = run_cell(args.workload, args.seed, trace=args.trace)
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()
    # Skip interpreter teardown: freeing a 30k-node heap object by object
    # is pure waiting that no metric covers.
    os._exit(0)


if __name__ == "__main__":
    main()
