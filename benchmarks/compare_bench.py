#!/usr/bin/env python3
"""Diff a bench run's BENCH_*.json and reports against the committed
baselines.

The benchmarks write their results to the git-ignored
``benchmarks/run/`` (``BENCH_*.json`` plus the reports); the committed
copies in ``benchmarks/out/`` are the baselines the ROADMAP's perf
trajectory is measured against, and no test run touches them.  This
script fails (exit 1) when any *gated* metric of a candidate run
regresses by more than the tolerance against its baseline, or when a
report both directories hold differs by a byte — the ``bench-compare``
CI job runs it on every PR with the job's freshly produced artifacts,
and it is equally runnable locally:

    python benchmarks/compare_bench.py                       # benchmarks/run vs benchmarks/out
    python benchmarks/compare_bench.py --candidate ./artifacts --tolerance 0.30
    python benchmarks/compare_bench.py --accept              # promote the run to the baseline

Gated metrics are deliberately machine-portable: deterministic
simulation outputs (event counts, delivery counts/fractions, duplicate
rates, structure completeness) at the default 30% tolerance.  Nothing
wall-clock is gated here — two timings of one process compare hosts and
neighbours, not code; speed is judged by ``python3 -m bench run`` /
``bench check``.  The reports are simulated outcomes too, so they must
match exactly; the ``scale_*`` reports are not diffed, because they
print wall-clock lines.

Stdlib-only on purpose — CI runs it without installing anything.
"""

from __future__ import annotations

import argparse
import itertools
import json
import pathlib
import shutil
import sys

BENCH_DIR = pathlib.Path(__file__).parent

#: file -> (dotted metric path, direction).  Direction 'higher' means
#: bigger is better; 'lower' the opposite.
GATED_METRICS: dict[str, list[tuple[str, str]]] = {
    "BENCH_scale.json": [
        ("scale_run.delivered_fraction", "higher"),
        ("scale_run.deliveries", "higher"),
        ("scale_run.events", "lower"),
        ("multistream.delivered_fraction", "higher"),
        ("multistream.deliveries", "higher"),
        ("churn.delivered_fraction", "higher"),
        ("churn.deliveries", "higher"),
        ("churn.events", "lower"),
        ("xxl.delivered_fraction", "higher"),
        ("xxl.events", "lower"),
        ("xxl_churn.delivered_fraction", "higher"),
        ("xxxl.delivered_fraction", "higher"),
        ("xxxl.events", "lower"),
        # Scenario-diversity family (DESIGN.md §14): per topology class,
        # lossless delivery plus the 2%-loss response.  relay_spread is a
        # deterministic property of the synthesized overlay, gated so
        # builder drift (a flattened tail) shows up as a regression.
        ("topology.uniform.delivered_fraction", "higher"),
        ("topology.powerlaw.delivered_fraction", "higher"),
        ("topology.smallworld.delivered_fraction", "higher"),
        ("topology.powerlaw.duplicate_overhead", "lower"),
        ("topology.powerlaw.relay_spread", "lower"),
        ("loss.uniform_l2.delivered_fraction", "higher"),
        ("loss.powerlaw_l2.delivered_fraction", "higher"),
        ("loss.smallworld_l2.delivered_fraction", "higher"),
        ("loss.powerlaw_l2.dropped_loss", "lower"),
    ],
    "BENCH_scale_brisa.json": [
        ("scale_run.delivered_fraction", "higher"),
        ("scale_run.duplicates_per_node", "lower"),
        ("scale_run.events", "lower"),
        ("scale_run.structure_complete", "higher"),
        ("multistream.delivered_fraction", "higher"),
        ("multistream.structure_complete", "higher"),
        ("xxl.delivered_fraction", "higher"),
        ("xxl_slotted.delivered_fraction", "higher"),
        ("xxl_slotted.structure_complete", "higher"),
    ],
}


def lookup(payload: dict, dotted: str):
    """Resolve a dotted path, or None when any segment is missing."""
    value = payload
    for part in dotted.split("."):
        if not isinstance(value, dict) or part not in value:
            return None
        value = value[part]
    if isinstance(value, bool):
        return float(value)
    return value


def compare_file(
    name: str,
    baseline_path: pathlib.Path,
    candidate_path: pathlib.Path,
    tolerance: float,
) -> tuple[list[str], list[str]]:
    """Return (regressions, notes) for one benchmark file."""
    regressions: list[str] = []
    notes: list[str] = []
    if not baseline_path.exists():
        notes.append(f"{name}: no committed baseline — skipped")
        return regressions, notes
    if not candidate_path.exists():
        # A missing candidate usually means the producing job failed
        # before writing artifacts; the tier-1 job already reports that.
        notes.append(f"{name}: no candidate artifact — skipped")
        return regressions, notes
    baseline = json.loads(baseline_path.read_text())
    candidate = json.loads(candidate_path.read_text())
    for dotted, direction in GATED_METRICS[name]:
        base = lookup(baseline, dotted)
        cand = lookup(candidate, dotted)
        if base is None and cand is not None:
            # The metric exists only in the candidate: a PR adding a
            # bench entry its (older) committed baseline cannot know
            # about.  Informational, never a failure — the entry becomes
            # gated once the new baseline is committed.
            notes.append(f"info {name}: {dotted} candidate={cand:g} "
                         f"(new metric, no baseline — informational)")
            continue
        if base is None or cand is None:
            # e.g. the xxl entry exists only in nightly artifacts.
            notes.append(f"{name}: {dotted} absent from "
                         f"{'baseline' if base is None else 'candidate'} — skipped")
            continue
        if direction == "higher":
            floor = base * (1.0 - tolerance)
            ok = cand >= floor
            bound = f">= {floor:g}"
        else:
            ceiling = base * (1.0 + tolerance)
            ok = cand <= ceiling
            bound = f"<= {ceiling:g}"
        line = (f"{name}: {dotted} baseline={base:g} candidate={cand:g} "
                f"(required {bound})")
        if ok:
            notes.append("ok   " + line)
        else:
            regressions.append("FAIL " + line)
    return regressions, notes


def compare_reports(
    baseline: pathlib.Path, candidate: pathlib.Path
) -> tuple[list[str], list[str]]:
    """Return (differences, notes) over the reports either directory
    holds: every file but the BENCH_*.json and the ``scale_*`` reports.
    A report only one side has is skipped (a CI tier that does not run
    its bench); one that differs names its first differing line."""
    differences: list[str] = []
    notes: list[str] = []
    names = {
        path.name
        for directory in (baseline, candidate) if directory.is_dir()
        for path in directory.iterdir() if path.is_file()
    }
    for name in sorted(names):
        if name in GATED_METRICS or name.startswith("scale_"):
            continue
        base, cand = baseline / name, candidate / name
        if not (base.exists() and cand.exists()):
            notes.append(f"{name}: no {'candidate' if base.exists() else 'baseline'} "
                         "report — skipped")
            continue
        # surrogateescape decodes any bytes losslessly: equal text is
        # equal bytes.
        old_text, new_text = (
            path.read_bytes().decode(errors="surrogateescape") for path in (base, cand)
        )
        if old_text == new_text:
            notes.append(f"ok   {name}: identical")
            continue
        pairs = itertools.zip_longest(
            old_text.splitlines(keepends=True), new_text.splitlines(keepends=True)
        )
        line, (old, new) = next(
            (i, pair) for i, pair in enumerate(pairs, 1) if pair[0] != pair[1]
        )
        differences.append(f"FAIL {name}: line {line} differs: "
                           f"baseline {old!r} candidate {new!r}")
    return differences, notes


def accept(candidate: pathlib.Path, baseline: pathlib.Path) -> None:
    """Promote a run's artifacts to the committed baselines: the one
    way ``benchmarks/out/`` changes.  BENCH_*.json files are merged key
    by key (a per-push run holds no nightly-only entries and must not
    erase the committed ones); every other file is copied over."""
    baseline.mkdir(exist_ok=True)
    for path in sorted(p for p in candidate.iterdir() if p.is_file()):
        target = baseline / path.name
        if path.name in GATED_METRICS and target.exists():
            data = json.loads(target.read_text())
            data.update(json.loads(path.read_text()))
            target.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        else:
            shutil.copyfile(path, target)
        print(f"accepted {path.name}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="fail on >tolerance regression of any gated benchmark metric"
    )
    parser.add_argument(
        "--candidate", type=pathlib.Path, default=BENCH_DIR / "run",
        help="directory holding the freshly produced BENCH_*.json artifacts "
             "(default: benchmarks/run, where the benchmarks write)",
    )
    parser.add_argument(
        "--accept", action="store_true",
        help="compare, and when no gated metric regressed copy the "
             "candidate's files over the baselines (BENCH_*.json merged "
             "key by key), differing reports included",
    )
    parser.add_argument(
        "--prune", nargs=2, action="append", metavar=("DIR", "KEYS"),
        help="strip the comma-separated top-level entries KEYS from "
             "BENCH_*.json in DIR and exit, for bench families a CI tier "
             "does not re-measure: a run directory left over from a "
             "nightly run would otherwise pass them on through the "
             "merge-write (e.g. --prune benchmarks/run xxl,xxxl)",
    )
    parser.add_argument(
        "--baseline", type=pathlib.Path,
        default=BENCH_DIR / "out",
        help="directory of committed baselines (default: benchmarks/out)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.30,
        help="allowed relative regression for deterministic metrics (default 0.30)",
    )
    args = parser.parse_args(argv)

    if args.prune:
        for directory, keys in args.prune:
            for name in sorted(GATED_METRICS):
                path = pathlib.Path(directory) / name
                if not path.exists():
                    continue
                data = json.loads(path.read_text())
                pruned = [key for key in keys.split(",") if data.pop(key, None) is not None]
                if pruned:
                    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
                    print(f"{name}: pruned stale {', '.join(pruned)} entr{'y' if len(pruned) == 1 else 'ies'}")
        return 0
    if not args.candidate.is_dir():
        parser.error(f"candidate directory {args.candidate} does not exist")

    all_regressions: list[str] = []
    for name in sorted(GATED_METRICS):
        regressions, notes = compare_file(
            name, args.baseline / name, args.candidate / name, args.tolerance
        )
        for line in notes:
            print(line)
        for line in regressions:
            print(line)
        all_regressions.extend(regressions)
    differences, notes = compare_reports(args.baseline, args.candidate)
    for line in notes + differences:
        print(line)
    if all_regressions:
        print(f"\n{len(all_regressions)} gated metric(s) regressed beyond tolerance")
        return 1
    print("\nall gated metrics within tolerance")
    if args.accept:
        accept(args.candidate, args.baseline)
        return 0
    if differences:
        print(f"{len(differences)} report(s) differ from the baseline "
              "(--accept promotes an intended change)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
