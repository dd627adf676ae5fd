"""``python -m bench check A.json B.json``: is B worse than A?

One row per (workload, metric).  Host metrics (timing, memory) get the
bound of ``bench.metrics.END_TO_END`` and are *unresolved* — not "same" —
when the within-run spread of either side exceeds that bound.  Simulated
statistics were taken at the same seed, so they are compared exactly:
any move in the worse direction is ``worse``.
"""

from __future__ import annotations

import json

from bench.metrics import END_TO_END

#: Two results are comparable only if they agree on all of these.
COMPARABLE_KEYS = (
    "refkernel_sha256", "ref_nominal_s", "seed", "seconds", "repeats",
    "workload_table",
)


class NotComparable(Exception):
    pass


def worsening(metric, a: float, b: float) -> float:
    """Relative move of ``b`` against ``a`` in the worse direction
    (negative = improved)."""
    change = (b - a) / abs(a) if a else float(b != a)
    return change if metric.better == "lower" else -change


def compare(a: dict, b: dict) -> list[dict]:
    """Rows of the comparison; raises :class:`NotComparable`."""
    for key in COMPARABLE_KEYS:
        if a["meta"].get(key) != b["meta"].get(key):
            raise NotComparable(
                f"results differ in {key}: {a['meta'].get(key)!r} vs {b['meta'].get(key)!r}"
            )
    if set(a["workloads"]) != set(b["workloads"]):
        raise NotComparable("results cover different workloads")
    rows = []
    for workload in a["workloads"]:
        side_a, side_b = a["workloads"][workload], b["workloads"][workload]
        for metric in END_TO_END:
            ma, mb = side_a["metrics"][metric.name], side_b["metrics"][metric.name]
            delta = worsening(metric, ma["value"], mb["value"])
            if metric.simulated:
                bound, noise = 0.0, 0.0
                verdict = "worse" if delta > 0 else "better" if delta < 0 else "same"
            else:
                bound, noise = metric.bound, max(ma["spread"], mb["spread"])
                if noise > bound:
                    verdict = "unresolved"
                elif delta > bound:
                    verdict = "worse"
                elif delta < -bound:
                    verdict = "better"
                else:
                    verdict = "same"
            rows.append({
                "workload": workload, "metric": metric.name, "unit": metric.unit,
                "a": ma["value"], "b": mb["value"], "delta": delta,
                "bound": bound, "spread": noise, "verdict": verdict,
            })
        # The share of failed operations may not rise.
        share_a, share_b = (
            side["simulated"]["ops_failed"] / side["simulated"]["ops_attempted"]
            for side in (side_a, side_b)
        )
        rows.append({
            "workload": workload, "metric": "ops_failed_share", "unit": "ratio",
            "a": share_a, "b": share_b, "delta": share_b - share_a, "bound": 0.0,
            "spread": 0.0,
            "verdict": "worse" if share_b > share_a else "better" if share_b < share_a else "same",
        })
    return rows


def main(path_a: str, path_b: str) -> int:
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    try:
        rows = compare(a, b)
    except NotComparable as exc:
        print(f"bench check: refusing to compare: {exc}")
        return 2
    header = f"{'workload':<30}{'metric':<20}{'A':>14}{'B':>14}{'delta':>9}{'bound':>8}{'spread':>8}  verdict"
    print(header)
    for row in rows:
        print(
            f"{row['workload']:<30}{row['metric']:<20}{row['a']:>14.6g}{row['b']:>14.6g}"
            f"{row['delta'] * 100:>8.2f}%{row['bound'] * 100:>7.1f}%"
            f"{row['spread'] * 100:>7.2f}%  {row['verdict']}"
        )
    bad = [row for row in rows if row["verdict"] in ("worse", "unresolved")]
    print(f"{len(rows)} rows, {len(bad)} worse or unresolved")
    return 1 if bad else 0
