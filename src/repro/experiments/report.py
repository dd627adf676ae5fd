"""ASCII rendering of experiment results, paper-style.

Every report (the artifact renderers in
:mod:`repro.experiments.scenarios`, the ablation and scale benches)
prints through these helpers so the rows look like the figures/tables
they reproduce: CDF summaries for the CDF figures,
percentile stacks for Figs. 10–11, and side-by-side our-vs-paper tables.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.metrics.stats import CDF


def table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Plain fixed-width table."""
    str_rows = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "  "
    out = [sep.join(h.ljust(w) for h, w in zip(headers, widths))]
    out.append(sep.join("-" * w for w in widths))
    for row in str_rows:
        out.append(sep.join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(out)


def overhead_percent(fraction: float) -> str:
    """A relative overhead as a signed whole percent: ``0.88`` -> ``+88%``.
    Rounds first, so a negative zero or a sub-percent deficit reads
    ``+0%``."""
    return f"{round(fraction * 100):+d}%"


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.1f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)


def cdf_rows(series: Mapping[str, CDF]) -> str:
    """One row per series: the summary stats a CDF plot would show."""
    headers = ["series", "n", "min", "p25", "median", "p75", "p90", "max", "mean"]
    rows = []
    for label, cdf in series.items():
        s = cdf.summary()
        if s.get("n", 0) == 0:
            rows.append([label, 0, "-", "-", "-", "-", "-", "-", "-"])
        else:
            rows.append(
                [
                    label,
                    s["n"],
                    s["min"],
                    s["p25"],
                    s["median"],
                    s["p75"],
                    s["p90"],
                    s["max"],
                    s["mean"],
                ]
            )
    return table(headers, rows)


def percentile_rows(
    data: Mapping[str, Mapping[int, float]], unit: str = "KB/s"
) -> str:
    """Figs. 10–11 style: one row per configuration, one column per
    percentile of the stacked bars."""
    percentiles = sorted({p for d in data.values() for p in d})
    headers = ["configuration"] + [f"p{p} ({unit})" for p in percentiles]
    rows = [
        [label] + [d.get(p, 0.0) for p in percentiles] for label, d in data.items()
    ]
    return table(headers, rows)


def banner(title: str) -> str:
    line = "=" * max(60, len(title) + 4)
    return f"\n{line}\n  {title}\n{line}"
