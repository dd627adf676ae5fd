"""ASCII rendering of experiment results, paper-style.

Every report (the artifact renderers in
:mod:`repro.experiments.scenarios`, the ablation and scale benches)
prints through these helpers so the rows look like the figures/tables
they reproduce: CDF summaries for the CDF figures,
percentile stacks for Figs. 10–11, and side-by-side our-vs-paper tables.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence

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


def comparison_rows(
    ours: Mapping[str, float],
    paper: Mapping[str, float],
    *,
    label: str = "metric",
    unit: str = "",
) -> str:
    """Side-by-side our-measured vs paper-published values."""
    headers = [label, f"ours {unit}".strip(), f"paper {unit}".strip(), "ratio"]
    rows = []
    for key in ours:
        p = paper.get(key)
        ratio = (ours[key] / p) if p else float("nan")
        rows.append([key, ours[key], p if p is not None else "-", ratio])
    return table(headers, rows)


def banner(title: str) -> str:
    line = "=" * max(60, len(title) + 4)
    return f"\n{line}\n  {title}\n{line}"


def ascii_cdf(
    cdf: CDF, *, width: int = 50, height: int = 10, label: str = ""
) -> str:
    """Tiny ASCII CDF plot for terminal inspection."""
    if cdf.empty:
        return f"{label}: (empty)"
    lo, hi = cdf.min, cdf.max
    span = (hi - lo) or 1.0
    lines = []
    for row in range(height, 0, -1):
        frac = row / height
        cells = []
        for col in range(width):
            x = lo + span * col / (width - 1)
            cells.append("#" if cdf.fraction_at_most(x) >= frac else " ")
        lines.append(f"{frac * 100:5.0f}% |" + "".join(cells))
    lines.append(" " * 7 + "+" + "-" * width)
    lines.append(f"{'':7}{lo:<12.4g}{'':{max(0, width - 24)}}{hi:>12.4g}")
    if label:
        lines.insert(0, label)
    return "\n".join(lines)
