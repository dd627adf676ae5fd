"""Distribution utilities: CDFs and percentile summaries.

Every figure in the paper is either a CDF (Figs. 2, 6, 7, 9, 13, 14) or a
percentile stack (Figs. 10, 11); :class:`CDF` and
:func:`percentile_summary` are their direct counterparts.  numpy is
imported by the functions that use it, so importing this module needs
only the standard library (DESIGN.md §17).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

#: The percentile set of the Figs. 10–11 stacked bars.
PAPER_PERCENTILES = (5, 25, 50, 75, 90)


@dataclass(frozen=True)
class CDF:
    """Empirical cumulative distribution of a sample."""

    values: tuple[float, ...]  # sorted sample

    @classmethod
    def of(cls, sample: Iterable[float]) -> "CDF":
        import numpy as np

        arr = np.sort(np.asarray(list(sample), dtype=float))
        return cls(tuple(arr.tolist()))

    def __len__(self) -> int:
        return len(self.values)

    @property
    def empty(self) -> bool:
        return not self.values

    def fraction_at_most(self, x: float) -> float:
        """P(X <= x): the y-value of the CDF plot at x."""
        if self.empty:
            return 0.0
        import numpy as np

        arr = np.asarray(self.values)
        return float(np.searchsorted(arr, x, side="right")) / len(arr)

    def percentile(self, q: float) -> float:
        """The q-th percentile (q in [0, 100])."""
        if self.empty:
            raise ValueError("percentile of an empty CDF")
        import numpy as np

        return float(np.percentile(np.asarray(self.values), q))

    @property
    def median(self) -> float:
        return self.percentile(50)

    @property
    def mean(self) -> float:
        if self.empty:
            raise ValueError("mean of an empty CDF")
        import numpy as np

        return float(np.mean(np.asarray(self.values)))

    @property
    def min(self) -> float:
        return self.values[0]

    @property
    def max(self) -> float:
        return self.values[-1]

    def series(self, points: Sequence[float]) -> list[tuple[float, float]]:
        """(x, P(X<=x)) pairs — the rows a CDF plot would consume."""
        return [(float(x), self.fraction_at_most(x)) for x in points]

    def summary(self) -> dict[str, float]:
        if self.empty:
            return {"n": 0}
        return {
            "n": len(self),
            "min": self.min,
            "p25": self.percentile(25),
            "median": self.median,
            "p75": self.percentile(75),
            "p90": self.percentile(90),
            "max": self.max,
            "mean": self.mean,
        }


def cdf_of(sample: Iterable[float]) -> CDF:
    """Shorthand constructor."""
    return CDF.of(sample)


def percentile_summary(
    sample: Iterable[float], percentiles: Sequence[int] = PAPER_PERCENTILES
) -> dict[int, float]:
    """The Figs. 10–11 stacked-bar values: one number per percentile."""
    import numpy as np

    arr = np.asarray(list(sample), dtype=float)
    if arr.size == 0:
        return {p: 0.0 for p in percentiles}
    values = np.percentile(arr, percentiles)
    return {p: float(v) for p, v in zip(percentiles, values)}


def rate_per_minute(event_times: Iterable[float], window: tuple[float, float]) -> float:
    """Events per minute inside a time window (Table I's rates).

    The window is **half-open**, ``[start, end)``: an event exactly at
    ``end`` belongs to the *next* window, so adjacent windows partition a
    timeline without double-counting boundary events.
    """
    start, end = window
    if end <= start:
        return 0.0
    inside = sum(1 for t in event_times if start <= t < end)
    return inside / ((end - start) / 60.0)
