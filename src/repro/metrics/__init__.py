"""Analysis helpers over collected metrics.

NumPy-vectorized aggregation (CDFs, percentile summaries, per-node
bandwidth rates) plus structure-level distributions.  The hot path of
the simulation records into plain dicts (:mod:`repro.sim.monitor`); this
package converts once into arrays at analysis time — the profile-first,
vectorize-the-hot-aggregation workflow of the HPC guides.
"""

from repro.metrics.bandwidth import bandwidth_kbps, phase_bandwidth_summary
from repro.metrics.stats import (
    CDF,
    cdf_of,
    percentile_summary,
    rate_per_minute,
)
from repro.metrics.structure_analysis import (
    degree_distribution,
    depth_distribution,
)

__all__ = [
    "CDF",
    "bandwidth_kbps",
    "cdf_of",
    "degree_distribution",
    "depth_distribution",
    "percentile_summary",
    "phase_bandwidth_summary",
    "rate_per_minute",
]
