"""Metric tables (mirrored in BENCHMARK.json) and the timing estimator.

Timing metrics are in *reference seconds*: host seconds divided by what
the frozen reference kernel (``bench/refkernel.py``) took in the same
run, times ``REF_NOMINAL_S`` — seconds on a host where the reference
kernel takes exactly ``REF_NOMINAL_S``.  README, "Why reference seconds".
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

from bench.layers import LAYERS

#: What the reference kernel takes on the 2-vCPU host the benchmark was
#: defined on, so reference seconds read like that host's seconds.
REF_NOMINAL_S = 1.0


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Share of the baseline by which the metric may worsen (end-to-end
    #: metrics only; per-layer metrics carry no bound).
    bound: float = 0.0
    #: Simulated statistics repeat exactly for one seed; the others are
    #: host measurements (noisy; the timings are reference-normalised).
    simulated: bool = True
    doc: str = ""


END_TO_END = (
    Metric("total_s", "s", "lower", 0.25, simulated=False,
           doc="entry call -> result returned: build + wire + inject + drain + assemble"),
    Metric("setup_s", "s", "lower", 0.25, simulated=False,
           doc="entry call -> first ScaleRunner.schedule; under churn, time inside "
               "build_brisa_testbed (simulated join ramp + settle)"),
    Metric("rx_per_s", "1/s", "higher", 0.20, simulated=False,
           doc="data receptions (first deliveries + duplicates, exact) / drain seconds"),
    Metric("peak_rss_mb", "MiB", "lower", 0.05, simulated=False,
           doc="max ru_maxrss over the workload cells"),
    Metric("delivered_fraction", "ratio", "higher", 0.15,
           doc="deliveries / expected (stream, seq, live receiver) pairs"),
    Metric("rx_per_delivery", "ratio", "lower", 0.25,
           doc="data receptions / first deliveries = 1 + Fig. 2's duplicates per delivery"),
    Metric("sim_span_s", "sim-s", "lower", 0.25,
           doc="simulated seconds from first injection to idle (Table II's quantity)"),
)

_SPANS = ("import", "topology", "spawn", "wire", "rows", "ramp", "schedule",
          "drain", "assemble")
_COUNTERS = (
    ("engine.events", "count", "lower"),
    ("engine.heap_pushes", "count", "lower"),
    ("engine.peak_pending", "count", "lower"),
    ("engine.pool_size", "count", "lower"),
    ("engine.batch_claims", "count", "lower"),
    ("network.sends", "count", "lower"),
    ("network.bytes_sent", "bytes", "lower"),
    ("network.dropped_loss", "count", "lower"),
    ("network.dropped_crash", "count", "lower"),
    ("latency.samples", "count", "lower"),
    ("monitor.msgs_data", "count", "lower"),
    ("monitor.msgs_control", "count", "lower"),
    ("monitor.msgs_membership", "count", "lower"),
    ("flood_vectorized.waves", "count", "lower"),
    ("flood_vectorized.rx_per_wave", "count", "higher"),
    ("brisa.receptions", "count", "lower"),
    ("brisa.useful_ratio", "ratio", "higher"),
    ("brisa.parents_lost", "count", "lower"),
    ("brisa.orphans", "count", "lower"),
    ("brisa.repairs_soft", "count", "higher"),
    ("brisa.repairs_hard", "count", "lower"),
    ("brisa.retransmit_requests", "count", "lower"),
    ("brisa.cycles_detected", "count", "lower"),
    ("hyparview.joins", "count", "lower"),
    ("churn.kills", "count", "higher"),
    ("churn.joins", "count", "higher"),
    ("structure.complete_streams", "count", "higher"),
    ("gc.collections_gen2", "count", "lower"),
    ("gc.pause_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

PER_LAYER = tuple(
    [Metric(f"{layer}.{leaf}", unit, "lower")
     for layer in LAYERS for leaf, unit in (("self_s", "s"), ("calls", "count"))]
    + [Metric(f"span.{name}_s", "s", "lower") for name in _SPANS]
    + [Metric(name, unit, better) for name, unit, better in _COUNTERS]
)


def lowhalf(values) -> float:
    """Mean of the lower half of the samples (the lower ``ceil(n/2)``).

    Host noise on a shared VM only ever *adds* time, in spikes; the lower
    half is the part of the sample the spikes missed, and its mean moves
    less between runs than the median or the minimum do."""
    ordered = sorted(values)
    keep = ordered[: math.ceil(len(ordered) / 2)]
    return sum(keep) / len(keep)


def ref_seconds(cell_values, ref_values) -> float:
    """Reference seconds of a series of cell timings given the reference
    kernel timings interleaved with them."""
    return lowhalf(cell_values) / lowhalf(ref_values) * REF_NOMINAL_S


def ref_seconds_spread(cell_values, ref_values) -> float:
    """How far :func:`ref_seconds` of this run is expected to move on a
    rerun, as IQR / value — comparable with a metric's bound and with the
    spread a set of runs shows.

    Leave-one-cell-out jackknife over the series ``R W R W ... R`` (cell
    ``i`` leaves together with the reference cell after it); 1.349 standard
    errors are the interquartile range of a normal estimate.  The spread of
    the per-cell samples themselves is no guide: on a busy host it is 20-35 %
    while the estimate, which discards the slow half, repeats within 2-10 %.
    It sees sampling noise only — not a host that stays slow in a way the
    reference kernel does not feel — and on recorded runs came out at about
    two thirds of the spread observed between runs."""
    count = len(cell_values)
    if count < 2:
        return 0.0
    replicates = [
        ref_seconds(
            cell_values[:i] + cell_values[i + 1:],
            ref_values[:i + 1] + ref_values[i + 2:],
        )
        for i in range(count)
    ]
    mean = sum(replicates) / count
    variance = (count - 1) / count * sum((x - mean) ** 2 for x in replicates)
    return 1.349 * math.sqrt(variance) / ref_seconds(cell_values, ref_values)


def spread(values) -> float:
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
