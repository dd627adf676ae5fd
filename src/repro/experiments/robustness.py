"""Robustness scenarios: Table I and Fig. 14 (§III-C, §III-D).

Both run the Listing-1 churn workload: bootstrap, stabilize, then X% of
the population fails and is replaced every period while a stream is being
disseminated.  Table I aggregates parent losses, orphans and repair kinds
for BRISA trees vs DAGs; Fig. 14 compares the hard-repair recovery delay
of BRISA against TAG's list re-insertion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.config import BrisaConfig, HyParViewConfig, StreamConfig, TagConfig
from repro.experiments.common import Testbed, build_brisa_testbed, build_tag_testbed
from repro.experiments.scale import Scale, get_scale
from repro.metrics.stats import CDF, rate_per_minute
from repro.sim.churn import ChurnDriver
from repro.sim.trace import ConstChurn, SetReplacementRatio, Stop, Trace


@dataclass
class Table1Row:
    nodes: int
    churn_percent: float
    mode: str
    parents_lost_per_min: float
    orphans_per_min: float
    soft_repair_pct: float
    hard_repair_pct: float
    kills: int
    joins: int


@dataclass
class Table1Result:
    rows: dict[tuple[int, float, str], Table1Row] = field(default_factory=dict)
    churn_window: float = 0.0


def _run_churn(
    bed: Testbed,
    source,
    *,
    churn_percent: float,
    duration: float,
    period: float,
    lead: float = 10.0,
    drain: float = 15.0,
) -> tuple[float, float, ChurnDriver]:
    """Start a continuous stream, apply Listing-1 churn, return the churn
    window (start, end) and the driver."""
    rate = 5.0
    total_secs = lead + duration + drain
    stream = StreamConfig(count=int(math.ceil(rate * total_secs)), rate=rate, payload_bytes=1024)
    bed.start_stream(source, stream)
    bed.sim.run(until=bed.sim.now + lead)

    start = bed.sim.now
    end = start + duration
    # Per-period percentage keeps the paper's per-minute churn rate even
    # when the fast scale shortens the period.
    per_period = churn_percent * period / 60.0
    trace = Trace(
        (
            SetReplacementRatio(start, 1.0),
            ConstChurn(start, end, per_period, period),
            Stop(end),
        )
    )
    driver = ChurnDriver(
        bed.sim, bed.network, trace, bed.spawn_joiner, protected={source.node_id}
    )
    driver.apply()
    bed.sim.run(until=end + drain)
    return start, end, driver


def table1_churn(
    scale: Scale | str | None = None,
    *,
    seed: int = 6,
    populations: tuple[int, ...] | None = None,
    churn_rates: tuple[float, ...] = (3.0, 5.0),
) -> Table1Result:
    """Table I: parents lost/min, orphans/min, % soft and % hard repairs
    for tree vs 2-parent DAG under 3%/5% per-minute churn."""
    sc = scale if isinstance(scale, Scale) else get_scale(scale)
    if populations is None:
        populations = (sc.small_nodes, sc.cluster_nodes)
    result = Table1Result(churn_window=sc.churn_duration)
    for n in populations:
        for pct in churn_rates:
            for mode, parents in (("tree", 1), ("dag", 2)):
                cfg = BrisaConfig(
                    mode=mode,
                    num_parents=parents,
                    cycle_predictor=BrisaConfig.default_predictor(mode),
                )
                bed = build_brisa_testbed(
                    n,
                    seed=seed + n + int(pct),
                    config=cfg,
                    hpv_config=HyParViewConfig(active_size=4),
                    join_spacing=sc.join_spacing,
                    settle=sc.settle,
                    record_deliveries=False,
                )
                source = bed.choose_source()
                start, end, driver = _run_churn(
                    bed,
                    source,
                    churn_percent=pct,
                    duration=sc.churn_duration,
                    period=sc.churn_period,
                )
                window = (start, end)
                m = bed.metrics
                lost = rate_per_minute((t for t, _ in m.parent_losses), window)
                orphans = rate_per_minute((t for t, _ in m.orphan_events), window)
                repairs = [r for r in m.repair_events if start <= r.time < end]
                soft = sum(1 for r in repairs if r.kind == "soft")
                hard = sum(1 for r in repairs if r.kind == "hard")
                total = soft + hard
                result.rows[(n, pct, mode)] = Table1Row(
                    nodes=n,
                    churn_percent=pct,
                    mode=mode,
                    parents_lost_per_min=lost,
                    orphans_per_min=orphans,
                    soft_repair_pct=100.0 * soft / total if total else 100.0,
                    hard_repair_pct=100.0 * hard / total if total else 0.0,
                    kills=driver.stats.kills,
                    joins=driver.stats.joins,
                )
    return result


# ----------------------------------------------------------------------
# Fig. 14 — parent recovery delay, BRISA vs TAG, 3% churn, 128 nodes
# ----------------------------------------------------------------------
@dataclass
class Fig14Result:
    """Per-protocol CDFs of recovery delay in seconds."""

    hard: dict[str, CDF] = field(default_factory=dict)
    soft: dict[str, CDF] = field(default_factory=dict)
    hard_repair_counts: dict[str, int] = field(default_factory=dict)
    churn_percent: float = 0.0


def fig14_recovery(scale: Scale | str | None = None, *, seed: int = 7) -> Fig14Result:
    """Hard-repair recovery delays under continuous churn: BRISA's
    flooding fallback vs TAG's list re-insertion (Fig. 14).

    The paper rung churns at the paper's 3 %/min.  The smaller rungs
    have shorter churn windows and churn at 6 %/min, for more repair
    samples per CDF."""
    sc = scale if isinstance(scale, Scale) else get_scale(scale)
    n = sc.small_nodes
    churn_percent = 3.0 if sc.name == "paper" else 6.0
    result = Fig14Result(churn_percent=churn_percent)

    # --- BRISA tree, view 4 -------------------------------------------
    bed = build_brisa_testbed(
        n,
        seed=seed,
        config=BrisaConfig(),
        hpv_config=HyParViewConfig(active_size=4),
        join_spacing=sc.join_spacing,
        settle=sc.settle,
        record_deliveries=False,
    )
    source = bed.choose_source()
    start, end, _ = _run_churn(
        bed, source, churn_percent=churn_percent,
        duration=sc.churn_duration, period=sc.churn_period,
    )
    repairs = [r for r in bed.metrics.repair_events if start <= r.time < end]
    result.hard["BRISA tree"] = CDF.of(r.duration for r in repairs if r.kind == "hard")
    result.soft["BRISA tree"] = CDF.of(r.duration for r in repairs if r.kind == "soft")
    result.hard_repair_counts["BRISA tree"] = len(result.hard["BRISA tree"])

    # --- TAG ------------------------------------------------------------
    bed, tracker = build_tag_testbed(
        n,
        seed=seed,
        tag_config=TagConfig(min_parent_age=min(3.0, sc.settle / 4)),
        join_spacing=sc.join_spacing,
        settle=sc.settle,
        record_deliveries=False,
    )
    root = bed.nodes[0]
    start, end, _ = _run_churn(
        bed, root, churn_percent=churn_percent,
        duration=sc.churn_duration, period=sc.churn_period,
    )
    repairs = [r for r in bed.metrics.repair_events if start <= r.time < end]
    result.hard["TAG"] = CDF.of(r.duration for r in repairs if r.kind == "hard")
    result.soft["TAG"] = CDF.of(r.duration for r in repairs if r.kind == "soft")
    result.hard_repair_counts["TAG"] = len(result.hard["TAG"])
    return result
