#!/usr/bin/env python
"""News-feed dissemination under churn (the paper's §I motivation).

A publisher pushes a news feed to subscribers that continuously come and
go (5%/min churn, Listing-1 style).  A 2-parent BRISA DAG keeps delivery
uninterrupted: parent failures are masked by the second parent, repairs
are almost always soft, and missed items are recovered from the new
parent's buffer.

Run:  python examples/news_feed_churn.py
(REPRO_EXAMPLE_TINY=1 shrinks the population for smoke tests.)
"""

import math
import os

from repro.config import BrisaConfig, HyParViewConfig, StreamConfig
from repro.experiments.common import build_brisa_testbed
from repro.experiments.report import banner, table
from repro.metrics.stats import rate_per_minute
from repro.sim.churn import ChurnDriver
from repro.sim.trace import ConstChurn, SetReplacementRatio, Stop, Trace

TINY = bool(os.environ.get("REPRO_EXAMPLE_TINY"))
N = 32 if TINY else 96
CHURN_PCT_PER_MIN = 5.0
CHURN_SECONDS = 30.0 if TINY else 120.0
RATE = 5.0  # news items per second


def main() -> None:
    cfg = BrisaConfig(mode="dag", num_parents=2)
    bed = build_brisa_testbed(
        N, seed=7, config=cfg, hpv_config=HyParViewConfig(active_size=4)
    )
    publisher = bed.choose_source()

    # Publish continuously across the churn window.
    lead, drain = 10.0, 15.0
    items = int(math.ceil(RATE * (lead + CHURN_SECONDS + drain)))
    bed.start_stream(publisher, StreamConfig(count=items, rate=RATE, payload_bytes=2048))
    bed.sim.run(until=bed.sim.now + lead)

    start = bed.sim.now
    end = start + CHURN_SECONDS
    per_period = CHURN_PCT_PER_MIN * 30.0 / 60.0
    trace = Trace((
        SetReplacementRatio(start, 1.0),
        ConstChurn(start, end, per_period, 30.0),
        Stop(end),
    ))
    driver = ChurnDriver(
        bed.sim, bed.network, trace, bed.spawn_joiner,
        protected={publisher.node_id},
    )
    driver.apply()
    bed.sim.run(until=end + drain)

    m = bed.metrics
    lost = rate_per_minute((t for t, _ in m.parent_losses), (start, end))
    orphans = rate_per_minute((t for t, _ in m.orphan_events), (start, end))
    soft = sum(1 for r in m.repair_events if r.kind == "soft")
    hard = sum(1 for r in m.repair_events if r.kind == "hard")

    # Did the survivors get the news?  Check the subscribers that lived
    # through the whole run.
    survivors = [
        n for n in bed.alive_nodes()
        if n is not publisher and n.birth_time < start
    ]
    complete = sum(
        1 for n in survivors if n.delivered_count(0) >= items - 1
    )

    print(banner("News feed under churn — 2-parent BRISA DAG"))
    print(table(
        ["metric", "value"],
        [
            ["subscribers (initial)", N - 1],
            ["churn", f"{CHURN_PCT_PER_MIN:g}%/min for {CHURN_SECONDS:.0f}s"],
            ["failures applied", driver.stats.kills],
            ["fresh joins", driver.stats.joins],
            ["parents lost / min", round(lost, 2)],
            ["orphans / min (full disconnections)", round(orphans, 2)],
            ["soft repairs", soft],
            ["hard repairs", hard],
            ["long-lived subscribers with a complete feed",
             f"{complete}/{len(survivors)}"],
        ],
    ))


if __name__ == "__main__":
    main()
