#!/usr/bin/env python
"""Multiple trees over one overlay (§IV *Multiple Trees and Multiple
Parents*).

BRISA keys all per-stream state by stream id, so several publishers can
emerge independent dissemination trees over a single HyParView overlay
"with little to no overhead to support multiple trees/sources": the
overlay is shared, only the per-stream activation state multiplies.
The relay-load analysis lives in
:func:`repro.experiments.structural.relay_load_spread` (shared with the
scale runner, which drives the same workload at 10k+ nodes via
``repro scale --streams K``).

Run:  python examples/multi_source.py
(REPRO_EXAMPLE_TINY=1 shrinks the population for smoke tests.)
"""

import os

from repro.config import StreamConfig
from repro.core.structure import extract_structure, is_complete_structure
from repro.experiments.common import build_brisa_testbed, delivered_fraction
from repro.experiments.report import banner, table
from repro.experiments.structural import relay_load_spread

TINY = bool(os.environ.get("REPRO_EXAMPLE_TINY"))
N = 32 if TINY else 64
SOURCES = 4
MESSAGES = 15 if TINY else 60


def main() -> None:
    bed = build_brisa_testbed(N, seed=17)
    nodes = bed.alive_nodes()
    publishers = nodes[:SOURCES]

    for i, publisher in enumerate(publishers):
        bed.start_stream(
            publisher,
            StreamConfig(count=MESSAGES, rate=5.0, payload_bytes=512, stream_id=i),
        )
    bed.sim.run(until=bed.sim.now + MESSAGES / 5.0 + 20.0)

    print(banner(f"{SOURCES} publishers, one overlay — independent trees"))
    rows = []
    for i, publisher in enumerate(publishers):
        g = extract_structure(bed.alive_nodes(), stream=i)
        ok, reason = is_complete_structure(
            g, publisher.node_id, set(bed.alive_ids())
        )
        receivers = [n for n in bed.alive_nodes() if n is not publisher]
        delivered = delivered_fraction(receivers, i, MESSAGES)
        rows.append([
            f"stream {i} (source {publisher.node_id})",
            "complete/acyclic" if ok else reason,
            g.number_of_edges(),
            f"{delivered * 100:.1f}%",
        ])
    print(table(["stream", "invariant", "edges", "delivered"], rows))

    # The trees differ: a node that is interior in one tree is often a
    # leaf in another (SplitStream's load-balancing goal, §IV).
    spread = relay_load_spread(bed.alive_nodes(), range(SOURCES))
    print()
    print(spread.summary())
    print("The relay load spreads across the population because every "
          "stream emerges its own structure from its own flood.")


if __name__ == "__main__":
    main()
