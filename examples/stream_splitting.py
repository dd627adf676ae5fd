#!/usr/bin/env python
"""Stream splitting over DAG parents (§IV extension).

With a 2-parent DAG, a node can fetch alternating stripes of the stream
from each parent instead of full copies from both — SplitStream's idea
without its all-nodes-in-all-trees rigidity.  This example emerges a DAG,
then simulates the stripe assignment over the real parent sets: inbound
bandwidth halves while a parent failure still leaves every stripe
recoverable through reassignment.

Run:  python examples/stream_splitting.py
(REPRO_EXAMPLE_TINY=1 shrinks the population for smoke tests.)
"""

import os

from repro.config import BrisaConfig, StreamConfig
from repro.core.splitting import (
    StripeAssignment,
    StripeReassembler,
    split_bandwidth_share,
)
from repro.experiments.common import build_brisa_testbed
from repro.experiments.report import banner, table

TINY = bool(os.environ.get("REPRO_EXAMPLE_TINY"))
N = 24 if TINY else 64
MESSAGES = 200
PAYLOAD = 4096


def main() -> None:
    cfg = BrisaConfig(mode="dag", num_parents=2)
    bed = build_brisa_testbed(N, seed=5, config=cfg)
    source = bed.choose_source()
    bed.run_stream(
        source,
        StreamConfig(count=15 if TINY else 40, rate=5.0, payload_bytes=PAYLOAD),
    )

    two_parent_nodes = [
        n for n in bed.alive_nodes()
        if n is not source and len(n.tree_parents(0)) == 2
    ]
    print(banner("Stream splitting over an emerged 2-parent DAG"))
    print(f"nodes with two parents: {len(two_parent_nodes)}/{N - 1}")

    node = two_parent_nodes[0]
    parents = tuple(node.tree_parents(0))
    assignment = StripeAssignment(parents)
    share = split_bandwidth_share(assignment, PAYLOAD, MESSAGES)
    full_copy = MESSAGES * PAYLOAD

    rows = [
        ["full duplication (plain DAG)", 2 * full_copy // 1024, "2 copies of everything"],
        ["split stripes", sum(share.values()) // 1024,
         f"parent {parents[0]}: {share[parents[0]] // 1024} KB, "
         f"parent {parents[1]}: {share[parents[1]] // 1024} KB"],
    ]
    print(table(["inbound strategy", "bytes received (KB)", "breakdown"], rows))

    # Parent failure: stripes reassign to the survivor; the reassembler
    # reports which sequence numbers must be re-fetched.
    failed = parents[0]
    survivor_assignment = assignment.without_parent(failed)
    reassembler = StripeReassembler()
    # Everything the failed parent already shipped was consumed in order;
    # simulate the moment of failure at message 100.
    for seq in range(100):
        reassembler.offer(seq)
    missing = assignment.sequences_for_parent(failed, MESSAGES)
    still_needed = [s for s in missing if s >= 100]
    print(f"\nparent {failed} fails at message 100:")
    print(f"  stripes reassigned to: {sorted(set(survivor_assignment.parents))}")
    print(f"  sequence numbers the survivor must now also serve: "
          f"{len(still_needed)} (e.g. {still_needed[:6]}...)")
    print(f"  in-order delivery resumed at seq {reassembler.next_seq}")


if __name__ == "__main__":
    main()
