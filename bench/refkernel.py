"""Frozen reference kernel: the host-speed yardstick of the benchmark.

A `repro`-free mini event loop with the same instruction mix as the
simulator's hot path (heapq of tuples, ``__slots__`` node objects, one
``set`` per node, bound-method dispatch): one message floods a fixed
ring-plus-chords graph, each node forwarding its first reception to all
its links.  The graph is sized so that the heap (~70 MB) does not fit the
last-level cache, as the workloads' heaps do not: on the shared host the
benchmark was defined on, a 10k-node (cache-resident) variant missed the
slowdowns a noisy neighbour inflicts on memory-bound code, and ratios
against it spread twice as wide.  Timing metrics are reported relative to this kernel's time
(`bench/README.md`, "Why reference seconds"), so the file is FROZEN: its
sha256 goes into every result and `python -m bench check` refuses to
compare results taken with different reference kernels.  Do not edit it
to make it faster, prettier or "more representative" — that silently
rescales every recorded number.
"""

import gc
import heapq
import json
import sys
import time

NODES = 60_000
CHORDS = 2  # links per node = 2 ring + 2 * CHORDS chord ends on average
MESSAGES = 1
EXPECTED_EVENTS = 359_999


class _Node:
    __slots__ = ("ident", "links", "seen", "received")

    def __init__(self, ident):
        self.ident = ident
        self.links = []
        self.seen = set()
        self.received = 0

    def on_message(self, loop, msg):
        self.received += 1
        seen = self.seen
        if msg in seen:
            return
        seen.add(msg)
        at = loop.now + 0.001
        for peer in self.links:
            loop.push(at, peer.on_message, msg)


class _Loop:
    __slots__ = ("now", "heap", "seq", "events")

    def __init__(self):
        self.now = 0.0
        self.heap = []
        self.seq = 0
        self.events = 0

    def push(self, at, fn, arg):
        self.seq += 1
        heapq.heappush(self.heap, (at, self.seq, fn, arg))

    def run(self):
        heap = self.heap
        pop = heapq.heappop
        while heap:
            at, _, fn, arg = pop(heap)
            self.now = at
            fn(self, arg)
            self.events += 1


def _build():
    nodes = [_Node(i) for i in range(NODES)]
    state = 12345
    for i, node in enumerate(nodes):
        ring = nodes[(i + 1) % NODES]
        node.links.append(ring)
        ring.links.append(node)
        for _ in range(CHORDS):
            # Fixed LCG, not `random`: the graph must never change.
            state = (state * 1103515245 + 12345) % 2147483648
            other = nodes[state % NODES]
            if other is not node:
                node.links.append(other)
                other.links.append(node)
    return nodes


def run_once():
    """Build the graph, flood MESSAGES messages, return (seconds, events)."""
    t0 = time.perf_counter()
    nodes = _build()
    loop = _Loop()
    for msg in range(MESSAGES):
        loop.push(msg * 0.05, nodes[(msg * 7919) % NODES].on_message, msg)
    loop.run()
    seconds = time.perf_counter() - t0
    return seconds, loop.events


def main():
    gc.collect()
    gc.freeze()
    seconds, events = run_once()
    if events != EXPECTED_EVENTS:
        print(f"refkernel: {events} events, expected {EXPECTED_EVENTS}", file=sys.stderr)
        return 1
    print(json.dumps({"ref_s": seconds, "events": events}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
