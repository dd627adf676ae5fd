"""Layer map: which module of ``src/repro`` belongs to which layer.

A layer is a group of modules an optimisation targets as a unit.  The
traced pass buckets profiler self time by this map; the harness test
checks that every module of the program resolves to a layer, so a new
module lands in its package's layer until someone assigns it.
"""

from __future__ import annotations

import os

#: Reporting order.  ``gc`` is collector pause time (attributed away from
#: the layer that triggered it); ``other`` is everything outside the
#: program — the benchmark's own wrappers, interpreter start-up.
LAYERS = (
    "engine", "network", "latency", "monitor", "node", "churn", "hyparview",
    "flood", "flood_vectorized", "brisa", "brisa_slotted", "bootstrap",
    "scale_runner", "structure", "gc", "other",
)

#: Longest matching prefix of the path below ``src/repro/`` wins; the
#: bare package prefixes are the defaults for modules added later.
_RULES = {
    "sim/": "engine",
    "sim/engine": "engine",
    "sim/network": "network",
    "sim/message": "network",
    "sim/transport": "network",
    "sim/latency": "latency",
    "sim/rng": "latency",
    "sim/monitor": "monitor",
    "metrics/": "monitor",
    "sim/node": "node",
    "runtime/": "node",
    "config": "node",
    "errors": "node",
    "ids": "node",
    "sim/churn": "churn",
    "sim/trace": "churn",
    "membership/": "hyparview",
    "baselines/": "flood",
    "core/": "brisa",
    "core/flood_vectorized": "flood_vectorized",
    "core/brisa_slotted": "brisa_slotted",
    "core/bloom_matrix": "brisa_slotted",
    "core/structure": "structure",
    "experiments/structural": "structure",
    "experiments/": "scale_runner",
    "experiments/bootstrap": "bootstrap",
    "experiments/common": "bootstrap",
    "__init__": "scale_runner",
    "__main__": "scale_runner",
    "cli": "scale_runner",
}

#: Where the program lives; ``bench.cell`` puts ``SRC_DIR`` on sys.path,
#: so code objects of the program carry filenames under ``PROGRAM_DIR``.
SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
PROGRAM_DIR = os.path.join(SRC_DIR, "repro") + os.sep


def layer_of_module(relpath: str) -> str:
    """Layer of a module given its path below ``src/repro/`` (with or
    without ``.py``); ``other`` when no rule matches."""
    best = ""
    for prefix in _RULES:
        if relpath.startswith(prefix) and len(prefix) > len(best):
            best = prefix
    return _RULES[best] if best else "other"


def layer_of_file(filename: str) -> "str | None":
    """Layer of a profiler/frame filename, or None for code outside the
    program (stdlib, numpy, C builtins), whose time is charged to its
    callers."""
    if not filename.startswith(PROGRAM_DIR):
        return None
    return layer_of_module(filename[len(PROGRAM_DIR):])
