"""Large-scale lazy-push/pull dissemination (the recovery baseline).

The pull stack (:mod:`repro.baselines.pullgossip`) is the literature-
standard comparator for BRISA's repair machinery under lossy links:
probabilistic eager push bounded by a hop TTL, completed by gap-driven
pull recovery with bounded retry rounds.  This module carries its
builder (:func:`build_pull`, behind ``repro scale --stack pull``): the
flood stack's static overlay with pull-gossip nodes on it, driven by the
shared spine (:func:`repro.experiments.scale_runner.run_stack`).

Unlike flooding, delivery converges *below* 1.0 even on lossless links
(tail blindness — see :mod:`repro.baselines.pullgossip`); the quantity
of interest is how far pull recovery closes the gap the probabilistic
push leaves, per topology class and loss rate.  The heap drains exactly
when the last pull round settles.

The stack runs on the object kernel only — recovery is timer- and
request-driven, far off the fan-out hot path the slotted/vectorized
kernels exist for.
"""

from __future__ import annotations

from repro.baselines.pullgossip import PullGossipNode
from repro.experiments.scale_flood import build_flood
from repro.experiments.scale_runner import RunSpec


def build_pull(spec: RunSpec, scale):
    """The pull stack's builder (``STACKS["pull"]``): the flood stack's
    build with the pull-gossip node class."""
    return build_flood(spec, scale, node_factory=PullGossipNode)
