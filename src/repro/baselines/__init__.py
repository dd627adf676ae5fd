"""Comparison protocols of §III-D.

The paper's four points on the efficiency/robustness design spectrum:

- :class:`repro.baselines.flood.FloodNode` — plain flooding over
  HyParView; the duplicates baseline of Fig. 2 and BRISA's own fallback.
- :class:`repro.baselines.simplegossip.SimpleGossipNode` — the robustness
  end: Cyclon + push rumor mongering (fanout ``ln N``, infect-and-die) +
  anti-entropy pull for completeness.
- :class:`repro.baselines.simpletree.SimpleTreeNode` — the efficiency
  end: a centralized random tree with push dissemination and no support
  for dynamism.
- :class:`repro.baselines.tag.TagNode` — the closest hybrid competitor:
  a join-time-sorted linked list with 2-hop knowledge, gossip partners,
  and pull-based dissemination.

Two comparators from outside §III-D:

- :class:`repro.baselines.plumtree.PlumTreeNode` — the §V related-work
  control-overhead comparator (eager/lazy push with graft/prune),
  reachable from ``benchmarks/test_ablation_plumtree.py``.  Deliberately
  no ``STACKS`` row (``experiments/scale_runner.py``) until the
  efficiency/reliability frontier sweep (ROADMAP item 6) needs one.
- :class:`repro.baselines.pullgossip.PullGossipNode` — lazy-push with
  gap-driven pull recovery under link loss; ``repro scale --stack pull``.
  Built through its ``STACKS`` row, so not re-exported here.
"""

from repro.baselines.flood import FloodNode
from repro.baselines.plumtree import PlumTreeNode
from repro.baselines.simplegossip import SimpleGossipNode
from repro.baselines.simpletree import SimpleTreeCoordinator, SimpleTreeNode
from repro.baselines.tag import TagNode, TagTracker

__all__ = [
    "FloodNode",
    "PlumTreeNode",
    "SimpleGossipNode",
    "SimpleTreeCoordinator",
    "SimpleTreeNode",
    "TagNode",
    "TagTracker",
]
