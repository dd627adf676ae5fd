"""Peer sampling services (§II-A).

Two PSS families back the paper's protocols:

- :class:`repro.membership.hyparview.HyParViewNode` — the *reactive* PSS
  BRISA builds on: a small active view of bidirectional TCP links plus a
  larger passive view refreshed by shuffles; active entries change only on
  failure or join, giving BRISA the stability it needs to keep emerged
  structures intact.
- :class:`repro.membership.cyclon.CyclonNode` — the *proactive* PSS used
  by the SimpleGossip baseline (§III-D): the view is a continuous stream
  of fresh samples produced by age-based shuffles.
"""

from repro.membership.base import PeerSamplingNode
from repro.membership.cyclon import CyclonNode
from repro.membership.hyparview import HyParViewNode

__all__ = [
    "CyclonNode",
    "HyParViewNode",
    "PeerSamplingNode",
]
