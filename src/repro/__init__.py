"""BRISA reproduction — efficient & reliable epidemic data dissemination.

This package reproduces *BRISA: Combining Efficiency and Reliability in
Epidemic Data Dissemination* (Matos, Schiavoni, Felber, Oliveira, Rivière —
IEEE IPDPS 2012) as a self-contained, deterministic discrete-event system:

- :mod:`repro.sim` — the simulation substrate standing in for the paper's
  Splay deployments (cluster + PlanetLab): event engine, latency models,
  network, churn traces, metrics.
- :mod:`repro.membership` — peer sampling services: HyParView (reactive,
  used by BRISA) and Cyclon (proactive, used by the SimpleGossip baseline).
- :mod:`repro.core` — the BRISA protocol itself: flood-bootstrapped
  emergence of trees and DAGs, parent-selection strategies, cycle
  predictors, soft/hard repair, message recovery.
- :mod:`repro.baselines` — the comparison protocols of §III-D: flooding,
  SimpleGossip, SimpleTree and TAG.
- :mod:`repro.experiments` — one scenario per paper figure/table plus the
  reporting harness.

Top-level names are loaded lazily (PEP 562) so that ``import repro`` stays
cheap and subpackages have no import-order coupling.

Quickstart::

    from repro import quick_brisa_run
    result = quick_brisa_run(n=64, messages=50, seed=1)
    print(result.summary())
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING

__version__ = "1.0.0"

#: attribute name -> module providing it
_EXPORTS = {
    "BrisaConfig": "repro.config",
    "CyclonConfig": "repro.config",
    "GossipConfig": "repro.config",
    "HyParViewConfig": "repro.config",
    "SimpleTreeConfig": "repro.config",
    "StreamConfig": "repro.config",
    "TagConfig": "repro.config",
    "NodeId": "repro.ids",
    "StreamId": "repro.ids",
    "Simulator": "repro.sim.engine",
    "ClusterLatency": "repro.sim.latency",
    "ConstantLatency": "repro.sim.latency",
    "LatencyModel": "repro.sim.latency",
    "PlanetLabLatency": "repro.sim.latency",
    "Network": "repro.sim.network",
    "Metrics": "repro.sim.monitor",
    "HyParViewNode": "repro.membership.hyparview",
    "CyclonNode": "repro.membership.cyclon",
    "BrisaNode": "repro.core.brisa",
    "DelayAwareStrategy": "repro.core.strategies",
    "FirstComeStrategy": "repro.core.strategies",
    "GerontocraticStrategy": "repro.core.strategies",
    "HeterogeneityAwareStrategy": "repro.core.strategies",
    "LoadBalancingStrategy": "repro.core.strategies",
    "make_strategy": "repro.core.strategies",
    "Testbed": "repro.experiments.common",
    "quick_brisa_run": "repro.experiments.common",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(module_name)
    value = getattr(module, name)
    globals()[name] = value  # cache for subsequent lookups
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))


if TYPE_CHECKING:  # pragma: no cover - static-analysis imports only
    from repro.config import (  # noqa: F401
        BrisaConfig,
        CyclonConfig,
        GossipConfig,
        HyParViewConfig,
        SimpleTreeConfig,
        StreamConfig,
        TagConfig,
    )
    from repro.core.brisa import BrisaNode  # noqa: F401
    from repro.core.strategies import (  # noqa: F401
        DelayAwareStrategy,
        FirstComeStrategy,
        GerontocraticStrategy,
        HeterogeneityAwareStrategy,
        LoadBalancingStrategy,
        make_strategy,
    )
    from repro.experiments.common import Testbed, quick_brisa_run  # noqa: F401
    from repro.ids import NodeId, StreamId  # noqa: F401
    from repro.membership.cyclon import CyclonNode  # noqa: F401
    from repro.membership.hyparview import HyParViewNode  # noqa: F401
    from repro.sim.engine import Simulator  # noqa: F401
    from repro.sim.latency import (  # noqa: F401
        ClusterLatency,
        ConstantLatency,
        LatencyModel,
        PlanetLabLatency,
    )
    from repro.sim.monitor import Metrics  # noqa: F401
    from repro.sim.network import Network  # noqa: F401
