"""Discrete-event simulation substrate.

Stands in for the paper's two testbeds (the Splay cluster and PlanetLab):
an event engine with deterministic seeding, pluggable latency models, a
network with crash/leave semantics and TCP-like failure-detection
notifications, the Splay-style churn-trace DSL (Listing 1), and metric
collection with stabilization/dissemination phase accounting.
"""

from repro.sim.engine import EventHandle, Simulator
from repro.sim.latency import (
    ClusterLatency,
    ConstantLatency,
    LatencyModel,
    PlanetLabLatency,
)
from repro.sim.message import Message
from repro.sim.monitor import Metrics
from repro.sim.network import Network
from repro.sim.node import ProtocolNode
from repro.sim.trace import (
    ConstChurn,
    JoinRamp,
    SetReplacementRatio,
    Stop,
    Trace,
    parse_trace,
)
from repro.sim.churn import ChurnDriver, ChurnStats

__all__ = [
    "ChurnDriver",
    "ChurnStats",
    "ClusterLatency",
    "ConstantLatency",
    "ConstChurn",
    "EventHandle",
    "JoinRamp",
    "LatencyModel",
    "Message",
    "Metrics",
    "Network",
    "PlanetLabLatency",
    "ProtocolNode",
    "SetReplacementRatio",
    "Simulator",
    "Stop",
    "Trace",
    "parse_trace",
]
