"""Latency models: the two testbeds of §III plus test helpers.

``ClusterLatency`` models the 15-machine 1 Gbps switched cluster (sub-ms
RTTs, light jitter).  ``PlanetLabLatency`` is the documented substitution
for the real PlanetLab slice: a synthetic wide-area model with embedded
2-D coordinates, per-node "slowness" factors (overloaded PlanetLab hosts),
directional asymmetry and a heavy lognormal jitter tail, calibrated to the
often-published PlanetLab RTT profile (median ≈ 75 ms, 95th pct ≈ 300 ms).

One-way delays are sampled per message; ``expected_owd`` exposes the mean
for delay-*estimation* (BRISA's delay-aware strategy measures RTTs from
keep-alives, which average out jitter — §II-E).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

from repro.ids import NodeId
from repro.sim.rng import derive, derive_seed


class LatencyModel(ABC):
    """Pairwise one-way message delay + per-node occupancy model.

    Besides propagation delay, a model describes what sending/receiving a
    message *costs a node*: NIC serialization (``size / bandwidth``) plus
    per-message processing overhead.  The network serializes these costs
    per node, which is what makes heavy fan-out (flooding) slow on loaded
    testbeds — the contention §III-B attributes Fig. 9's flood series to.
    A zero-cost model (the default for :class:`ConstantLatency`) keeps
    unit tests exact.

    Contract: ``tx_cost``/``rx_cost`` are pure functions of ``(node,
    size)``; all per-message randomness lives in :meth:`sample`.  The
    network relies on it — ``tx_cost`` is probed once per fan-out and
    reused for every destination, ``rx_cost`` once per arrival — and
    picks its delivery plan from :meth:`zero_cost` and
    :attr:`uniform_delay` alone (DESIGN.md §2).
    """

    #: Node uplink/downlink bandwidth in bytes/s (None = infinite).
    node_bandwidth: float | None = None
    #: Per-message CPU/processing overhead in seconds.
    proc_overhead: float = 0.0
    #: Set to the delay value when ``sample()`` returns the same constant
    #: for every pair and every draw: arrivals are FIFO by construction
    #: and, on a zero-cost model, a whole fan-out (identical arrival
    #: times) rides one heap event.
    uniform_delay: float | None = None

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._rng = derive(seed, "latency")

    @abstractmethod
    def expected_owd(self, src: NodeId, dst: NodeId) -> float:
        """Mean one-way delay from ``src`` to ``dst`` (seconds)."""

    def sample(self, src: NodeId, dst: NodeId) -> float:
        """Sample the one-way delay of one message (seconds)."""
        return self.expected_owd(src, dst)

    def expected_rtt(self, src: NodeId, dst: NodeId) -> float:
        """Mean round-trip time between two nodes (seconds)."""
        return self.expected_owd(src, dst) + self.expected_owd(dst, src)

    # -- occupancy -------------------------------------------------------
    def tx_cost(self, node: NodeId, size_bytes: int) -> float:
        """Time ``node`` is busy transmitting one message."""
        cost = self.proc_overhead
        if self.node_bandwidth:
            cost += size_bytes / self.node_bandwidth
        return cost

    def rx_cost(self, node: NodeId, size_bytes: int) -> float:
        """Time ``node`` is busy receiving/processing one message."""
        cost = self.proc_overhead
        if self.node_bandwidth:
            cost += size_bytes / self.node_bandwidth
        return cost

    def zero_cost(self) -> bool:
        """True when this model charges no per-node occupancy at all —
        every ``tx_cost``/``rx_cost`` is exactly zero for any message.

        The network probes this once at construction to pick its
        delivery plan (DESIGN.md §2).  A subclass overriding
        ``tx_cost``/``rx_cost`` is conservatively treated as costly.
        """
        return (
            type(self).tx_cost is LatencyModel.tx_cost
            and type(self).rx_cost is LatencyModel.rx_cost
            and not self.node_bandwidth
            and self.proc_overhead == 0.0
        )


class ConstantLatency(LatencyModel):
    """Fixed one-way delay; the unit-test workhorse."""

    def __init__(self, delay: float = 0.001, seed: int = 0) -> None:
        super().__init__(seed)
        if delay < 0:
            raise ValueError("delay must be >= 0")
        self.delay = delay
        self.uniform_delay = delay

    def expected_owd(self, src: NodeId, dst: NodeId) -> float:
        return self.delay


class OccupancyLatency(LatencyModel):
    """Constant propagation delay plus deterministic occupancy charges.

    The controlled counterpart of :class:`ConstantLatency` for the
    occupancy-charging regime (the realistic cost model of Figs. 10–12
    and of buffer-occupancy epidemic routing studies): propagation is a
    fixed ``delay`` (``uniform_delay`` stays set, so schedules are exact
    and draw-free — the parity suite's deterministic occupancy fixture),
    while sending/receiving charges the node's single occupancy
    horizon.  ``tx_overhead``/``rx_overhead`` split the per-message
    processing cost by direction — the default charges receive
    processing only, modelling a node whose bottleneck is handling
    inbound messages (the regime where flooding melts down first); add
    ``node_bandwidth`` for NIC serialization in both directions.
    """

    def __init__(
        self,
        delay: float = 0.001,
        *,
        tx_overhead: float = 0.0,
        rx_overhead: float = 0.0005,
        node_bandwidth: float | None = None,
        seed: int = 0,
    ) -> None:
        super().__init__(seed)
        if delay < 0:
            raise ValueError("delay must be >= 0")
        if tx_overhead < 0 or rx_overhead < 0:
            raise ValueError("occupancy overheads must be >= 0")
        if node_bandwidth is not None and node_bandwidth <= 0:
            raise ValueError("node_bandwidth must be positive (or None)")
        self.delay = delay
        self.uniform_delay = delay
        self.tx_overhead = tx_overhead
        self.rx_overhead = rx_overhead
        self.node_bandwidth = node_bandwidth

    def expected_owd(self, src: NodeId, dst: NodeId) -> float:
        return self.delay

    def tx_cost(self, node: NodeId, size_bytes: int) -> float:
        cost = self.tx_overhead
        if self.node_bandwidth:
            cost += size_bytes / self.node_bandwidth
        return cost

    def rx_cost(self, node: NodeId, size_bytes: int) -> float:
        cost = self.rx_overhead
        if self.node_bandwidth:
            cost += size_bytes / self.node_bandwidth
        return cost


class ClusterLatency(LatencyModel):
    """Switched-GbE cluster: ~0.15 ms one-way, small exponential jitter.

    The paper's cluster multiplexes up to 512 protocol nodes over 15
    physical machines; ``contention_jitter`` models the extra scheduling
    delay that co-located nodes experience (§III-D attributes BRISA's small
    latency gap over SimpleTree to context switching and machine sharing).
    """

    #: The paper multiplexes up to ~34 protocol nodes per physical
    #: machine: the effective per-node share of the GbE NIC and CPU is a
    #: few MB/s and a fraction of a millisecond per message.  This is the
    #: contention §III-D blames for BRISA's small latency gap over
    #: SimpleTree ("extra context switching and physical machine sharing").
    node_bandwidth = 4_000_000.0
    proc_overhead = 0.0002

    def __init__(
        self,
        base_owd: float = 0.00015,
        jitter_mean: float = 0.00005,
        contention_jitter: float = 0.0002,
        seed: int = 0,
    ) -> None:
        super().__init__(seed)
        self.base_owd = base_owd
        self.jitter_mean = jitter_mean
        self.contention_jitter = contention_jitter

    def expected_owd(self, src: NodeId, dst: NodeId) -> float:
        return self.base_owd + self.jitter_mean + self.contention_jitter / 2

    def sample(self, src: NodeId, dst: NodeId) -> float:
        # ``rng.expovariate(1 / jitter_mean)`` then ``rng.uniform(0,
        # contention_jitter)``, inlined: the same two draws, in the same
        # order, through the same float operations (``uniform``'s
        # ``0 + (b - 0) * r`` is ``b * r`` for any ``b >= 0``) — one
        # frame instead of three, pinned bit for bit in
        # tests/test_latency.py.
        random = self._rng.random
        jitter_mean = self.jitter_mean
        jitter = -math.log(1.0 - random()) / (1.0 / jitter_mean) if jitter_mean else 0.0
        return self.base_owd + jitter + self.contention_jitter * random()


class PlanetLabLatency(LatencyModel):
    """Synthetic wide-area model standing in for the PlanetLab slice.

    Construction (all derived deterministically from ``seed``):

    - each node gets a coordinate on the unit square; geographic distance
      maps to up to ``max_geo_owd`` of one-way delay,
    - each node gets a multiplicative slowness factor drawn lognormally
      (overloaded hosts are slow in *both* directions),
    - each ordered pair gets an asymmetry factor (PlanetLab routing is
      famously asymmetric — §III-B even notes that asymmetries deter
      direct-communication measurements),
    - each message adds lognormal jitter.

    With defaults the RTT distribution has median ≈ 75 ms and a tail past
    300 ms, matching published PlanetLab all-pairs studies.

    Occupancy costs model the famously overloaded PlanetLab hosts: a few
    Mbps of usable uplink and ~1.5 ms of per-message processing, both
    scaled by the node's slowness factor — this is the "heavy load" that
    makes flooding the worst Fig. 9 series and first-come selections
    noisy.
    """

    #: ~1.6 Mbps of usable per-node bandwidth on a contended slice.
    node_bandwidth = 200_000.0
    #: Per-message processing on an oversubscribed host.
    proc_overhead = 0.003

    def __init__(
        self,
        min_owd: float = 0.004,
        max_geo_owd: float = 0.180,
        slowness_sigma: float = 0.9,
        asymmetry: float = 0.25,
        jitter_mean: float = 0.006,
        jitter_sigma: float = 1.3,
        seed: int = 0,
    ) -> None:
        super().__init__(seed)
        self.min_owd = min_owd
        self.max_geo_owd = max_geo_owd
        self.slowness_sigma = slowness_sigma
        self.asymmetry = asymmetry
        self.jitter_mean = jitter_mean
        self.jitter_sigma = jitter_sigma
        self._coords: dict[NodeId, tuple[float, float]] = {}
        self._slowness: dict[NodeId, float] = {}
        #: Base one-way delay per ordered pair: pure in ``(src, dst)``,
        #: and the asymmetry factor behind it costs a SHA-256.
        self._pair_owd: dict[tuple[NodeId, NodeId], float] = {}

    # -- per-node deterministic attributes ------------------------------
    def _coord(self, node: NodeId) -> tuple[float, float]:
        c = self._coords.get(node)
        if c is None:
            r = derive(self.seed, "coord", node)
            c = (r.random(), r.random())
            self._coords[node] = c
        return c

    def _slow(self, node: NodeId) -> float:
        s = self._slowness.get(node)
        if s is None:
            r = derive(self.seed, "slow", node)
            s = r.lognormvariate(0.0, self.slowness_sigma)
            self._slowness[node] = s
        return s

    def _asym(self, src: NodeId, dst: NodeId) -> float:
        # Deterministic per ordered pair, mean 1.0 across both directions.
        h = derive_seed(self.seed, "asym", src, dst)
        frac = (h % 10_000) / 10_000.0
        return 1.0 + self.asymmetry * (frac - 0.5)

    # -- model -----------------------------------------------------------
    def _base_owd(self, src: NodeId, dst: NodeId) -> float:
        owd = self._pair_owd.get((src, dst))
        if owd is None:
            (x1, y1), (x2, y2) = self._coord(src), self._coord(dst)
            dist = math.hypot(x1 - x2, y1 - y2) / math.sqrt(2.0)
            geo = self.min_owd + dist * self.max_geo_owd
            pair_slow = (self._slow(src) + self._slow(dst)) / 2.0
            owd = self._pair_owd[src, dst] = geo * pair_slow * self._asym(src, dst)
        return owd

    def expected_owd(self, src: NodeId, dst: NodeId) -> float:
        jitter_mean = self.jitter_mean * math.exp(self.jitter_sigma**2 / 2.0)
        return self._base_owd(src, dst) + jitter_mean

    def sample(self, src: NodeId, dst: NodeId) -> float:
        jitter = self.jitter_mean * self._rng.lognormvariate(0.0, self.jitter_sigma)
        return self._base_owd(src, dst) + jitter

    def tx_cost(self, node: NodeId, size_bytes: int) -> float:
        # Pure in (node, size): the per-node slowness factor is derived
        # deterministically and cached, never drawn per message.
        slow = self._slow(node)
        return self.proc_overhead * slow + size_bytes / (self.node_bandwidth / slow)

    def rx_cost(self, node: NodeId, size_bytes: int) -> float:
        return self.tx_cost(node, size_bytes)
