"""Network-property scenarios: routing delays and bandwidth (§III-B).

Fig. 9 compares per-node cumulative routing delays on PlanetLab for a
point-to-point ideal, the two parent-selection strategies and plain
flooding.  Figs. 10–11 measure per-node download/upload rates for the
four structure configurations across payload sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import BrisaConfig, HyParViewConfig, StreamConfig
from repro.experiments.common import build_brisa_testbed, build_flood_testbed
from repro.experiments.scale import Scale, get_scale
from repro.experiments.structural import STRUCTURE_CONFIGS
from repro.metrics.bandwidth import phase_bandwidth_summary
from repro.metrics.stats import CDF
from repro.sim.latency import PlanetLabLatency
from repro.sim.monitor import DISSEMINATION


# ----------------------------------------------------------------------
# Fig. 9 — routing delays on PlanetLab
# ----------------------------------------------------------------------
@dataclass
class Fig9Result:
    """Per-series CDF of routing delays (seconds)."""

    series: dict[str, CDF] = field(default_factory=dict)
    nodes: int = 0


def _delay_cdf(bed, source, stream_count: int) -> CDF:
    """Cumulative per-hop delay of each node's deliveries (Fig. 9 uses the
    sum of hop RTT measurements from root to node)."""
    delays = []
    for seq in range(stream_count):
        for nid, rec in bed.metrics.records(0, seq).items():
            if nid != source.node_id:
                delays.append(rec.path_delay)
    return CDF.of(delays)


def fig9_routing_delays(
    scale: Scale | str | None = None, *, seed: int = 24
) -> Fig9Result:
    """Routing-delay CDFs for point-to-point, delay-aware, first-pick and
    flooding on the synthetic PlanetLab model (Fig. 9: 150 nodes, tree,
    view 4, 200 x 1 KB messages)."""
    sc = scale if isinstance(scale, Scale) else get_scale(scale)
    n = sc.planetlab_nodes
    messages = min(200, sc.messages * 2)
    hpv = HyParViewConfig(active_size=4)
    stream = StreamConfig(count=messages, rate=5.0, payload_bytes=1024)
    result = Fig9Result(nodes=n)

    for label, strategy in (("first-pick", "first-come"), ("delay-aware", "delay-aware")):
        latency = PlanetLabLatency(seed=seed)
        cfg = BrisaConfig(strategy=strategy)
        bed = build_brisa_testbed(
            n,
            seed=seed,
            config=cfg,
            hpv_config=hpv,
            latency=latency,
            join_spacing=sc.join_spacing,
            settle=sc.settle,
        )
        source = bed.choose_source()
        bed.run_stream(source, stream, drain=30.0)
        result.series[label] = _delay_cdf(bed, source, messages)
        if "point-to-point" not in result.series:
            # Ideal: the direct one-way delay from the source to each node.
            result.series["point-to-point"] = CDF.of(
                latency.expected_owd(source.node_id, node.node_id)
                for node in bed.alive_nodes()
                if node is not source
            )

    latency = PlanetLabLatency(seed=seed)
    bed = build_flood_testbed(
        n,
        seed=seed,
        hpv_config=hpv,
        latency=latency,
        join_spacing=sc.join_spacing,
        settle=sc.settle,
    )
    source = bed.choose_source()
    bed.run_stream(source, stream, drain=30.0)
    result.series["flood"] = _delay_cdf(bed, source, messages)
    return result


# ----------------------------------------------------------------------
# Figs. 10 & 11 — bandwidth percentiles per configuration x payload
# ----------------------------------------------------------------------
@dataclass
class BandwidthResult:
    """(configuration label, payload KB) -> percentile dict (KB/s)."""

    download: dict[tuple[str, int], dict[int, float]] = field(default_factory=dict)
    upload: dict[tuple[str, int], dict[int, float]] = field(default_factory=dict)
    nodes: int = 0


def fig10_fig11_bandwidth(
    scale: Scale | str | None = None,
    *,
    payload_kb: tuple[int, ...] = (1, 10, 50, 100),
    seed: int = 5,
) -> BandwidthResult:
    """Per-node download (Fig. 10) and upload (Fig. 11) rates during
    dissemination, as the 5/25/50/75/90th percentile stacks."""
    sc = scale if isinstance(scale, Scale) else get_scale(scale)
    result = BandwidthResult(nodes=sc.cluster_nodes)
    messages = max(50, sc.messages // 2)
    for label, mode, parents, view in STRUCTURE_CONFIGS:
        for kb in payload_kb:
            cfg = BrisaConfig(
                mode=mode,
                num_parents=parents,
                cycle_predictor=BrisaConfig.default_predictor(mode),
            )
            hpv = HyParViewConfig(active_size=view)
            bed = build_brisa_testbed(
                sc.cluster_nodes,
                seed=seed,
                config=cfg,
                hpv_config=hpv,
                join_spacing=sc.join_spacing,
                settle=sc.settle,
                record_deliveries=False,
            )
            source = bed.choose_source()
            stream = StreamConfig(count=messages, rate=5.0, payload_bytes=kb * 1024)
            bed.run_stream(source, stream)
            receivers = [x for x in bed.alive_ids() if x != source.node_id]
            result.download[(label, kb)] = phase_bandwidth_summary(
                bed.metrics, receivers, DISSEMINATION, "received"
            )
            result.upload[(label, kb)] = phase_bandwidth_summary(
                bed.metrics, receivers, DISSEMINATION, "sent"
            )
    return result
