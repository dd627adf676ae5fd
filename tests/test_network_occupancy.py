"""Tests for the occupancy-fused fan-out (DESIGN.md §8).

The fused path is an exact-arithmetic reformulation of the per-message
occupancy chain: for deterministic cost models, a fan-out through
``send_many`` must produce byte/message totals, busy horizons, delivery
timestamps *and* delivery order identical to the same messages sent one
``send`` at a time — the accounting-parity requirement on
``Metrics.account_send_many``.
"""

import pytest

from repro.sim.engine import Simulator
from repro.sim.latency import ClusterLatency, OccupancyLatency
from repro.sim.message import Message
from repro.sim.monitor import Metrics
from repro.sim.network import Network


class Payload(Message):
    kind = "occ_payload"
    __slots__ = ("seq",)

    def __init__(self, seq: int = 0) -> None:
        self.seq = seq

    def body_bytes(self) -> int:
        return 512


class Recorder:
    """Minimal terminal receiver logging (time, src, seq) per delivery."""

    def __init__(self, node_id, sim, log):
        self.node_id = node_id
        self.alive = True
        self.sim = sim
        self.log = log

    def handle_message(self, src, msg):
        self.log.append((self.sim.now, self.node_id, msg.seq))


def build(model, n=10):
    sim = Simulator(seed=1)
    net = Network(sim, model, Metrics(record_deliveries=False))
    log = []
    for i in range(n):
        net.nodes[i] = Recorder(i, sim, log)
    return sim, net, log


def snapshot(net):
    m = net.metrics
    return (
        {k: dict(v) for k, v in m.bytes_sent.items()},
        {k: dict(v) for k, v in m.bytes_received.items()},
        {k: dict(v) for k, v in m.msg_counts.items()},
        dict(m.counters),
    )


MODELS = [
    dict(tx_overhead=0.0, rx_overhead=0.0005),          # receive-bound
    dict(tx_overhead=0.0003, rx_overhead=0.0005),       # both directions
    dict(tx_overhead=0.0002, rx_overhead=0.0, node_bandwidth=1e6),  # NIC-bound
]


class TestFusedOccupancyParity:
    @pytest.mark.parametrize("kw", MODELS, ids=["rx", "tx+rx", "nic"])
    def test_send_many_matches_per_message_sends(self, kw):
        def run(batched):
            sim, net, log = build(OccupancyLatency(0.001, **kw, seed=5))
            dsts = list(range(1, 10))

            def emit(seq):
                msg = Payload(seq)
                if batched:
                    net.send_many(0, dsts, msg)
                else:
                    for d in dsts:
                        net.send(0, d, msg)

            # Back-to-back bursts (backlogged horizons) and a late one
            # (drained horizons, the grouped-completion regime).
            sim.call_at(0.0, emit, 0)
            sim.call_at(0.0002, emit, 1)
            sim.call_at(0.5, emit, 2)
            sim.run_until_idle()
            return log, dict(net._busy), sim.now, snapshot(net)

        per_message = run(False)
        fused = run(True)
        # Identical delivery log: same timestamps, same order, same
        # receivers — and identical byte/message totals (the
        # account_send_many parity requirement).
        assert per_message == fused

    def test_zero_cost_fan_parity_with_per_message(self):
        # The pre-existing zero-cost fused tier obeys the same contract.
        def run(batched):
            from repro.sim.latency import ConstantLatency

            sim, net, log = build(ConstantLatency(0.001, seed=5))
            dsts = list(range(1, 10))
            msg = Payload(7)
            if batched:
                net.send_many(0, dsts, msg)
            else:
                for d in dsts:
                    net.send(0, d, msg)
            sim.run_until_idle()
            return log, snapshot(net)

        assert run(False) == run(True)

    def test_sampled_occupancy_model_keeps_full_chain_parity(self):
        # ClusterLatency samples propagation per message but its costs
        # are deterministic: the fused horizon charging must reproduce
        # the per-message accounting totals (timestamps differ by draw
        # order, so only totals are compared).
        def run(batched):
            sim, net, log = build(ClusterLatency(seed=5))
            dsts = list(range(1, 10))
            msg = Payload(7)
            if batched:
                net.send_many(0, dsts, msg)
            else:
                for d in dsts:
                    net.send(0, d, msg)
            sim.run_until_idle()
            return len(log), snapshot(net), dict(net._busy)[0]

        n_a, totals_a, busy_a = run(False)
        n_b, totals_b, busy_b = run(True)
        assert n_a == n_b == 9
        assert totals_a == totals_b
        assert busy_a == pytest.approx(busy_b)


class TestFusedOccupancyBehaviour:
    def test_free_horizon_fan_rides_two_events(self):
        # One arrival event + one grouped completion event for the whole
        # fan-out (receive-bound model, drained horizons).
        sim, net, log = build(OccupancyLatency(0.001, rx_overhead=0.0005, seed=5))
        net.send_many(0, list(range(1, 10)), Payload(0))
        events = sim.run_until_idle()
        assert events == 2
        assert len(log) == 9
        # Every completion at the same instant, FIFO order preserved.
        assert [entry[1] for entry in log] == list(range(1, 10))
        assert {entry[0] for entry in log} == {0.001 + 0.0005}

    def test_backlogged_horizons_split_completion_groups(self):
        sim, net, log = build(OccupancyLatency(0.001, rx_overhead=0.0005, seed=5))
        # Pre-charge one receiver's horizon so its completion diverges.
        net.send(5, [d for d in range(1, 10) if d != 5][0], Payload(9))
        net.send_many(0, [d for d in range(1, 10) if d != 5], Payload(0))
        sim.run_until_idle()
        times = sorted(entry[0] for entry in log)
        assert len(log) == 9
        assert times[0] < times[-1]  # the busy receiver finished later

    def test_dead_receiver_dropped_and_counted(self):
        sim, net, log = build(OccupancyLatency(0.001, rx_overhead=0.0005, seed=5))
        net.nodes[3].alive = False
        net.send_many(0, list(range(1, 6)), Payload(0))
        sim.run_until_idle()
        assert len(log) == 4
        assert net.metrics.counters["dropped"] == 1
        # The dead node's bytes were never accounted as received.
        assert 3 not in net.metrics.bytes_received

    def test_tx_charging_serializes_the_sender(self):
        sim, net, log = build(
            OccupancyLatency(0.001, tx_overhead=0.001, rx_overhead=0.0, seed=5)
        )
        net.send_many(0, [1, 2, 3], Payload(0))
        sim.run_until_idle()
        # Arrivals step by tx_overhead, FIFO in send order.
        assert [(round(t, 9), d) for t, d, _ in log] == [
            (0.002, 1), (0.003, 2), (0.004, 3),
        ]
        assert net._busy[0] == pytest.approx(0.003)


class TestOccupancyLatencyModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            OccupancyLatency(-0.1)
        with pytest.raises(ValueError):
            OccupancyLatency(0.001, tx_overhead=-1.0)
        with pytest.raises(ValueError):
            OccupancyLatency(0.001, rx_overhead=-1.0)

    def test_costs_and_flags(self):
        m = OccupancyLatency(0.002, tx_overhead=0.0001, rx_overhead=0.0005,
                             node_bandwidth=1e6)
        assert m.uniform_delay == 0.002
        assert m.expected_owd(1, 2) == 0.002
        assert m.occupancy_batchable()
        assert not m.zero_cost()
        assert m.tx_cost(1, 1000) == pytest.approx(0.0001 + 0.001)
        assert m.rx_cost(1, 1000) == pytest.approx(0.0005 + 0.001)
        with pytest.raises(ValueError):
            OccupancyLatency(0.001, node_bandwidth=-1e6)
        with pytest.raises(ValueError):
            OccupancyLatency(0.001, node_bandwidth=0)

    def test_sampled_cost_override_falls_back_to_per_message_path(self):
        # A subclass overriding cost methods without declaring them
        # deterministic must not be batch-charged (conservative default,
        # same policy as zero_cost's override detection).
        class SampledCosts(OccupancyLatency):
            deterministic_occupancy = None  # back to auto-detection

            def rx_cost(self, node, size_bytes):
                return self._rng.uniform(0.0001, 0.001)

        model = SampledCosts(0.001, seed=5)
        assert not model.occupancy_batchable()
        sim, net, log = build(model)
        assert not net._batch_occupancy
        net.send_many(0, list(range(1, 6)), Payload(0))
        events = sim.run_until_idle()
        assert len(log) == 5
        # Full per-message chain: one _deliver + one _process per message.
        assert events == 10
        # The in-repo deterministic overrides keep the fused path.
        assert ClusterLatency(seed=1).occupancy_batchable()
        from repro.sim.latency import PlanetLabLatency

        assert PlanetLabLatency(seed=1).occupancy_batchable()
