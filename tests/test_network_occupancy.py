"""Tests for the per-destination delivery plan (DESIGN.md §2).

Every latency model that charges occupancy or samples propagation takes
one loop, shared by ``send`` and ``send_many``: a fan-out through
``send_many`` must produce byte/message totals, busy horizons, delivery
timestamps *and* delivery order identical to the same messages sent one
``send`` at a time — the accounting-parity requirement on
``Metrics.account_send_many``.  Only a zero-cost uniform model takes
the fused plan instead (one event per fan-out).
"""

from functools import partial

import pytest

from repro.sim.engine import Simulator
from repro.sim.latency import ClusterLatency, ConstantLatency, OccupancyLatency
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
        {k: dict(v) for k, v in m.sent_by_phase.items()},
        {k: dict(v) for k, v in m.received_by_phase.items()},
        {k: dict(v) for k, v in m.msg_counts.items()},
        dict(m.counters),
    )


class ZeroCostJitter(ConstantLatency):
    """Zero-cost *and* sampled — a combination no in-tree model has, so
    the one leaf of the shared loop nothing else reaches: no occupancy
    (``_deliver_fast`` arrivals), per-message draws, FIFO clamp on."""

    def __init__(self, delay, seed=0):
        super().__init__(delay, seed)
        self.uniform_delay = None

    def sample(self, src, dst):
        return self.delay * self._rng.uniform(0.5, 1.5)


# Factories: every run needs a model with a fresh RNG stream.
occupancy = partial(OccupancyLatency, 0.001, seed=5)
MODELS = [
    partial(occupancy, tx_overhead=0.0, rx_overhead=0.0005),     # receive-bound
    partial(occupancy, tx_overhead=0.0003, rx_overhead=0.0005),  # both directions
    partial(occupancy, tx_overhead=0.0002, rx_overhead=0.0, node_bandwidth=1e6),  # NIC-bound
    partial(ZeroCostJitter, 0.001, seed=5),
]


class TestFusedOccupancyParity:
    @pytest.mark.parametrize("model", MODELS, ids=["rx", "tx+rx", "nic", "jitter"])
    def test_send_many_matches_per_message_sends(self, model):
        def run(batched):
            sim, net, log = build(model())
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
        fanned = run(True)
        # Identical delivery log: same timestamps, same order, same
        # receivers — and identical byte/message totals (the
        # account_send_many parity requirement).
        assert per_message == fanned

    def test_zero_cost_fan_parity_with_per_message(self):
        # The fused plan obeys the same contract.
        def run(batched):
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
        # ClusterLatency samples propagation per message: one tx_cost
        # probe per fan-out must reproduce the per-message accounting
        # totals and sender horizon.
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


class TestPlanSelection:
    @pytest.mark.parametrize(
        "model, events",
        [
            (partial(ConstantLatency, 0.001, seed=5), 1),
            (partial(occupancy, rx_overhead=0.0005), 18),
            (partial(ClusterLatency, seed=5), 18),
        ],
        ids=["constant", "occupancy", "cluster"],
    )
    def test_nine_way_fan_event_count(self, model, events):
        # Fused plan: the whole fan-out is one _deliver_fan event.
        # Per-destination plan: one arrival + one receive-queue
        # completion event per message.
        sim, net, log = build(model())
        assert net._fused == (events == 1)
        net.send_many(0, list(range(1, 10)), Payload(0))
        assert sim.run_until_idle() == events
        assert sorted(entry[1] for entry in log) == list(range(1, 10))
        if net.latency.uniform_delay is not None:
            # Uniform propagation, free sender, drained horizons: FIFO
            # in send order, every completion at the same instant.
            assert [entry[1] for entry in log] == list(range(1, 10))
            rx_cost = net.latency.rx_cost(1, Payload(0).size_bytes())
            assert {entry[0] for entry in log} == {0.001 + rx_cost}


class TestFusedOccupancyBehaviour:
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
        assert all(3 not in book for book in net.metrics.received_by_phase.values())

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
        assert not m.zero_cost()
        assert m.tx_cost(1, 1000) == pytest.approx(0.0001 + 0.001)
        assert m.rx_cost(1, 1000) == pytest.approx(0.0005 + 0.001)
        with pytest.raises(ValueError):
            OccupancyLatency(0.001, node_bandwidth=-1e6)
        with pytest.raises(ValueError):
            OccupancyLatency(0.001, node_bandwidth=0)
