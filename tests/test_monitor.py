"""Tests for metric collection and phase accounting."""

import pytest

from repro.sim.monitor import DISSEMINATION, STABILIZATION, Metrics


def test_initial_phase_is_stabilization():
    m = Metrics()
    assert m.phase == STABILIZATION


def test_phase_transition_records_boundaries():
    m = Metrics()
    m.set_phase(DISSEMINATION, now=100.0)
    m.close(now=250.0)
    assert m.phase_duration(STABILIZATION) == 100.0
    assert m.phase_duration(DISSEMINATION) == 150.0


def test_set_same_phase_is_noop():
    m = Metrics()
    m.set_phase(STABILIZATION, now=50.0)
    assert m.phase_starts[STABILIZATION] == 0.0
    assert STABILIZATION not in m.phase_ends


def test_phase_reentry_accumulates_closed_intervals():
    # Two run_stream calls on one testbed: only in-phase time counts, not
    # the interleaved gap between close() and the next set_phase().
    m = Metrics()
    m.set_phase(DISSEMINATION, now=10.0)
    m.close(now=25.0)  # first stream: 15 s
    m.set_phase(DISSEMINATION, now=100.0)  # re-enter after a 75 s gap
    m.close(now=130.0)  # second stream: 30 s
    assert m.phase_duration(DISSEMINATION) == pytest.approx(45.0)
    assert m.phase_duration(STABILIZATION) == pytest.approx(10.0)


def test_close_is_idempotent():
    m = Metrics()
    m.set_phase(DISSEMINATION, now=10.0)
    m.close(now=20.0)
    m.close(now=50.0)  # no intervening set_phase: adds nothing
    assert m.phase_duration(DISSEMINATION) == pytest.approx(10.0)


def test_bytes_tagged_with_current_phase():
    m = Metrics()
    m.account_send(1, "data", 100)
    m.set_phase(DISSEMINATION, now=10.0)
    m.account_send(1, "data", 900)
    assert m.bytes_sent[1][STABILIZATION] == 100
    assert m.bytes_sent[1][DISSEMINATION] == 900
    assert m.node_bytes(1, DISSEMINATION) == 900
    assert m.total_bytes() == 1000
    assert m.total_bytes(DISSEMINATION) == 900


def test_msg_counts_by_kind():
    m = Metrics()
    m.account_send(1, "data", 10)
    m.account_send(2, "data", 10)
    m.account_send(1, "deactivate", 5)
    assert m.msg_counts["data"][STABILIZATION] == 2
    assert m.msg_counts["deactivate"][STABILIZATION] == 1


def test_first_delivery_vs_duplicates():
    m = Metrics()
    assert m.record_delivery(5, 0, 1, 1.0, sender=2, hops=3, path_delay=0.1)
    assert not m.record_delivery(5, 0, 1, 1.5, sender=3, hops=4, path_delay=0.2)
    assert m.streams[0].duplicates[5] == 1
    rec = m.records(0, 1)[5]
    assert rec.time == 1.0 and rec.sender == 2 and rec.hops == 3


def test_duplicates_per_node_includes_zero_for_clean_nodes():
    m = Metrics()
    m.record_delivery(1, 0, 0, 1.0, 0, 1, 0.0)
    m.record_delivery(1, 0, 0, 1.1, 2, 1, 0.0)
    assert m.duplicates_per_node([1, 2]) == [1, 0]


def test_records_query():
    m = Metrics()
    m.record_delivery(1, 0, 3, 2.5, 0, 1, 0.0)
    m.record_delivery(2, 0, 3, 2.7, 0, 1, 0.0)
    assert {n: rec.time for n, rec in m.records(0, 3).items()} == {1: 2.5, 2: 2.7}
    assert m.records(0, 4) == {}
    # An unknown stream answers empty without creating a shard.
    assert m.records(9, 0) == {} and 9 not in m.streams


def test_record_deliveries_disabled_still_counts_duplicates():
    m = Metrics(record_deliveries=False)
    assert m.record_delivery(1, 0, 0, 1.0, 0, 1, 0.0)
    assert not m.record_delivery(1, 0, 0, 1.2, 9, 2, 0.0)
    assert m.duplicates_per_node([1]) == [1]
    assert m.streams[0].first_deliveries == 1


def test_repair_and_probe_records():
    m = Metrics()
    m.record_parent_loss(5.0, 3)
    m.record_orphan(5.1, 3)
    m.record_repair(5.2, 3, "soft", duration=0.1)
    m.record_construction(3, start=1.0, end=1.5)
    assert m.parent_losses == [(5.0, 3)]
    assert m.orphan_events == [(5.1, 3)]
    assert m.repair_events[0].kind == "soft"
    assert m.construction_probes[0].duration == pytest.approx(0.5)


def test_injection_record():
    m = Metrics()
    m.record_injection(0, 7, 12.0)
    assert m.streams[0].injections[7] == 12.0


def test_counters():
    m = Metrics()
    m.incr("x")
    m.incr("x", 4)
    assert m.counters["x"] == 5


# ----------------------------------------------------------------------
# Per-stream shards + delivered_fraction (DESIGN.md §10)
# ----------------------------------------------------------------------
def test_streams_sharded_per_stream():
    m = Metrics()
    m.record_injection(0, 0, 1.0)
    m.record_delivery(1, 0, 0, 1.5, 9, 1, 0.0, payload_bytes=100)
    m.record_delivery(1, 0, 0, 1.6, 8, 2, 0.0, payload_bytes=100)  # dup
    m.record_delivery(1, 7, 0, 2.0, 9, 1, 0.0, payload_bytes=30)
    assert set(m.streams) == {0, 7}
    assert m.streams[0].first_deliveries == 1
    assert m.streams[0].duplicate_receptions == 1
    assert m.streams[0].payload_bytes == 100  # dup did not accrue
    assert m.streams[7].first_deliveries == 1
    assert m.streams[7].payload_bytes == 30
    assert m.records(0, 0)[1].sender == 9
    assert m.streams[0].injections[0] == 1.0
    assert m.records(7, 0) and not m.records(3, 0)
    assert m.duplicates_per_node([1, 2]) == [1, 0]  # summed across streams


def test_delivered_fraction_half_open_window():
    m = Metrics()
    # Stream 0: receivers {1, 2}; seqs 0 and 1 delivered to both, seq 2
    # delivered to node 1 only.
    for seq, nodes in ((0, (1, 2)), (1, (1, 2)), (2, (1,))):
        for node in nodes:
            m.record_delivery(node, 0, seq, 1.0, 0, 1, 0.0)
    # Half-open [0, 2): seq 2 excluded — both receivers fully served.
    assert m.delivered_fraction(0, [1, 2], window=(0, 2)) == 1.0
    # Half-open [0, 3): seq 2 missing at node 2 — 5 of 6 pairs.
    assert m.delivered_fraction(0, [1, 2], window=(0, 3)) == pytest.approx(5 / 6)
    # [2, 3): exactly the boundary seq — the windows partition cleanly.
    assert m.delivered_fraction(0, [1, 2], window=(2, 3)) == pytest.approx(1 / 2)
    assert m.stream_delivery_count(0, [1, 2], window=(0, 2)) + m.stream_delivery_count(
        0, [1, 2], window=(2, 3)
    ) == m.stream_delivery_count(0, [1, 2], window=(0, 3))


def test_delivered_fraction_default_window_spans_injections():
    m = Metrics()
    m.record_injection(0, 0, 1.0)
    m.record_injection(0, 1, 2.0)
    m.record_delivery(1, 0, 0, 1.5, 9, 1, 0.0)
    # Default window = [0, 2): node 1 got 1 of 2.
    assert m.delivered_fraction(0, [1]) == pytest.approx(1 / 2)
    # Deliveries beyond the injected window don't inflate the default.
    m.record_delivery(1, 0, 1, 2.5, 9, 1, 0.0)
    assert m.delivered_fraction(0, [1]) == 1.0


def test_delivered_fraction_degenerate_cases():
    m = Metrics()
    assert m.delivered_fraction(0, []) == 1.0  # empty audience: vacuous
    assert m.delivered_fraction(0, [1]) == 0.0  # nothing injected
    assert m.delivered_fraction(0, [1], window=(3, 3)) == 1.0  # empty window
    assert m.stream_delivery_count(5, [1], window=(0, 4)) == 0  # unknown stream
