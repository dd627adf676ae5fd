"""Tests for the retransmission buffer (§II-F)."""

from collections import OrderedDict

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.recovery import MessageBuffer


def test_store_and_lookup():
    buf = MessageBuffer(capacity=4)
    buf.store(1, 100)
    assert 1 in buf
    assert buf.get(1) == 100
    assert len(buf) == 1


def test_capacity_evicts_oldest_insertion():
    buf = MessageBuffer(capacity=3)
    for seq in range(5):
        buf.store(seq, seq * 10)
    assert 0 not in buf and 1 not in buf
    assert all(s in buf for s in (2, 3, 4))


def test_after_returns_sorted_gap_fill():
    buf = MessageBuffer(capacity=10)
    for seq in (5, 3, 9, 7):
        buf.store(seq, seq)
    assert list(buf.after(4)) == [(5, 5), (7, 7), (9, 9)]
    assert list(buf.after(9)) == []


def test_latest():
    buf = MessageBuffer(capacity=4)
    assert buf.latest is None
    buf.store(2, 1)
    buf.store(7, 1)
    assert buf.latest == 7


def test_duplicate_store_keeps_single_entry():
    buf = MessageBuffer(capacity=2)
    buf.store(1, 10)
    buf.store(1, 10)
    assert len(buf) == 1


def test_duplicate_store_refreshes_recency():
    buf = MessageBuffer(capacity=2)
    buf.store(1, 10)
    buf.store(2, 20)
    buf.store(1, 10)  # refresh: now 2 is the oldest
    buf.store(3, 30)  # evicts 2
    assert 1 in buf and 3 in buf and 2 not in buf


def test_zero_capacity_buffers_nothing():
    buf = MessageBuffer(capacity=0)
    buf.store(1, 10)
    assert len(buf) == 0
    assert list(buf.after(0)) == []


def test_negative_capacity_rejected():
    with pytest.raises(ValueError):
        MessageBuffer(capacity=-1)


def test_clear():
    buf = MessageBuffer(capacity=4)
    buf.store(1, 1)
    buf.clear()
    assert len(buf) == 0


def _reference_store(items: OrderedDict, capacity: int, seq: int, size: int) -> None:
    """The buffer's store rule on an ``OrderedDict``: a re-store only
    refreshes recency, a new seq evicts the oldest past ``capacity``."""
    if capacity == 0:
        return
    if seq in items:
        items.move_to_end(seq)
        return
    items[seq] = size
    while len(items) > capacity:
        items.popitem(last=False)


@given(
    st.sampled_from([0, 1, 64]),
    # Seqs from a small range so re-stores of buffered seqs are common;
    # a re-store may carry a different size (the first one must stay).
    st.lists(st.tuples(st.integers(0, 80), st.integers(0, 5)), max_size=300),
)
def test_buffer_matches_ordered_dict_reference(capacity, ops):
    buf = MessageBuffer(capacity)
    ref: OrderedDict = OrderedDict()
    for seq, size in ops:
        buf.store(seq, size)
        _reference_store(ref, capacity, seq, size)
        assert list(buf._items.items()) == list(ref.items())
        assert len(buf) == len(ref)
        assert buf.latest == (max(ref) if ref else None)
        assert list(buf.after(seq - 1)) == sorted(
            (s, n) for s, n in ref.items() if s > seq - 1
        )
    assert list(buf.after(-1)) == sorted(ref.items())
    assert all(buf.get(s) == n and s in buf for s, n in ref.items())
