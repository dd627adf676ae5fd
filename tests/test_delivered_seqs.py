"""The delivered-seq record every stack keeps (``core/seqrecord.py``,
DESIGN.md §14, "The sequence record"): ``note_delivered`` against a plain
``set`` plus the old contiguous-prefix fold, with BRISA's horizon and
with none, the O(gaps) bound on what it keeps, and the baselines'
records."""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.baselines.flood import FloodData, FloodNode
from repro.baselines.plumtree import Gossip, PlumTreeNode
from repro.baselines.pullgossip import PullData, PullGossipNode
from repro.baselines.simplegossip import Rumor, SimpleGossipNode
from repro.baselines.simpletree import SimpleTreeNode, TreeData
from repro.baselines.tag import Segment, TagNode, TagTracker
from repro.core.recovery import MessageBuffer
from repro.core.seqrecord import SeqRecord
from repro.core.state import StreamState
from tests.helpers import make_network


class Reference:
    """The record as a plain set: the delivered seqs, and the recovery
    prefix moved to ``seq - capacity`` (with a capacity) and folded over
    the set."""

    def __init__(self, capacity: int | None) -> None:
        self.capacity = capacity
        self.delivered: set[int] = set()
        self.max_contig = -1

    def note(self, seq: int) -> bool:
        first = seq not in self.delivered
        self.delivered.add(seq)
        if self.capacity is not None:
            self.max_contig = max(self.max_contig, seq - self.capacity)
        while self.max_contig + 1 in self.delivered:
            self.max_contig += 1
        return first


def check_against_reference(capacity: int | None, seqs: list[int]) -> None:
    """BRISA's record is its ``StreamState``, whose horizon is its buffer's
    capacity; a baseline's is a bare ``SeqRecord`` with no horizon."""
    if capacity is None:
        state = SeqRecord()
    else:
        state = StreamState(0, MessageBuffer(capacity))
    ref = Reference(capacity)
    top = max(seqs, default=0) + 2
    for seq in seqs:
        assert state.note_delivered(seq) == ref.note(seq), seq
        assert state.max_contig == ref.max_contig
        assert state.delivered_n == len(ref.delivered)
        if capacity is not None:
            assert len(state.ahead) <= capacity
        else:
            assert not state.holes
        # Canonical holes: disjoint, non-adjacent, none above the prefix.
        bounds = state.holes
        assert all(a < b for a, b in zip(bounds, bounds[1:]))
        assert not bounds or bounds[-1] <= state.max_contig + 1
        view = state.delivered
        assert [s for s in range(-1, top) if s in view] == sorted(ref.delivered)
        assert list(view) == sorted(ref.delivered)
        assert view == ref.delivered


def in_order_with_gaps(steps: list[int]) -> list[int]:
    seqs, seq = [], -1
    for step in steps:
        seq += step
        seqs.append(seq)
    return seqs


def shuffled_windows(draw, n: int, window: int) -> list[int]:
    seqs = []
    for lo in range(0, n, window):
        seqs += draw(st.permutations(range(lo, min(lo + window, n))))
    return seqs


@st.composite
def receptions(draw):
    """First-reception orders: arbitrary (repeats included), in order
    with gaps, out of order inside windows, and a joiner that starts
    mid-stream and then gets the older seqs a parent still buffers."""
    kind = draw(st.sampled_from(["arbitrary", "gaps", "windows", "joiner"]))
    if kind == "arbitrary":
        return draw(st.lists(st.integers(0, 200), max_size=120))
    if kind == "gaps":
        return in_order_with_gaps(
            draw(st.lists(st.integers(1, 80), max_size=120))
        )
    if kind == "windows":
        return shuffled_windows(
            draw, draw(st.integers(0, 150)), draw(st.integers(1, 70))
        )
    start = draw(st.integers(0, 1_100))
    replayed = list(range(max(0, start - 64), start))
    return (
        [start]
        + draw(st.permutations(replayed))
        + list(range(start + 1, start + draw(st.integers(0, 40))))
    )


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(capacity=st.sampled_from([0, 1, 4, 64, None]), seqs=receptions())
@example(capacity=64, seqs=[1_000] + list(range(936, 1_000)) + [1_001, 1_002])
@example(capacity=64, seqs=[1_000] + list(range(999, 935, -1)))
@example(capacity=0, seqs=[3, 1, 0, 2, 5, 5, 4])
@example(capacity=1, seqs=[2, 0, 4, 1, 3, 3, 7, 6])
@example(capacity=None, seqs=[1_000] + list(range(999, 935, -1)) + [0])
def test_note_delivered_matches_a_plain_set(capacity, seqs):
    check_against_reference(capacity, seqs)


def test_in_order_stream_keeps_no_seq():
    state = StreamState(0, MessageBuffer(64))
    for seq in range(2_000):
        assert state.note_delivered(seq)
    assert not state.note_delivered(1_999)
    assert state.max_contig == 1_999 and state.delivered_n == 2_000
    assert not state.ahead and not state.holes


def test_joiner_keeps_one_run_for_the_stream_it_missed():
    """A joiner whose first copy is seq 1 000 gets 936–999 replayed from
    its parent's buffer and then the stream: the seqs it never saw stay
    one hole, whatever order the replay takes."""
    for replay in (range(936, 1_000), range(999, 935, -1)):
        state = StreamState(0, MessageBuffer(64))
        state.note_delivered(1_000)
        assert state.holes == [0, 937] and state.max_contig == 936
        for seq in [*replay, *range(1_001, 3_000)]:
            state.note_delivered(seq)
        assert state.holes == [0, 936] and not state.ahead
        assert state.delivered_n == 3_000 - 936
        assert 935 not in state.delivered and 936 in state.delivered


def test_each_outage_costs_one_run():
    """A node that loses the stream for longer than a buffer's worth,
    three times over, keeps three holes and nothing above its prefix."""
    state = StreamState(0, MessageBuffer(64))
    outages = [(300, 500), (900, 1_000), (1_500, 1_800)]
    for seq in range(2_000):
        if any(lo <= seq < hi for lo, hi in outages):
            continue
        state.note_delivered(seq)
        if seq in (500, 1_000):
            # The new parent replays what it still buffers; after the
            # last outage nothing is replayed.
            for replayed in range(seq - 64, seq):
                state.note_delivered(replayed)
    assert state.holes == [300, 436, 900, 936, 1_500, 1_800]
    assert not state.ahead and state.max_contig == 1_999


BASELINES = {
    "flood": (FloodNode, FloodData),
    "plumtree": (PlumTreeNode, Gossip),
    "pullgossip": (PullGossipNode, PullData),
    "simplegossip": (SimpleGossipNode, Rumor),
    "simpletree": (lambda net, nid: SimpleTreeNode(net, nid, -1), TreeData),
    "tag": (lambda net, nid: TagNode(net, nid, TagTracker()), Segment),
}


@pytest.mark.parametrize("stack", sorted(BASELINES))
def test_baseline_record_keeps_no_seq_and_crash_clears_it(stack):
    """A baseline's record, written by its data handler: an in-order
    stream keeps nothing beside the prefix, and a crash drops it."""
    factory, data = BASELINES[stack]
    _, net, _ = make_network()
    node = net.spawn(factory)
    for seq in range(2_000):
        node.handle_message(-1, data(0, seq, 1))
    record = node.seqs[0]
    assert record.max_contig == 1_999 and node.delivered_count(0) == 2_000
    assert not record.ahead and not record.holes
    net.crash(node.node_id)
    assert node.delivered_count(0) == 0


def test_pull_record_keeps_a_lost_seq_as_a_hole():
    """PullGossip gives a gap up after its pull rounds, so its record has
    a horizon: a seq lost for good becomes a hole instead of keeping every
    later seq in ``ahead``, and a late copy of it is still a first."""
    _, net, _ = make_network()
    node = net.spawn(PullGossipNode)
    for seq in range(2_000):
        if seq != 5:
            node.handle_message(-1, PullData(0, seq, 1))
    record = node.seqs[0]
    assert record.holes == [5, 6] and record.max_contig == 1_999
    assert not record.ahead and node.missing[0] == {5: 0}
    node.handle_message(-1, PullData(0, 5, 1))
    assert not record.holes and node.delivered_count(0) == 2_000
