"""Tests for wire-size accounting across all message families."""

from repro.baselines.flood import FloodData
from repro.baselines.plumtree import Gossip, Graft, IHave, Prune
from repro.baselines.pullgossip import PullData, PullReply
from repro.baselines.simplegossip import Digest, Rumor
from repro.baselines.simpletree import TreeData, TreeJoinReply
from repro.baselines.tag import ListProbeReply, Pull, Segment
from repro.core.messages import (
    Activate,
    ActivateAck,
    BloomUpdate,
    Data,
    Deactivate,
    DepthUpdate,
    ReactivateOrder,
    RetransmitRequest,
    meta_bytes,
)
from repro.ids import (
    HEADER_BYTES,
    MEASURE_BYTES,
    NODE_ID_BYTES,
    SEQ_BYTES,
    STREAM_BYTES,
)
from repro.membership.messages import ForwardJoin, Join, Shuffle
from repro.sim.message import Message, StreamData, wire_fields


def test_base_message_is_header_only():
    assert Message().size_bytes() == HEADER_BYTES


def test_path_metadata_matches_paper_example():
    # §II-D: a 7-hop path with 48-bit ids costs 336 bits = 42 bytes.
    assert meta_bytes(path=tuple(range(7))) == 42
    assert NODE_ID_BYTES == 6


def test_data_payload_dominates_size():
    small = Data(0, 1, 0, path=(1,))
    big = Data(0, 1, 100_000, path=(1,))
    assert big.size_bytes() - small.size_bytes() == 100_000


def test_control_messages_are_tiny():
    for msg in (
        Deactivate(0),
        Activate(0),
        ReactivateOrder(0),
        DepthUpdate(0, 3),
        RetransmitRequest(0, 5),
        Prune(0),
        IHave(0, 1),
        Graft(0, 1),
        Join(),
    ):
        assert msg.size_bytes() < 2 * HEADER_BYTES, type(msg).__name__


def test_ack_meta_size_matches_predictor():
    assert ActivateAck(0, path=(1, 2, 3)).body_bytes() >= 3 * NODE_ID_BYTES
    assert ActivateAck(0, depth=4).body_bytes() < ActivateAck(0, path=(1, 2, 3)).body_bytes()


def test_bloom_metadata_costs_the_same_in_every_message():
    """§II-D: a filter of ``bits`` costs ceil(bits / 8) bytes whichever
    message carries it — ``bloom_bits`` need not be a multiple of 8."""
    bits = 12
    data = Data(0, 1, 0, bloom=1, bloom_bits=bits).body_bytes() - Data(0, 1, 0).body_bytes()
    ack = ActivateAck(0, bloom=1, bloom_bits=bits).body_bytes() - ActivateAck(0).body_bytes()
    update = BloomUpdate(0, 1, bits).body_bytes() - STREAM_BYTES
    assert data == ack == update == 2


def test_shuffle_scales_with_entries():
    small = Shuffle(0, (1,), 3)
    large = Shuffle(0, tuple(range(8)), 3)
    assert large.size_bytes() > small.size_bytes()


def test_forward_join_carries_id_and_ttl():
    assert ForwardJoin(5, 3).body_bytes() == NODE_ID_BYTES + 1


def test_digest_scales_with_extras():
    assert Digest(0, 5, frozenset({7, 9})).body_bytes() > Digest(0, 5, frozenset()).body_bytes()


def test_payload_messages_consistent_across_protocols():
    """All protocols ship the same payload at the same framing cost (fair
    bandwidth comparisons): every stream-data kind's body is stream id +
    seq + measurement header + payload, and BRISA's ``Data`` adds exactly
    its cycle-prevention metadata."""
    payload = 1024
    body = STREAM_BYTES + SEQ_BYTES + MEASURE_BYTES + payload
    kinds = (FloodData, PullData, PullReply, Gossip, Rumor, TreeData, Segment, Data)
    assert set(kinds) == _concrete_subclasses(StreamData)
    for cls in kinds:
        msg = cls(0, 1, payload, hops=5, path_delay=0.25, sent_at=3.0)
        assert msg.body_bytes() == body, cls.__name__
        assert msg.size_bytes() == HEADER_BYTES + body, cls.__name__
    for meta in (
        {"path": (1, 2, 3)},
        {"depth": 3},
        {"bloom": 1, "bloom_bits": 1024},
        {"path": (), "depth": 0},
    ):
        assert Data(0, 1, payload, **meta).body_bytes() == body + meta_bytes(**meta)


def _concrete_subclasses(cls) -> set[type]:
    """Every subclass of ``cls`` the program defines."""
    found = set()
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("repro."):
            found |= {sub} | _concrete_subclasses(sub)
    return found


def test_repr_names_every_wire_field():
    flood = FloodData(2, 9, 1024, hops=3, path_delay=0.5, sent_at=1.25)
    data = Data(2, 9, 1024, path=(4, 5), hops=3, sent_at=1.25, recovered=True)
    for msg in (flood, data):
        text = repr(msg)
        assert text.startswith(type(msg).__name__ + "(")
        for name in wire_fields(type(msg)):
            assert f"{name}={getattr(msg, name)!r}" in text, (name, text)
    assert "payload_bytes=1024" in repr(flood)
    assert "path=(4, 5)" in repr(data) and "recovered=True" in repr(data)


def test_tag_pull_and_probe_sizes():
    assert Pull(((0, 5),)).body_bytes() > 0
    assert ListProbeReply(1, 2, True).body_bytes() == 2 * NODE_ID_BYTES + 1
    assert TreeJoinReply(3).body_bytes() == NODE_ID_BYTES
