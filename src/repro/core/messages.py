"""BRISA wire messages (§II).

``Data`` carries the stream payload plus the cycle-prevention metadata of
the active predictor: the embedded source path for trees (§II-D), a depth
label for DAGs (§II-G), or a Bloom filter of ancestors for the comparison
baseline.  :func:`meta_bytes` is the one statement of the §II-D cost
argument every message carrying a position charges — paths cost
``hops × 6`` bytes, depths 4 bytes, Blooms ``ceil(bits/8)`` bytes.

``sent_at``/``path_delay`` are measurement timestamps a real
implementation carries anyway (Fig. 9 sums per-hop delays); they add a
fixed 8 bytes to the accounting.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

from repro.ids import DEPTH_BYTES, NODE_ID_BYTES, SEQ_BYTES, NodeId, StreamId
from repro.sim.message import Message

#: Stream identifier wire size.
STREAM_BYTES = 2
#: Per-hop measurement header (timestamp + cumulative delay).
MEASURE_BYTES = 8


def meta_bytes(path=None, depth=None, bloom=None, bloom_bits: int = 0) -> int:
    """Wire cost of the cycle-prevention metadata a message carries."""
    meta = 0
    if path is not None:
        meta += len(path) * NODE_ID_BYTES
    if depth is not None:
        meta += DEPTH_BYTES
    if bloom is not None:
        meta += (bloom_bits + 7) // 8
    return meta


class Data(Message):
    """One stream message relayed along the emerging structure."""

    kind = "brisa_data"
    __slots__ = (
        "stream",
        "seq",
        "payload_bytes",
        "path",
        "depth",
        "bloom",
        "bloom_bits",
        "hops",
        "path_delay",
        "sent_at",
        "recovered",
    )

    def __init__(
        self,
        stream: StreamId,
        seq: int,
        payload_bytes: int,
        *,
        path: Optional[tuple[NodeId, ...]] = None,
        depth: Optional[int] = None,
        bloom: Optional[int] = None,
        bloom_bits: int = 0,
        hops: int = 0,
        path_delay: float = 0.0,
        sent_at: float = 0.0,
        recovered: bool = False,
    ) -> None:
        self.stream = stream
        self.seq = seq
        self.payload_bytes = payload_bytes
        self.path = path
        self.depth = depth
        self.bloom = bloom
        self.bloom_bits = bloom_bits
        self.hops = hops
        self.path_delay = path_delay
        self.sent_at = sent_at
        self.recovered = recovered

    def body_bytes(self) -> int:
        meta = meta_bytes(self.path, self.depth, self.bloom, self.bloom_bits)
        return STREAM_BYTES + SEQ_BYTES + MEASURE_BYTES + meta + self.payload_bytes


class Deactivate(Message):
    """'Stop relaying this stream to me' — prunes one inbound link."""

    kind = "brisa_deactivate"
    __slots__ = ("stream",)

    def __init__(self, stream: StreamId) -> None:
        self.stream = stream

    def body_bytes(self) -> int:
        return STREAM_BYTES


@lru_cache(maxsize=4096)
def deactivate(stream: StreamId) -> Deactivate:
    """The shared :class:`Deactivate` of ``stream``.

    Its only field is the stream id and receivers only read it (the wire
    abstraction: a message is immutable once sent), so the thousands of
    prunes of one emergence share one instance and one size computation.
    """
    return Deactivate(stream)


class Activate(Message):
    """'Resume relaying this stream to me'.

    ``adopt`` marks a repair adoption: the receiver answers with
    :class:`ActivateAck` carrying its current cycle-prevention metadata so
    the adopter can re-validate eligibility before committing (§II-F).
    """

    kind = "brisa_activate"
    __slots__ = ("stream", "adopt")

    def __init__(self, stream: StreamId, adopt: bool = False) -> None:
        self.stream = stream
        self.adopt = adopt

    def body_bytes(self) -> int:
        return STREAM_BYTES + 1


class ActivateAck(Message):
    """Parent-side confirmation of an adoption Activate."""

    kind = "brisa_activate_ack"
    __slots__ = ("stream", "path", "depth", "bloom", "bloom_bits")

    def __init__(
        self,
        stream: StreamId,
        *,
        path: Optional[tuple[NodeId, ...]] = None,
        depth: Optional[int] = None,
        bloom: Optional[int] = None,
        bloom_bits: int = 0,
    ) -> None:
        self.stream = stream
        self.path = path
        self.depth = depth
        self.bloom = bloom
        self.bloom_bits = bloom_bits

    def body_bytes(self) -> int:
        return STREAM_BYTES + meta_bytes(self.path, self.depth, self.bloom, self.bloom_bits)


class ReactivateOrder(Message):
    """Hard-repair wave: 'your parent re-bootstrapped; re-activate your
    inbound links unless you can find a replacement parent' (§II-F)."""

    kind = "brisa_reactivate_order"
    __slots__ = ("stream",)

    def __init__(self, stream: StreamId) -> None:
        self.stream = stream

    def body_bytes(self) -> int:
        return STREAM_BYTES


class DepthUpdate(Message):
    """DAG-mode depth change pushed to downstream children (§II-G)."""

    kind = "brisa_depth_update"
    __slots__ = ("stream", "depth")

    def __init__(self, stream: StreamId, depth: int) -> None:
        self.stream = stream
        self.depth = depth

    def body_bytes(self) -> int:
        return STREAM_BYTES + meta_bytes(depth=self.depth)


class BloomUpdate(Message):
    """Bloom ancestor-filter change pushed to downstream children.

    The Bloom predictor's counterpart of :class:`DepthUpdate`: a filter
    frozen at adoption time can never circulate the evidence of a
    concurrently-formed cycle, so filter *growth* is pushed down and
    folded into children's filters until the (monotone, bit-bounded)
    union reaches a fixpoint — around a cycle, until some member sees
    its own bits and breaks it.
    """

    kind = "brisa_bloom_update"
    __slots__ = ("stream", "bloom", "bloom_bits")

    def __init__(self, stream: StreamId, bloom: int, bloom_bits: int = 1024) -> None:
        self.stream = stream
        self.bloom = bloom
        self.bloom_bits = bloom_bits

    def body_bytes(self) -> int:
        return STREAM_BYTES + meta_bytes(bloom=self.bloom, bloom_bits=self.bloom_bits)


class RetransmitRequest(Message):
    """Ask a (new) parent for everything past ``have_up_to`` (§II-F)."""

    kind = "brisa_retransmit"
    __slots__ = ("stream", "have_up_to")

    def __init__(self, stream: StreamId, have_up_to: int) -> None:
        self.stream = stream
        self.have_up_to = have_up_to

    def body_bytes(self) -> int:
        return STREAM_BYTES + SEQ_BYTES
