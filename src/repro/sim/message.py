"""Base wire-message class with size accounting.

Each concrete message declares a class-level ``kind`` string; protocol
nodes dispatch on it via ``on_<kind>`` handler methods (see
:class:`repro.sim.node.ProtocolNode`).  ``size_bytes`` drives the byte
accounting behind every bandwidth figure — subclasses add payload and
metadata (embedded paths, depth labels, digests) on top of the fixed
framing overhead.  :class:`StreamData` is the one stream-data wire
format every dissemination stack ships (DESIGN.md §14, "The stream-data
message").
"""

from __future__ import annotations

from repro.ids import HEADER_BYTES, MEASURE_BYTES, SEQ_BYTES, STREAM_BYTES, StreamId


class Message:
    """Base class for every simulated wire message."""

    kind: str = "message"
    #: Name of the ``on_<kind>`` method that handles this class, derived
    #: once per class so dispatch builds no string per delivery.
    handler: str = "on_message"

    __slots__ = ("_size",)

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.handler = "on_" + cls.kind

    def size_bytes(self) -> int:
        """Total on-the-wire size, including framing overhead.

        Memoized: a message is immutable once handed to the network (the
        wire abstraction — fan-outs share one instance), so the size is
        computed once even when an instance is sent many times.  A fresh
        message's empty slot reads as ``None`` through ``getattr``'s
        default, which settles the miss in C: no exception reaches
        Python for the (usual) message that is sent once.
        """
        size = getattr(self, "_size", None)
        if size is None:
            size = self._size = HEADER_BYTES + self.body_bytes()
        return size

    def body_bytes(self) -> int:
        """Payload + metadata size; subclasses override."""
        return 0

    def __repr__(self) -> str:
        inner = ", ".join(f"{f}={getattr(self, f)!r}" for f in wire_fields(type(self)))
        return f"{type(self).__name__}({inner})"


def wire_fields(cls: type[Message]) -> tuple[str, ...]:
    """Field names of a message class, in declaration order.

    Walks the MRO's ``__slots__`` (base-class first), excluding the
    ``Message`` size-memo slot — the wire decoder rebuilds instances
    field by field and lets ``size_bytes()`` re-memoize lazily.
    """
    return tuple(
        name
        for klass in reversed(cls.__mro__)
        for name in getattr(klass, "__slots__", ())
        if name != "_size"
    )


class StreamData(Message):
    """One stream message: the payload plus the per-hop measurement every
    stack carries the same way, so bandwidth and Fig. 9's cumulative
    per-hop delay compare across stacks.  Concrete kinds subclass it and
    declare only their ``kind`` (and any field of their own)."""

    __slots__ = ("stream", "seq", "payload_bytes", "hops", "path_delay", "sent_at")

    def __init__(
        self,
        stream: StreamId,
        seq: int,
        payload_bytes: int,
        hops: int = 0,
        path_delay: float = 0.0,
        sent_at: float = 0.0,
    ) -> None:
        self.stream = stream
        self.seq = seq
        self.payload_bytes = payload_bytes
        self.hops = hops
        self.path_delay = path_delay
        self.sent_at = sent_at

    def body_bytes(self) -> int:
        return STREAM_BYTES + SEQ_BYTES + MEASURE_BYTES + self.payload_bytes
