"""Base wire-message class with size accounting.

Each concrete message declares a class-level ``kind`` string; protocol
nodes dispatch on it via ``on_<kind>`` handler methods (see
:class:`repro.sim.node.ProtocolNode`).  ``size_bytes`` drives the byte
accounting behind every bandwidth figure — subclasses add payload and
metadata (embedded paths, depth labels, digests) on top of the fixed
framing overhead.
"""

from __future__ import annotations

from repro.ids import HEADER_BYTES


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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fields = getattr(self, "__slots__", ())
        inner = ", ".join(f"{f}={getattr(self, f)!r}" for f in fields)
        return f"{type(self).__name__}({inner})"
