"""Length-prefixed wire codec for the protocol message classes.

The asyncio backend ships the exact message objects the simulator passes
by reference: every concrete :class:`repro.sim.message.Message` subclass
in :mod:`repro.core.messages` and :mod:`repro.membership.messages` is
registered here by its ``kind`` string and serialized field-for-field
from the ``__slots__`` along its MRO (``wire_fields``).

Frame layout: a 4-byte big-endian payload length, then a UTF-8 JSON
object ``{"k": <kind>, "f": {<field>: <value>, ...}}``.  JSON keeps the
codec honest about the message inventory (arbitrary objects cannot
sneak through, unlike pickle), handles the Bloom ancestor filters —
arbitrary-precision ints, up to 1024 bits — natively, and is cheap to
debug on the wire.  Tuples flatten to JSON arrays and are re-tupled
recursively on decode (paths, shuffle entry lists), restoring the exact
immutable shape the protocol code hashes and compares.

Decode never trusts the peer: unknown kinds, truncated frames,
oversized declarations, junk JSON, and field mismatches all raise
:class:`WireCodecError` instead of half-building a message.
"""

from __future__ import annotations

import json
import struct
from typing import Iterator

from repro.errors import ReproError
from repro.sim.message import Message, wire_fields

#: Frame header: big-endian payload byte length.
_LEN = struct.Struct("!I")
LENGTH_PREFIX_BYTES = _LEN.size

#: Refuse to allocate for absurd length declarations (a corrupt or
#: hostile prefix must not buffer gigabytes).  Generous: the largest
#: legitimate frame is a Data message with a multi-KB payload field.
MAX_FRAME_BYTES = 1 << 20


class WireCodecError(ReproError):
    """A frame could not be encoded or decoded."""


def _message_classes() -> Iterator[type[Message]]:
    from repro.core import messages as core_messages
    from repro.membership import messages as membership_messages

    # Only the classes each module defines: imported bases (``Message``,
    # ``StreamData``) are not kinds on the wire.
    for module in (core_messages, membership_messages):
        for obj in vars(module).values():
            if (
                isinstance(obj, type)
                and issubclass(obj, Message)
                and obj.__module__ == module.__name__
            ):
                yield obj


#: kind -> (class, field names); built once at import.
REGISTRY: dict[str, tuple[type[Message], tuple[str, ...]]] = {
    cls.kind: (cls, wire_fields(cls)) for cls in _message_classes()
}


def _retuple(value):
    """JSON arrays back to the tuples the protocol code expects."""
    if isinstance(value, list):
        return tuple(_retuple(v) for v in value)
    return value


def encode_message(msg: Message) -> bytes:
    """Message object -> JSON payload bytes (no length prefix)."""
    entry = REGISTRY.get(msg.kind)
    if entry is None or not isinstance(msg, entry[0]):
        raise WireCodecError(f"unregistered message type {type(msg).__name__!r}")
    fields = {name: getattr(msg, name) for name in entry[1]}
    return json.dumps({"k": msg.kind, "f": fields}, separators=(",", ":")).encode()


def decode_message(payload: bytes) -> Message:
    """JSON payload bytes -> message object; raises :class:`WireCodecError`."""
    try:
        obj = json.loads(payload)
    except (ValueError, UnicodeDecodeError) as exc:
        raise WireCodecError(f"undecodable frame payload: {exc}") from exc
    if not isinstance(obj, dict) or not isinstance(obj.get("f"), dict):
        raise WireCodecError("frame payload is not a {k, f} object")
    entry = REGISTRY.get(obj.get("k"))
    if entry is None:
        raise WireCodecError(f"unknown message kind {obj.get('k')!r}")
    cls, names = entry
    fields = obj["f"]
    if set(fields) != set(names):
        raise WireCodecError(
            f"field mismatch for {cls.__name__}: got {sorted(fields)}, "
            f"want {sorted(names)}"
        )
    msg = cls.__new__(cls)
    for name in names:
        setattr(msg, name, _retuple(fields[name]))
    return msg


def encode_frame(msg: Message) -> bytes:
    """Message -> one length-prefixed frame."""
    payload = encode_message(msg)
    if len(payload) > MAX_FRAME_BYTES:
        raise WireCodecError(f"frame too large ({len(payload)} bytes)")
    return _LEN.pack(len(payload)) + payload


def decode_frame(data: bytes, offset: int = 0) -> tuple[Message, int]:
    """One frame at ``offset`` -> (message, next offset).

    Raises :class:`WireCodecError` on a truncated header, a length
    declaration past :data:`MAX_FRAME_BYTES`, or a payload shorter than
    declared — a datagram transport treats any of these as a poisoned
    packet and drops it.
    """
    if len(data) - offset < LENGTH_PREFIX_BYTES:
        raise WireCodecError("truncated frame header")
    (length,) = _LEN.unpack_from(data, offset)
    if length > MAX_FRAME_BYTES:
        raise WireCodecError(f"declared frame length {length} exceeds cap")
    start = offset + LENGTH_PREFIX_BYTES
    end = start + length
    if len(data) < end:
        raise WireCodecError("truncated frame payload")
    return decode_message(data[start:end]), end
