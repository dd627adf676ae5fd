"""Bounded message buffer for post-repair retransmission (§II-F).

"Nodes can compensate message loss during the parent recovery process by
directly asking its new found parent to send the missing ones. Since
parent recovery is quick the number of messages each parent needs to
buffer is small."  The buffer keeps the last ``capacity`` sequence
numbers (with their payload sizes — the simulator never materializes
payload bits) in insertion order, in a plain dict (insertion-ordered,
and smaller than an ``OrderedDict``'s linked list).
"""

from __future__ import annotations

from typing import Iterator, Optional


class MessageBuffer:
    """Fixed-capacity per-stream buffer of (seq -> payload size)."""

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = capacity
        self._items: dict[int, int] = {}

    def store(self, seq: int, payload_bytes: int) -> None:
        """Buffer ``seq`` as the newest entry, evicting the oldest past
        ``capacity``.  Re-storing a buffered seq only makes it the newest
        (its size stays)."""
        if self.capacity == 0:
            return
        items = self._items
        if seq in items:
            items[seq] = items.pop(seq)
            return
        items[seq] = payload_bytes
        if len(items) > self.capacity:
            del items[next(iter(items))]

    def __contains__(self, seq: int) -> bool:
        return seq in self._items

    def __len__(self) -> int:
        return len(self._items)

    def get(self, seq: int) -> Optional[int]:
        return self._items.get(seq)

    @property
    def latest(self) -> Optional[int]:
        """Highest buffered sequence number (None when empty)."""
        return max(self._items) if self._items else None

    def after(self, have_up_to: int) -> Iterator[tuple[int, int]]:
        """Buffered ``(seq, payload_bytes)`` with ``seq > have_up_to``,
        in ascending sequence order."""
        for seq in sorted(self._items):
            if seq > have_up_to:
                yield seq, self._items[seq]

    def clear(self) -> None:
        self._items.clear()
