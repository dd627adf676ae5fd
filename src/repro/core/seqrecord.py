"""The delivered seqs of one stream at one node, in O(gaps) memory.

Every stack keeps this record per stream (DESIGN.md §14, "The sequence
record"): BRISA as the base of its ``StreamState``, each baseline in a
:class:`SeqRecords` map.  It is the prefix ``max_contig``, the
never-delivered runs at or below it (``holes``) and the delivered seqs
above it (``ahead``), with a counter beside them.  ``note_delivered`` is
the only writer; ``delivered`` is a read-only set view.

``horizon`` is the one difference between callers.  BRISA's is its
retransmit buffer's capacity: nothing more than that far below a new
delivery can still be replayed, so the prefix moves past it and the
skipped seqs become holes.  PullGossip's bounds ``ahead`` past the gaps
it gives up on.  The other baselines have none, so ``max_contig`` is
their exact contiguous prefix and ``holes`` stays empty.  Membership is
exact either way.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator, Set
from dataclasses import dataclass, field
from typing import Optional

from repro.ids import StreamId


@dataclass(slots=True)
class SeqRecord:
    #: Depth of the recovery horizon below each new delivery, or None for
    #: no horizon (the prefix waits for every seq).  Derived, never passed:
    #: ``StreamState`` sets its buffer's capacity, ``SeqRecords`` its own.
    horizon: Optional[int] = field(default=None, init=False)
    #: Every seq <= it is delivered or, with a horizon, can no longer be
    #: replayed (DESIGN.md §14).  Without a horizon: the delivered prefix.
    max_contig: int = field(default=-1, init=False)
    #: Delivered seqs above ``max_contig``; with a horizon, at most
    #: ``horizon`` of them.
    ahead: set[int] = field(default_factory=set, init=False)
    #: Never-delivered runs at or below ``max_contig`` as sorted half-open
    #: bounds ``[lo0, hi0, lo1, hi1, ...]``: ``seq`` is in a hole iff
    #: ``bisect_right(holes, seq)`` is odd.  One run per gap the horizon
    #: passed, split by a late first copy.
    holes: list[int] = field(default_factory=list, init=False)
    #: Distinct seqs delivered (``len(delivered)``).
    delivered_n: int = field(default=0, init=False)

    def note_delivered(self, seq: int) -> bool:
        """Record a reception of ``seq``; return whether it was the first.
        The only writer of the record.  With a horizon, a first copy of
        ``seq`` moves the prefix up to ``seq - horizon`` first, its
        undelivered seqs becoming a hole; then the delivered seqs above
        the prefix fold in."""
        contig = self.max_contig
        if seq <= contig:
            holes = self.holes
            if not holes:
                return False
            i = bisect_right(holes, seq)
            if not i & 1:
                return False
            # A late first copy inside the hole [lo, hi): what is left is
            # [lo, seq) and [seq + 1, hi), either of them maybe empty.
            lo, hi = holes[i - 1], holes[i]
            holes[i - 1:i + 1] = [
                bound for run in ((lo, seq), (seq + 1, hi)) if run[0] < run[1]
                for bound in run
            ]
            self.delivered_n += 1
            return True
        ahead = self.ahead
        if seq in ahead:
            return False
        self.delivered_n += 1
        if seq == contig + 1:
            contig = seq
        else:
            ahead.add(seq)
            if self.horizon is not None and seq - self.horizon > contig:
                self._pass_horizon(contig, seq - self.horizon)
                contig = seq - self.horizon
        while contig + 1 in ahead:
            contig += 1
            ahead.remove(contig)
        self.max_contig = contig
        return True

    def _pass_horizon(self, contig: int, horizon: int) -> None:
        """Move the delivered seqs in ``(contig, horizon]`` out of
        ``ahead`` and record the rest of that range as holes."""
        ahead = self.ahead
        caught = sorted(s for s in ahead if s <= horizon)
        ahead.difference_update(caught)
        holes = self.holes
        lo = contig + 1
        for seq in caught + [horizon + 1]:
            if seq > lo:
                if holes and holes[-1] == lo:
                    holes[-1] = seq
                else:
                    holes += (lo, seq)
            lo = seq + 1

    def __contains__(self, seq: int) -> bool:
        if seq > self.max_contig:
            return seq in self.ahead
        return seq >= 0 and not bisect_right(self.holes, seq) & 1

    @property
    def delivered(self) -> DeliveredSeqs:
        """The delivered seqs as a read-only set."""
        return DeliveredSeqs(self)


class DeliveredSeqs(Set):
    """Read-only set view of a :class:`SeqRecord`: ``[0, max_contig]``
    minus the holes, plus ``ahead``.  Set operators against it return
    plain sets."""

    __slots__ = ("_record",)

    def __init__(self, record: SeqRecord) -> None:
        self._record = record

    def __contains__(self, seq: object) -> bool:
        return seq in self._record

    def __len__(self) -> int:
        return self._record.delivered_n

    def __iter__(self) -> Iterator[int]:
        record = self._record
        holes = record.holes
        lo = 0
        for k in range(0, len(holes), 2):
            yield from range(lo, holes[k])
            lo = holes[k + 1]
        yield from range(lo, record.max_contig + 1)
        yield from sorted(record.ahead)

    @classmethod
    def _from_iterable(cls, it) -> set[int]:
        return set(it)

    def __repr__(self) -> str:
        return f"DeliveredSeqs({set(self)!r})"


class SeqRecords(dict[StreamId, SeqRecord]):
    """A baseline node's records, stream -> :class:`SeqRecord`, each with
    ``horizon`` (none unless the stack passes one); indexing a new stream
    makes its record."""

    __slots__ = ("horizon",)

    def __init__(self, horizon: Optional[int] = None) -> None:
        super().__init__()
        self.horizon = horizon

    def __missing__(self, stream: StreamId) -> SeqRecord:
        record = self[stream] = SeqRecord()
        record.horizon = self.horizon
        return record

    def delivered_count(self, stream: StreamId) -> int:
        record = self.get(stream)
        return record.delivered_n if record is not None else 0
