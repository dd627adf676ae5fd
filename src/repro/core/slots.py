"""The slot store under the two array flood kernels (DESIGN.md §9).

The one statement of the slot layout and lifecycle: the seen-cell
convention (the cell is the first-copy verdict a kernel books in
``Metrics``), :class:`SlotPlane` (one stream's per-slot columns) and
:class:`SlotKernel` (allocation and recycling, the fan-out rows — the
installed CSR plus per-slot overrides — and the dense plane index).  A
kernel subclasses :class:`SlotKernel` and adds only what a reception
*does*; a column added to :class:`SlotPlane` must also be grown in
``grow`` for a joiner and zeroed in ``clear`` on release
(tests/test_slots.py walks ``__slots__`` to hold that).
"""

from __future__ import annotations

from array import array

from repro.ids import NodeId, StreamId

#: Seen-map cell states: a reception is a first copy iff its cell is
#: ``UNSEEN`` (the array kernels' sequence record, DESIGN.md §14).  An
#: injection marks the source's cell ``RECEIVED``, so its echo from a
#: neighbour is a duplicate.
UNSEEN, RECEIVED = 0, 1


class SlotPlane:
    """Per-stream *slot plane*: one stream's flat delivery state.

    A plane is the slotted analogue of one stream shard — seen maps
    (one ``bytearray`` cell per slot per sequence) and per-slot
    delivered/duplicate counters, all indexed by the kernel's
    dense node slots.  The kernel keeps one plane per active stream id
    (dense plane index, DESIGN.md §10), so K concurrent streams stay on
    the array path with zero shared-dict contention between streams.
    """

    __slots__ = ("stream", "rows", "delivered", "duplicates")

    def __init__(self, stream: StreamId, capacity: int) -> None:
        self.stream = stream
        #: Seen maps indexed by seq; one byte cell per slot.
        self.rows: list[bytearray] = []
        zeros = bytes(8 * capacity)
        #: Distinct sequence numbers delivered per slot (injections included).
        self.delivered = array("q", zeros)
        #: Duplicate receptions per slot on this stream.
        self.duplicates = array("q", zeros)

    def grow(self) -> None:
        """Extend every column by one zeroed slot."""
        self.delivered.append(0)
        self.duplicates.append(0)
        for row in self.rows:
            row.append(UNSEEN)

    def clear(self, slot: int) -> None:
        """Zero ``slot``'s cell in every column."""
        self.delivered[slot] = 0
        self.duplicates[slot] = 0
        for row in self.rows:
            row[slot] = UNSEEN


class SlotKernel:
    """Slot lifecycle + plane index shared by every array kernel."""

    def __init__(self, network) -> None:
        self.network = network
        self.sim = network.sim
        self.metrics = network.metrics
        #: Mirror receptions into Metrics (parity/record mode)?
        self._mirror = network.metrics.record_deliveries
        self.slot_of: dict[NodeId, int] = {}
        self._free: list[int] = []
        self.capacity = 0
        # The fan-out rows (one per slot, plane-free: the overlay is
        # shared by every stream) are the installed CSR plus overrides.
        # Slot ``_base_first + i`` holds CSR row ``i`` (``i <
        # _base_n``): ``_base_offsets`` are the row starts, and
        # ``_base_peers`` the entries mapped to ids.  ``_rows`` holds the
        # rows a link change touched, and every row outside the base.
        self._base_first = self._base_n = 0
        self._base_offsets = self._base_peers = ()
        self._rows: dict[int, list[NodeId]] = {}
        #: Slot planes in dense-index order; one per stream ever seen.
        self.planes: list = []
        #: stream id -> dense plane index.
        self.plane_of: dict[StreamId, int] = {}
        network.register_kernel(self)

    def attach(self, node_id: NodeId) -> int:
        """Allocate (or recycle) a slot for ``node_id``."""
        free = self._free
        if free:
            slot = free.pop()
        else:
            slot = self.capacity
            self.capacity += 1
            for plane in self.planes:
                plane.grow()
        self.slot_of[node_id] = slot
        return slot

    def release_node(self, node_id: NodeId) -> None:
        """The one release route (:meth:`Network.register_kernel`): the
        last step of ``Network.crash``, after the protocol teardown.  Zeroes
        the slot in *every* plane before a churn joiner can inherit it."""
        slot = self.slot_of.pop(node_id, None)
        if slot is None:
            return
        if self._base_row(slot) >= 0:
            self._rows[slot] = []
        else:
            self._rows.pop(slot, None)
        for plane in self.planes:
            plane.clear(slot)
        self._free.append(slot)

    def install_rows(self, ids, topo) -> None:
        """Install the fan-out rows of ``ids`` from CSR adjacency arrays.

        ``topo`` is a :class:`repro.experiments.bootstrap.CSRTopology`
        over ``ids`` (the i-th row describes ``ids[i]``).  Row order
        matches what :meth:`HyParViewNode.install_overlay` produces from
        the same arrays, so the rows are identical to the ones the
        membership notifications would have appended.

        The first install over one run of consecutive slots, in ``ids``
        order (what a bulk spawn attaches), keeps ``topo`` as the base
        and builds no per-slot row; any other install writes every row
        as an override."""
        slot_of = self.slot_of
        n = len(ids)
        first = slot_of[ids[0]] if n else 0
        rows = self._rows
        if n and not self._base_n and list(map(slot_of.__getitem__, ids)) == list(
            range(first, first + n)
        ):
            for slot in [s for s in rows if first <= s < first + n]:
                del rows[slot]
            self._base_first, self._base_n = first, n
            self._install_base(ids, topo)
            return
        offsets = topo.offsets
        neighbors = topo.neighbors
        for i, nid in enumerate(ids):
            rows[slot_of[nid]] = [
                ids[j] for j in neighbors[offsets[i] : offsets[i + 1]]
            ]

    def _install_base(self, ids, topo) -> None:
        """Keep ``topo``'s rows as the base: its row starts, and its
        entries mapped to ids in one flat list the fan-out slices."""
        self._base_offsets = topo.offsets
        self._base_peers = list(map(ids.__getitem__, topo.neighbors))

    def _base_row(self, slot: int) -> int:
        """``slot``'s row index in the installed CSR, or -1."""
        i = slot - self._base_first
        return i if 0 <= i < self._base_n else -1

    def row(self, slot: int) -> list[NodeId]:
        """``slot``'s live peer ids in active-view insertion order: its
        override (the kernel's own list: do not mutate it), else a fresh
        list sliced from the installed CSR, else empty."""
        row = self._rows.get(slot)
        if row is not None:
            return row
        i = slot - self._base_first
        if 0 <= i < self._base_n:
            offsets = self._base_offsets
            return self._base_peers[offsets[i] : offsets[i + 1]]
        return []

    def _writable(self, slot: int) -> list[NodeId]:
        """``slot``'s override, created from its current row."""
        row = self._rows.get(slot)
        if row is None:
            row = self._rows[slot] = self.row(slot)
        return row

    def row_append(self, slot: int, peer: NodeId) -> None:
        """Record a new live peer in ``slot``'s row.

        Row changes funnel through this pair of methods so a kernel that
        keeps derived per-row state (the vectorized kernel's numpy CSR)
        can invalidate it where the row changes."""
        self._writable(slot).append(peer)

    def row_remove(self, slot: int, peer: NodeId) -> None:
        """Drop ``peer`` from ``slot``'s row (no-op when absent)."""
        try:
            self._writable(slot).remove(peer)
        except ValueError:
            pass

    def plane(self, stream: StreamId):
        """The slot plane for ``stream`` (created on first touch)."""
        idx = self.plane_of.get(stream)
        if idx is None:
            idx = self.plane_of[stream] = len(self.planes)
            self.planes.append(SlotPlane(stream, self.capacity))
        return self.planes[idx]

    def _row(self, plane, seq: int):
        rows = plane.rows
        while len(rows) <= seq:
            rows.append(bytearray(self.capacity))
        return rows[seq]

    def delivered_count(self, slot: int, stream: StreamId) -> int:
        """Distinct sequence numbers delivered at ``slot`` on ``stream``
        (injections included): the plane's ``delivered`` column, which
        every kernel bumps exactly when a seen cell leaves ``UNSEEN``."""
        idx = self.plane_of.get(stream)
        if idx is None:
            return 0
        return int(self.planes[idx].delivered[slot])

    def delivered_walk(self, slot: int, stream: StreamId) -> int:
        """The oracle :meth:`delivered_count` is tested against: count
        ``slot``'s non-``UNSEEN`` cells over every seen map of the plane
        (O(sequences) per slot, so not what the assemble walk calls)."""
        idx = self.plane_of.get(stream)
        if idx is None:
            return 0
        return sum(1 for row in self.planes[idx].rows if row[slot])

    def slot_duplicates(self, slot: int) -> int:
        """Duplicate receptions at ``slot`` across planes
        (``Metrics.duplicates_per_node`` semantics)."""
        return sum(plane.duplicates[slot] for plane in self.planes)
