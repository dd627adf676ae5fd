"""The slot store under the three array kernels (DESIGN.md §9).

The one statement of the slot layout and lifecycle: the seen-cell
convention, :class:`SlotPlane` (one stream's per-slot columns) and
:class:`SlotKernel` (allocation and recycling, the stream-agnostic
columns, bulk row installation, the dense plane index).  A kernel
subclasses :class:`SlotKernel` and adds only what a reception *does*;
one with more per-stream state subclasses :class:`SlotPlane` and extends
``grow`` / ``clear``, so no column is allocated without also being grown
for a joiner and zeroed on release (tests/test_slots.py walks
``__slots__`` to hold that).
"""

from __future__ import annotations

from array import array

from repro.ids import NodeId, StreamId

#: Seen-map cell states.  ``INJECTED`` marks a sequence the slot's node
#: itself published (locally delivered, but not yet a *recorded
#: reception* — the source's first echo from a neighbour still counts as
#: a first delivery, matching ``Metrics.record_delivery`` semantics in
#: the object path).
UNSEEN, INJECTED, RECEIVED = 0, 1, 2


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

    #: Plane type instantiated per stream (``plane_cls(stream, capacity)``).
    plane_cls = SlotPlane

    def __init__(self, network) -> None:
        self.network = network
        self.sim = network.sim
        self.metrics = network.metrics
        #: Mirror receptions into Metrics (parity/record mode)?
        self._mirror = network.metrics.record_deliveries
        self.slot_of: dict[NodeId, int] = {}
        self._free: list[int] = []
        self.capacity = 0
        #: Wire bytes received per slot on the fan-sink path (the slotted
        #: stand-in for ``Metrics.bytes_received`` at scale; in mirror
        #: mode Metrics is fed too and the two agree).
        self.rx_bytes = array("q")
        #: Per-slot live peer ids, in active-view insertion order (the
        #: overlay is shared by every stream, so rows are plane-free).
        #: The flood kernels fan out from these; BRISA reads its relay
        #: set off the node and leaves them empty.
        self.neighbor_rows: list[list[NodeId]] = []
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
            self.rx_bytes.append(0)
            self.neighbor_rows.append([])
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
        self.rx_bytes[slot] = 0
        self.neighbor_rows[slot] = []
        for plane in self.planes:
            plane.clear(slot)
        self._free.append(slot)

    def install_rows(self, ids, topo) -> None:
        """Bulk-build the neighbor rows from CSR adjacency arrays.

        ``topo`` is a :class:`repro.experiments.bootstrap.CSRTopology`
        over ``ids`` (the i-th row describes ``ids[i]``).  Row order
        matches what :meth:`HyParViewNode.install_overlay` produces from
        the same arrays, so rows built here are identical to the ones
        the membership notifications would have accumulated."""
        offsets = topo.offsets
        neighbors = topo.neighbors
        rows = self.neighbor_rows
        slot_of = self.slot_of
        for i, nid in enumerate(ids):
            rows[slot_of[nid]] = [
                ids[j] for j in neighbors[offsets[i] : offsets[i + 1]]
            ]

    def plane(self, stream: StreamId):
        """The slot plane for ``stream`` (created on first touch)."""
        idx = self.plane_of.get(stream)
        if idx is None:
            idx = self.plane_of[stream] = len(self.planes)
            self.planes.append(self.plane_cls(stream, self.capacity))
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
