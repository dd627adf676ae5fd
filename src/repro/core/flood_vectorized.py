"""Numpy-vectorized flood delivery kernel (DESIGN.md §12).

The slotted kernel (DESIGN.md §9) already keeps delivery state in flat
per-slot arrays, but still spends one Python iteration per reception.
This kernel re-homes the slot planes onto numpy storage and executes a
whole dissemination wave — the fan-outs that arrive at one instant — as
masked array operations in one :meth:`VectorizedFloodKernel.on_fan_batch`
call, so the per-duplicate cost drops from a Python loop body to a
handful of vector instructions.

A wave is one message: a :class:`~repro.sim.network.FanWave` (sources,
CSR offsets, flat destinations) kept as arrays from the forward pass
that builds it straight from its masks to the call that receives it.
``Network.send_fan_wave`` accounts the sends, masks loss over the whole
wave and files it as ONE engine run entry (``Simulator.call_at_run``)
that stands for its N fan events; the engine hands it back to
``on_fan_batch`` whole.  A message's first hop — the source's
``send_many``, or a relay after a single-``send`` arrival — is a single
fused fan event, which the fan sink :meth:`VectorizedFloodKernel.on_fan`
turns into a one-fan wave.

Exactness contract: draw-for-draw parity with the slotted kernel (and,
transitively, the object path) for one seed.  The three order-sensitive
effects of a wave are preserved literally:

- dead/unattached destinations fall back in flat wave order, so the
  failure-notice RNG draws of :meth:`Network._drop` come out in the
  exact per-event sequence;
- forward fan-outs are filed in flat wave order, one consecutive heap
  sequence number per fan, so the constituent order of every later
  wave — and the loss coins drawn for it — match the per-event run;
- the first-occurrence masks encode the scalar seen-map transition
  exactly (first ``UNSEEN`` delivers and forwards, a first
  ``INJECTED`` is a source echo, everything else is a duplicate).

Everything order-insensitive (per-slot counters, byte totals, Metrics
sums) is commutative and may be applied vectorized in any order, and
where the engine cuts the event stream into waves (run entries,
``max_events`` slices) is invisible to the simulation.

numpy is an *optional* dependency: importing this module without it is
fine (the CLI keeps working), constructing the kernel raises a clear
:class:`SimulationError`.  The sequential entry points (``inject``,
``on_data``) are inherited from the slotted kernel unchanged — they
operate element-wise on the numpy storage — so occupancy-latency runs,
which schedule no fan events, run the slotted kernel's code path.
Slot layout, cell states and release route are :mod:`repro.core.slots`'s;
only what numpy storage changes (doubling growth, array planes) is overridden.
"""

from __future__ import annotations

try:  # pragma: no cover - exercised implicitly by every import
    import numpy as np
except ImportError:  # pragma: no cover - CI always installs numpy
    np = None

from repro.baselines.flood import FloodData, SlottedFloodKernel
from repro.core.slots import RECEIVED, UNSEEN, SlotPlane
from repro.errors import SimulationError
from repro.ids import NodeId, StreamId
from repro.sim.network import FanWave


class _VectorPlane(SlotPlane):
    """Per-stream slot plane on numpy storage.

    A :class:`repro.core.slots.SlotPlane` (same columns and cell states,
    inherited ``clear``) so every inherited scalar path of the slotted
    kernel runs on it unmodified.  Arrays are allocated to the kernel's
    current allocation size and grown by the kernel (``_grow_to``) —
    cells at or beyond ``capacity`` stay zero and are never indexed.
    """

    __slots__ = ()

    def __init__(self, stream: StreamId, alloc: int) -> None:
        self.stream = stream
        #: Seen maps indexed by seq; one uint8 cell per slot.
        self.rows: list = []
        self.delivered = np.zeros(alloc, dtype=np.int64)
        self.duplicates = np.zeros(alloc, dtype=np.int64)


class VectorizedFloodKernel(SlottedFloodKernel):
    """Slotted flood kernel with numpy planes and batched wave delivery.

    Selectable via ``--kernel vectorized``; the node class is the
    unchanged :class:`SlottedFloodNode` (the kernel seam is the whole
    point — engine and protocol never see which backend runs).  On top
    of the slotted kernel this adds:

    - numpy per-slot storage with doubling growth (``_alloc``), so the
      1M-node tier allocates a few flat arrays instead of 1M objects;
    - ``_slot_map`` — a node-id-indexed slot vector (−1 = unattached)
      for O(1) vectorized id→slot gathers over whole waves;
    - :meth:`on_fan_batch` — one call per dissemination wave: a run
      entry the forward pass filed, or a one-fan wave the fan sink
      :meth:`on_fan` builds from a single fused fan event.
    """

    def __init__(self, network) -> None:
        if np is None:
            raise SimulationError(
                "the vectorized flood kernel requires numpy, which is not "
                "installed — `pip install numpy`, or select --kernel "
                "slotted for the pure-python flat-array kernel"
            )
        super().__init__(network)
        #: Allocated length of every per-slot array (>= capacity).
        self._alloc = 0
        #: node id -> slot, -1 when unattached (vector twin of slot_of).
        self._slot_map = np.full(0, -1, dtype=np.int64)
        #: Per-slot numpy mirror of neighbor_rows, rebuilt lazily after a
        #: row mutation (None = stale).  In-flight forward target sets
        #: are masked copies, so a later invalidation never reaches them
        #: — the snapshot semantics of the scalar path's row copy.
        self._rows_np: list = []
        #: Per-slot row lengths (vector twin of len(neighbor_rows[slot])).
        self._row_len = np.zeros(0, dtype=np.int64)
        #: Scratch for first-occurrence detection; only cells written in
        #: the same call are read back, so it is never reset.
        self._first_scratch = np.zeros(0, dtype=np.int64)
        # Fused CSR snapshot of *all* fan-out rows: on a quiescent
        # overlay (the steady state of every static run) the forward
        # pass gathers target rows straight out of one flat array
        # instead of touching 10k row objects.  _csr_version counts row
        # mutations; the snapshot is rebuilt only once the version has
        # been stable for a full wave (so churny phases fall back to the
        # per-slot mirrors instead of rebuilding every wave).
        self._csr_version = 0
        self._csr_built = -1
        self._csr_seen = -2
        self._csr_data = np.zeros(0, dtype=np.int64)
        self._csr_offs = np.zeros(1, dtype=np.int64)

    # -- storage management ---------------------------------------------
    def _grow_to(self, alloc: int) -> None:
        def grown(arr):
            out = np.zeros(alloc, dtype=arr.dtype)
            out[: arr.size] = arr
            return out

        self._row_len = grown(self._row_len)
        self._first_scratch = np.zeros(alloc, dtype=np.int64)
        for plane in self.planes:
            plane.delivered = grown(plane.delivered)
            plane.duplicates = grown(plane.duplicates)
            plane.rows = [grown(row) for row in plane.rows]
        self._alloc = alloc

    def attach(self, node_id: NodeId) -> int:
        free = self._free
        if free:
            slot = free.pop()
        else:
            slot = self.capacity
            if slot >= self._alloc:
                self._grow_to(max(64, self._alloc * 2))
            self.capacity += 1
            self.neighbor_rows.append([])
            self._rows_np.append(None)
            self._csr_version += 1
        self.slot_of[node_id] = slot
        if node_id >= self._slot_map.size:
            grown = np.full(
                max(64, self._slot_map.size * 2, node_id + 1), -1, dtype=np.int64
            )
            grown[: self._slot_map.size] = self._slot_map
            self._slot_map = grown
        self._slot_map[node_id] = slot
        return slot

    def release_node(self, node_id: NodeId) -> None:
        slot = self.slot_of.get(node_id)
        if slot is not None:
            self._slot_map[node_id] = -1
            self._rows_np[slot] = None
            self._row_len[slot] = 0
            self._csr_version += 1
        super().release_node(node_id)

    # -- fan-out row mirror maintenance ----------------------------------
    def row_append(self, slot: int, peer: NodeId) -> None:
        row = self.neighbor_rows[slot]
        row.append(peer)
        self._rows_np[slot] = None
        self._row_len[slot] = len(row)
        self._csr_version += 1

    def row_remove(self, slot: int, peer: NodeId) -> None:
        row = self.neighbor_rows[slot]
        try:
            row.remove(peer)
        except ValueError:
            return
        self._rows_np[slot] = None
        self._row_len[slot] = len(row)
        self._csr_version += 1

    def install_rows(self, ids, topo) -> None:
        super().install_rows(ids, topo)
        rows = self.neighbor_rows
        rows_np = self._rows_np
        row_len = self._row_len
        slot_of = self.slot_of
        for nid in ids:
            slot = slot_of[nid]
            rows_np[slot] = None
            row_len[slot] = len(rows[slot])
        self._csr_version += 1

    def _rebuild_csr(self) -> None:
        rows = self.neighbor_rows
        offs = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(self._row_len[: len(rows)], out=offs[1:])
        if offs[-1]:
            # concatenate converts the int lists itself; an empty row
            # would promote the result to float64 (values still exact),
            # hence the dtype guard.
            data = np.concatenate(rows)
            if data.dtype != np.int64:
                data = data.astype(np.int64)
        else:
            data = np.zeros(0, dtype=np.int64)
        self._csr_data = data
        self._csr_offs = offs
        self._csr_built = self._csr_version

    def plane(self, stream: StreamId) -> _VectorPlane:
        idx = self.plane_of.get(stream)
        if idx is None:
            idx = self.plane_of[stream] = len(self.planes)
            self.planes.append(_VectorPlane(stream, self._alloc))
        return self.planes[idx]

    def _row(self, plane: _VectorPlane, seq: int):
        rows = plane.rows
        while len(rows) <= seq:
            rows.append(np.zeros(self._alloc, dtype=np.uint8))
        return rows[seq]

    # -- batched delivery hot path ---------------------------------------
    def on_fan(self, src: NodeId, dsts: list[NodeId], msg: FloodData, size: int) -> None:
        """The fan sink: one fused fan event — a source's first hop, or a
        relay after a single-``send`` arrival — is a one-fan wave."""
        self.on_fan_batch(FanWave(
            np.array([src], dtype=np.int64),
            np.array([0, len(dsts)], dtype=np.int64),
            np.array(dsts, dtype=np.int64),
            msg, size,
        ))

    def on_fan_batch(self, wave: FanWave) -> None:
        """Execute one wave of flood fan-outs: a one-fan wave from
        :meth:`on_fan`, or a run entry a forward pass filed
        (``Network.send_fan_wave``).  Seen-map transitions and counters
        are masked array ops; fallbacks and forward scheduling run in
        flat wave order (see the module docstring for why that order is
        load-bearing).
        """
        sim = self.sim
        # Peak-backlog emulation (DESIGN.md §12): the wave left the heap
        # before processing, so pushes made here see a backlog short by
        # the unprocessed remainder.  ``entry_bias`` is the engine's
        # correction as of this wave's first event; per-event decrements
        # below keep every *real* push-site check at or below the value
        # the per-event tiers would have measured, and the end-of-wave
        # ``note_peak`` lands the exact reference maximum.
        entry_bias = sim.pending_bias
        n_events = len(wave)
        srcs = wave.srcs
        ids = wave.dsts
        msg = wave.msg
        size = wave.size
        heap_base = sim.pending
        #: Net events scheduled by each event, in reference order
        #: (fallback notices + handler sends now, forward fans at the
        #: end); lazily allocated — zero-push waves never touch it.
        ev_pushes = None
        slots = self._slot_map[ids]
        # flat element -> index of its originating fan event.
        ev_idx = np.repeat(np.arange(n_events), wave.offs[1:] - wave.offs[:-1])

        attached = slots >= 0
        # Flat indices of the attached destinations; None = all of them.
        att_idx = None
        if not attached.all():
            # Dead (slot released) or never-attached destinations: the
            # generic single-delivery semantics, in flat order so the
            # _drop failure-notice RNG draws match the per-event run.
            # (Deliveries draw no RNG, so front-running the drops keeps
            # the stream identical; notice times are continuous draws,
            # so heap-seq interleaving with forwards is immaterial.)
            deliver = self.network._deliver_fast
            ev_pushes = np.zeros(n_events, dtype=np.int64)
            for g in np.nonzero(~attached)[0].tolist():
                e = int(ev_idx[g])
                # Failure notices (and any handler sends) push with the
                # bias of their own event; the backlog delta charges them
                # to that event for the end-of-wave peak replay.
                sim.pending_bias = entry_bias - e
                before = sim.pending
                deliver(int(srcs[e]), int(ids[g]), msg, size)
                ev_pushes[e] += sim.pending - before
            att_idx = np.nonzero(attached)[0]
            slots = slots[att_idx]
            if slots.size == 0:
                self._replay_peak(heap_base, entry_bias, ev_pushes)
                return

        self.receptions += slots.size

        now = sim.now
        stream = msg.stream
        seq = msg.seq
        plane = self.plane(stream)
        rows = plane.rows
        row = rows[seq] if seq < len(rows) else self._row(plane, seq)
        hops = msg.hops + 1
        path_delay = msg.path_delay + (now - msg.sent_at)
        if self._mirror:
            # Parity/record runs: feed Metrics exactly like the scalar
            # path, element by element in flat wave order (the only
            # order record_delivery's first/duplicate split can observe).
            record = self.metrics.record_delivery
            account = self.metrics.account_receive
            for g in range(len(ids)) if att_idx is None else att_idx.tolist():
                dst = int(ids[g])
                record(
                    dst, stream, seq, now, int(srcs[ev_idx[g]]), hops,
                    path_delay, msg.payload_bytes,
                )
                account(dst, size)
        pre = row[slots]
        # First occurrence per slot without a sort: scatter flat indices
        # in reverse (so the lowest index wins) and compare the
        # gather-back against each element's own index.
        idx = np.arange(slots.size)
        scratch = self._first_scratch
        scratch[slots[::-1]] = idx[::-1]
        first = scratch[slots] == idx
        # Scalar transition, vectorized: a slot's first occurrence sees
        # the pre-wave state (deliver on UNSEEN, echo on INJECTED,
        # duplicate on RECEIVED); every later occurrence sees RECEIVED
        # and is a duplicate.
        dmask = first & (pre == UNSEEN)
        dup = ~first | (pre == RECEIVED)
        row[slots] = RECEIVED
        dup_slots = slots[dup]
        if dup_slots.size:
            np.add.at(plane.duplicates, dup_slots, 1)
        if not dmask.any():
            self._replay_peak(heap_base, entry_bias, ev_pushes)
            return
        d_slots = slots[dmask]  # unique by construction
        plane.delivered[d_slots] += 1

        # Forward pass, in flat wave order: the forwards leave as one
        # wave whose fans take consecutive heap sequence numbers, so the
        # constituent order of all later waves matches the per-event run
        # exactly.
        didx = np.nonzero(dmask)[0] if att_idx is None else att_idx[dmask]
        lens = self._row_len[d_slots]
        nz = lens > 0
        if not nz.all():
            didx = didx[nz]
            d_slots = d_slots[nz]
            lens = lens[nz]
            if didx.size == 0:
                self._replay_peak(heap_base, entry_bias, ev_pushes)
                return
        # Concatenate the deliverers' rows and mask out each deliverer's
        # sender in one vector compare.  HyParView rows never hold
        # duplicate peers, so dropping every sender occurrence is the
        # filtering list comprehension of the scalar path; cat[keep] is
        # a fresh array, so the forward target sets are snapshots —
        # later row mutations can't reach them.
        starts = np.zeros(lens.size, dtype=np.int64)
        np.cumsum(lens[:-1], out=starts[1:])
        version = self._csr_version
        if version != self._csr_built and version == self._csr_seen:
            # Rows quiescent for a full wave: refresh the CSR snapshot.
            self._rebuild_csr()
        self._csr_seen = version
        if version == self._csr_built:
            # Steady state: gather every target row out of the fused
            # CSR arrays — no per-deliverer row object is touched.
            flat = np.repeat(self._csr_offs[d_slots] - starts, lens)
            flat += np.arange(int(lens.sum()))
            cat = self._csr_data[flat]
        else:
            rows_np = self._rows_np
            neighbor_rows = self.neighbor_rows
            arrs = []
            ap = arrs.append
            for slot in d_slots.tolist():
                arr = rows_np[slot]
                if arr is None:
                    arr = rows_np[slot] = np.asarray(
                        neighbor_rows[slot], dtype=np.int64
                    )
                ap(arr)
            cat = np.concatenate(arrs) if len(arrs) > 1 else arrs[0]
        d_ev = ev_idx[didx]
        keep = cat != np.repeat(srcs[d_ev], lens)
        kept = cat[keep]
        klens = np.add.reduceat(keep.astype(np.int64), starts)
        # One fan per deliverer with a target left; sender-isolated
        # deliverers send nothing, so ``f_ev`` — each fan's originating
        # event, for the peak replay below — is not ``d_ev``.
        fans = np.nonzero(klens)[0]
        if fans.size:
            f_ev = d_ev[fans]
            f_offs = np.zeros(fans.size + 1, dtype=np.int64)
            np.cumsum(klens[fans], out=f_offs[1:])
            # One shared forward message for the whole wave (messages
            # are immutable value objects); its wire size equals the
            # incoming one's (same kind, same size-bearing fields).
            fwd = FloodData(
                stream, seq, msg.payload_bytes,
                hops=hops, path_delay=path_delay, sent_at=now,
            )
            out = FanWave(ids[didx[fans]], f_offs, kept, fwd, size)
            # The run push's real peak check fires once, after the whole
            # wave was filed; pinning the bias to the *last* event keeps
            # it at or below the per-event reference (whose last check
            # runs with exactly that many of the wave's events unprocessed).
            # The exact reference maximum is replayed below from the
            # per-event push counts — under loss, only fans that survived
            # masking (non-zero scheduled destinations) pushed an event.
            sim.pending_bias = entry_bias - (n_events - 1)
            scheduled = self.network.send_fan_wave(out, self.on_fan_batch)
            pushed = np.bincount(
                f_ev if scheduled is None else f_ev[scheduled > 0],
                minlength=n_events,
            )
            ev_pushes = pushed if ev_pushes is None else ev_pushes + pushed
        self._replay_peak(heap_base, entry_bias, ev_pushes)

    def _replay_peak(self, base: int, entry_bias: int, ev_pushes) -> None:
        """Record the exact peak backlog the per-event dispatch order
        would have measured for one wave.

        The per-event tiers check the backlog at every push: while event
        ``k`` of the wave executes, ``bias_k = entry_bias - k`` of its
        events are still outstanding, so the wave's reference maximum is
        ``base + max_k(bias_k + C_k)`` over events that pushed at least
        once, with ``base`` the backlog (``Simulator.pending``) at entry
        and ``C_k`` the cumulative push count through event ``k`` (within
        an event the last push sees the full per-event total, because
        drops and forwards interleave per destination).  Every real
        check made mid-wave is arranged to stay at or below this value,
        so raising the peak to it afterward reproduces the reference
        metric exactly.
        """
        if ev_pushes is None:
            return
        ks = np.nonzero(ev_pushes > 0)[0]
        if ks.size == 0:
            return
        cum = np.cumsum(ev_pushes)
        peak = base + int((entry_bias - ks + cum[ks]).max())
        self.sim.note_peak(peak)
