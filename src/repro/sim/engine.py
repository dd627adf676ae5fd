"""Event engine: binary-heap scheduler with cancellable handles.

The engine is intentionally minimal and allocation-light: one heap
entry is one tuple, ``(time, seq, fn, args)`` for a fire-and-forget
event and ``(time, seq, handle, None)`` for a cancellable one, where
``seq`` breaks ties in FIFO order, making same-timestamp processing
deterministic.  Cancellation is lazy (a flag on the handle) so cancel is
O(1) and the heap never needs re-sifting — the standard pattern for
high-churn simulations where most timers are cancelled before firing.

Two scheduling tiers keep the hot path cheap (see DESIGN.md §1):

- :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at` return a
  fresh cancellable :class:`EventHandle` — the safe API for timers.
- :meth:`Simulator.call_later` / :meth:`Simulator.call_at` are
  fire-and-forget: no handle escapes to the caller, so the event is its
  heap tuple and nothing else.  Message deliveries — the overwhelming
  bulk of events in a dissemination run — go through this tier.

:meth:`Simulator.call_at_run` files N fire-and-forget events at one
time as *one* heap entry, ``(time, seq, run, None)``, that stands for
all of them: ``fn(run)`` receives the whole run in one call.  It is
observably N consecutive :meth:`Simulator.call_at` entries — ``seq``
advances by N, every counter counts constituents, and a ``max_events``
budget that ends inside a run processes its head and leaves the tail
queued at its own first seq.  A dissemination wave is the intended
client (DESIGN.md §12).

:meth:`Simulator.run` is the one run loop; "no bound" is a bound no
event reaches, so :meth:`Simulator.run_until_idle` is ``run()`` by name.

:meth:`Simulator.register_batch_drain` opens the batch-drain tier: a
callback registered for one fire-and-forget function claims whole
contiguous runs of same-time *single* events of that function in one
call.  Each constituent event still counts exactly once toward
``max_events`` / ``events_processed``, and a budget break splits the
claim cleanly mid-batch.  Nothing in the package registers one any more
(a vectorized wave is a run entry); the tier stays only while the
benchmark tracer probes it (DESIGN.md §12).
"""

from __future__ import annotations

import heapq
import math
import sys
from typing import Callable, Optional

from repro.errors import SimulationError
from repro.sim.rng import derive


class EventHandle:
    """Handle to a scheduled event; ``cancel()`` is O(1) and idempotent."""

    __slots__ = ("time", "fn", "args", "cancelled")

    def __init__(self, time: float, fn: Callable, args: tuple) -> None:
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True
        # Drop references early: cancelled events may sit in the heap for a
        # long time and would otherwise pin node/message objects in memory.
        self.fn = None  # type: ignore[assignment]
        self.args = ()

    @property
    def active(self) -> bool:
        return not self.cancelled


class _Run:
    """What a run entry carries where a cancellable entry carries its
    handle: the function and the run it receives (see
    :meth:`Simulator.call_at_run`).  Sharing that shape keeps the run
    loop's one shape test (``args is None``) the only test a single
    fire-and-forget event pays; a run is never cancelled."""

    __slots__ = ("fn", "run")
    cancelled = False

    def __init__(self, fn: Callable, run) -> None:
        self.fn = fn
        self.run = run


class Simulator:
    """Discrete-event simulator with virtual time in seconds."""

    def __init__(self, seed: int = 0) -> None:
        self.now: float = 0.0
        self.seed = seed
        #: ``(time, seq, fn, args)`` fire-and-forget entries,
        #: ``(time, seq, handle, None)`` cancellable ones and
        #: ``(time, seq, _Run, None)`` run entries; ``seq`` is unique, so
        #: tuple comparison never reaches the third field.
        self._heap: list[tuple] = []
        #: Events scheduled so far (the FIFO tie-breaker; a run entry
        #: takes one seq per constituent).
        self._seq = 0
        #: Constituents of queued run entries beyond their first:
        #: ``len(_heap) + _run_extra`` is the number of scheduled events.
        self._run_extra = 0
        self._running = False
        self._stopped = False
        self.events_processed = 0
        #: fn -> drain callback for the batch-drain tier (see
        #: :meth:`register_batch_drain`).  Empty in every package run —
        #: the run loop then pays one falsy check per fire-and-forget event.
        self._batch_drains: dict[Callable, Callable] = {}
        #: Largest backlog ever observed (peak scheduled events).
        self.peak_pending = 0
        #: Correction for :attr:`peak_pending` while a claimed batch or a
        #: run is processed (DESIGN.md §12): it left the heap *before*
        #: its events are processed, so pushes made meanwhile see a
        #: backlog that is short by the not-yet-processed remainder.  The
        #: run loop sets this to that remainder (and clients may lower it
        #: as they advance through the batch) so the push-site peak
        #: checks measure the same backlog one entry per event would.
        #: Zero outside such a call.
        self.pending_bias = 0

    # ------------------------------------------------------------------
    # Randomness
    # ------------------------------------------------------------------
    def rng(self, *labels: object):
        """Independent RNG stream derived from the simulation seed."""
        return derive(self.seed, *labels)

    # ------------------------------------------------------------------
    # Scheduling — cancellable tier
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable, *args) -> EventHandle:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self.now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable, *args) -> EventHandle:
        """Schedule ``fn(*args)`` at an absolute virtual time."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self.now}"
            )
        handle = EventHandle(time, fn, args)
        self._seq += 1
        heap = self._heap
        heapq.heappush(heap, (time, self._seq, handle, None))
        depth = len(heap) + self._run_extra + self.pending_bias
        if depth > self.peak_pending:
            self.peak_pending = depth
        return handle

    # ------------------------------------------------------------------
    # Scheduling — fire-and-forget fast tier (the heap tuple is the event)
    # ------------------------------------------------------------------
    def call_later(self, delay: float, fn: Callable, *args) -> None:
        """Like :meth:`schedule` but returns no handle; the event cannot
        be cancelled, so its heap tuple is all the engine allocates."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self.call_at(self.now + delay, fn, *args)

    def call_at(self, time: float, fn: Callable, *args) -> None:
        """Like :meth:`schedule_at` but fire-and-forget."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self.now}"
            )
        self._seq += 1
        heap = self._heap
        heapq.heappush(heap, (time, self._seq, fn, args))
        depth = len(heap) + self._run_extra + self.pending_bias
        if depth > self.peak_pending:
            self.peak_pending = depth

    def call_at_run(self, time: float, fn: Callable, run) -> None:
        """Schedule ``len(run)`` fire-and-forget events at ``time`` as one
        heap entry; ``fn(run)`` processes them in one call.

        Observably ``len(run)`` consecutive :meth:`call_at` entries at one
        time: ``seq`` advances by that many and the entry sorts at its
        first constituent's seq (nothing can be scheduled between
        constituents, so FIFO order is unchanged), and
        ``events_processed``, ``max_events``, ``pending``,
        ``peak_pending`` and ``next_event_time`` all count constituents.
        When a ``max_events`` budget ends inside the run, ``fn`` receives
        the head ``run[:k]`` and the tail ``run[k:]`` stays queued at its
        own first seq; ``stop()`` takes effect after ``fn`` returns.
        ``run`` needs ``len`` and slicing.  Batch drains never claim a
        run's constituents.  One entry per dissemination wave
        (DESIGN.md §12).
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self.now}"
            )
        n = len(run)
        if not n:
            return
        seq = self._seq + 1
        self._seq += n
        heap = self._heap
        heapq.heappush(heap, (time, seq, _Run(fn, run), None))
        self._run_extra += n - 1
        depth = len(heap) + self._run_extra + self.pending_bias
        if depth > self.peak_pending:
            self.peak_pending = depth

    def note_peak(self, depth: int) -> None:
        """Raise :attr:`peak_pending` to ``depth`` if it is larger.

        Clients that reorder a batch's or a run's pushes (the vectorized
        kernel's wave-at-a-time forward pass, DESIGN.md §12) use this to
        record the backlog maximum the per-event dispatch order would
        have produced; the regular push-site checks are arranged never to
        exceed that reference value mid-batch.
        """
        if depth > self.peak_pending:
            self.peak_pending = depth

    # ------------------------------------------------------------------
    # Scheduling — batch-drain tier (whole same-arrival event runs)
    # ------------------------------------------------------------------
    def register_batch_drain(self, fn: Callable, drain: Callable) -> None:
        """Route contiguous runs of fire-and-forget ``fn`` events through
        ``drain``.

        When the run loop pops a fire-and-forget event whose function is
        ``fn``, it claims every directly following heap entry with the
        *same timestamp and the same function* (FIFO ``seq`` order keeps
        the run contiguous at the heap top) and hands the whole run to
        ``drain`` as one list of ``args`` tuples — one call per arrival
        wave instead of one ``fn(*args)`` frame per event.

        Exact-count contract: every claimed event counts once toward
        ``max_events`` and :attr:`events_processed`, and a claim never
        exceeds the remaining ``max_events`` budget — the surplus events
        stay in the heap for the next ``run()``.  ``stop()`` takes
        effect after the in-flight drain call returns, like any event.

        Only single fire-and-forget events (:meth:`call_later` /
        :meth:`call_at`) participate: cancellable handles keep per-event
        dispatch and a run entry (:meth:`call_at_run`) is its own batch.
        No caller is left in the package — waves are run entries — and
        the tier stays only for the benchmark tracer's probe (DESIGN.md
        §12).

        Claims match ``fn`` by *identity* (``is``): register and
        schedule one pinned callable — a bound method freshly minted per
        ``obj.method`` access never merges into a run.
        """
        self._batch_drains[fn] = drain

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Process events until the heap drains, ``until`` is reached, or
        ``max_events`` have run.  Returns the number of events processed
        (a run entry counts its constituents).

        When ``until`` is given, virtual time is advanced to exactly
        ``until`` on return — but only when no live event at or before
        ``until`` remains unprocessed.  A break caused by ``max_events``
        leaves ``now`` at the last processed event so that a subsequent
        ``run()`` never moves the clock backwards.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        self._stopped = False
        # An absent bound becomes one no event reaches: the loop pays two
        # plain comparisons per event instead of existing twice.
        horizon = math.inf if until is None else until
        budget = sys.maxsize if max_events is None else max_events
        processed = 0
        heap = self._heap
        pop = heapq.heappop
        drains = self._batch_drains
        run_entry = _Run
        try:
            while heap and not self._stopped:
                time, seq, fn, args = heap[0]
                if time > horizon or processed >= budget:
                    break
                pop(heap)
                if args is None:
                    if fn.__class__ is run_entry:
                        self.now = time
                        processed += self._fire_run(time, seq, fn, budget - processed)
                        continue
                    # A cancellable entry: ``fn`` is its EventHandle.
                    if fn.cancelled:
                        continue
                    self.now = time
                    fn.fn(*fn.args)
                    processed += 1
                    continue
                self.now = time
                drain = drains.get(fn) if drains else None
                if drain is not None:
                    batch = [args]
                    # Claim the contiguous same-time run of this fn,
                    # capped by the remaining max_events budget (the
                    # event in hand already consumed one unit).  A
                    # cancellable or run entry carries an object where
                    # ``fn`` sits, so the identity test stops at it too.
                    room = budget - processed
                    while heap and len(batch) < room:
                        nxt = heap[0]
                        if nxt[0] != time or nxt[2] is not fn:
                            break
                        pop(heap)
                        batch.append(nxt[3])
                    # The whole run left the heap in one claim; the bias
                    # keeps push-site peak checks seeing the unprocessed
                    # remainder (drain clients lower it as they
                    # advance).  Reset unconditionally: a drain that
                    # raised mid-batch must not poison later
                    # measurements.
                    self.pending_bias = len(batch) - 1
                    try:
                        drain(batch)
                    finally:
                        self.pending_bias = 0
                    processed += len(batch)
                    continue
                fn(*args)
                processed += 1
        finally:
            self._running = False
        if until is not None and not self._stopped and self.now < until:
            next_live = self.next_event_time()
            if next_live is None or next_live > until:
                self.now = until
        self.events_processed += processed
        return processed

    def _fire_run(self, time: float, seq: int, entry: _Run, room: int) -> int:
        """Process a popped run entry within ``room`` budget units;
        returns the number of constituents processed."""
        run = entry.run
        n = len(run)
        self._run_extra -= n - 1
        if n > room:
            # The budget ends inside the run: the head runs now and the
            # tail re-enters at its own first seq, where its constituents
            # have been all along.
            heapq.heappush(self._heap, (time, seq + room, _Run(entry.fn, run[room:]), None))
            self._run_extra += n - room - 1
            run = run[:room]
            n = room
        # Like a claim, the run left the heap in one pop; reset as there.
        self.pending_bias = n - 1
        try:
            entry.fn(run)
        finally:
            self.pending_bias = 0
        return n

    def run_until_idle(self) -> int:
        """Drain the heap: :meth:`run` with no bound (``stop()`` is still
        honoured between events)."""
        return self.run()

    def stop(self) -> None:
        """Stop the current ``run()`` after the in-flight event returns."""
        self._stopped = True

    @property
    def pending(self) -> int:
        """Number of scheduled events: heap entries (lazily-cancelled
        ones included), a run entry counting its constituents."""
        return len(self._heap) + self._run_extra

    @property
    def pool_size(self) -> int:
        """Always 0: fire-and-forget events are bare heap tuples, so there
        is no handle free list to report.  Kept because the benchmark's
        tracer reads it (``engine.pool_size``)."""
        return 0

    def next_event_time(self) -> Optional[float]:
        """Timestamp of the next live event, or None if the heap is empty."""
        heap = self._heap
        while heap and heap[0][3] is None and heap[0][2].cancelled:
            heapq.heappop(heap)
        return heap[0][0] if heap else None


__all__ = ["EventHandle", "Simulator"]
