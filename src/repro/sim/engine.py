"""Event engine: binary-heap scheduler with cancellable handles.

The engine is intentionally minimal and allocation-light: events are
``(time, seq, handle)`` heap entries where ``seq`` breaks ties in FIFO
order, making same-timestamp processing deterministic.  Cancellation is
lazy (a flag on the handle) so cancel is O(1) and the heap never needs
re-sifting — the standard pattern for high-churn simulations where most
timers are cancelled before firing.

Two scheduling tiers keep the hot path cheap (see DESIGN.md §1):

- :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at` return a
  fresh cancellable :class:`EventHandle` — the safe API for timers.
- :meth:`Simulator.call_later` / :meth:`Simulator.call_at` are
  fire-and-forget: no handle escapes to the caller, so the engine reuses
  ``EventHandle`` objects from a free list (slab reuse) instead of
  allocating one per event.  Message deliveries — the overwhelming bulk
  of events in a dissemination run — go through this tier.

:meth:`Simulator.run` is the one run loop; "no bound" is a bound no
event reaches, so :meth:`Simulator.run_until_idle` is ``run()`` by name.

:meth:`Simulator.register_batch_drain` opens the third tier (DESIGN.md
§12): a callback registered for one fire-and-forget function claims
whole contiguous runs of same-time events of that function in a single
call, so a delivery kernel can process an entire arrival wave without
one Python frame per event.  Each constituent event still counts exactly
once toward ``max_events`` / ``events_processed``, and a budget break
splits the run cleanly mid-batch.
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

    __slots__ = ("time", "fn", "args", "cancelled", "_pooled")

    def __init__(self, time: float, fn: Callable, args: tuple) -> None:
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False
        #: Pool-owned handles never escape the engine, so they are safe to
        #: recycle the moment their event fires (no aliasing with callers).
        self._pooled = False

    def cancel(self) -> None:
        self.cancelled = True
        # Drop references early: cancelled events may sit in the heap for a
        # long time and would otherwise pin node/message objects in memory.
        self.fn = None  # type: ignore[assignment]
        self.args = ()

    @property
    def active(self) -> bool:
        return not self.cancelled


class Simulator:
    """Discrete-event simulator with virtual time in seconds."""

    def __init__(self, seed: int = 0) -> None:
        self.now: float = 0.0
        self.seed = seed
        self._heap: list[tuple[float, int, EventHandle]] = []
        self._seq = 0
        self._running = False
        self._stopped = False
        self.events_processed = 0
        #: Free list of pooled handles (high-water mark = peak in-flight
        #: fire-and-forget events; bounded, never trimmed).
        self._free: list[EventHandle] = []
        #: fn -> drain callback for the batch-drain tier (see
        #: :meth:`register_batch_drain`).  Empty in most runs — the run
        #: loop then pays one falsy check per pooled event.
        self._batch_drains: dict[Callable, Callable] = {}
        #: Largest heap size ever observed (peak scheduled backlog).
        self.peak_pending = 0
        #: Batch-drain correction for :attr:`peak_pending` (DESIGN.md
        #: §12): a claimed same-time run is popped from the heap *before*
        #: its events are processed, so pushes made while draining see a
        #: heap that is short by the not-yet-processed remainder of the
        #: run.  The run loop sets this to that remainder (and drain
        #: clients may lower it as they advance through the batch) so the
        #: push-site peak checks measure the same backlog the per-event
        #: tiers would.  Zero outside a drain call.
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
        heapq.heappush(heap, (time, self._seq, handle))
        depth = len(heap) + self.pending_bias
        if depth > self.peak_pending:
            self.peak_pending = depth
        return handle

    # ------------------------------------------------------------------
    # Scheduling — fire-and-forget fast tier (pooled handles)
    # ------------------------------------------------------------------
    def call_later(self, delay: float, fn: Callable, *args) -> None:
        """Like :meth:`schedule` but returns no handle; the event cannot
        be cancelled, which lets the engine recycle its slab entry."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self.call_at(self.now + delay, fn, *args)

    def call_at(self, time: float, fn: Callable, *args) -> None:
        """Like :meth:`schedule_at` but fire-and-forget (pooled)."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self.now}"
            )
        free = self._free
        if free:
            handle = free.pop()
            handle.time = time
            handle.fn = fn
            handle.args = args
        else:
            handle = EventHandle(time, fn, args)
            handle._pooled = True
        self._seq += 1
        heap = self._heap
        heapq.heappush(heap, (time, self._seq, handle))
        depth = len(heap) + self.pending_bias
        if depth > self.peak_pending:
            self.peak_pending = depth

    def call_at_many(self, time: float, fn: Callable, argss: list[tuple]) -> None:
        """Bulk :meth:`call_at`: one pooled ``fn(*args)`` event per entry
        of ``argss``, all at ``time``, in list order (consecutive ``seq``
        numbers, so FIFO order among them is the list order).  Exactly
        equivalent to calling :meth:`call_at` once per entry; one frame
        and one validation for a whole fan-out wave (DESIGN.md §12)."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self.now}"
            )
        free = self._free
        heap = self._heap
        seq = self._seq
        push = heapq.heappush
        pop = free.pop
        for args in argss:
            if free:
                handle = pop()
                handle.time = time
                handle.fn = fn
                handle.args = args
            else:
                handle = EventHandle(time, fn, args)
                handle._pooled = True
            seq += 1
            push(heap, (time, seq, handle))
        self._seq = seq
        depth = len(heap) + self.pending_bias
        if depth > self.peak_pending:
            self.peak_pending = depth

    def note_peak(self, depth: int) -> None:
        """Raise :attr:`peak_pending` to ``depth`` if it is larger.

        Batch-drain clients that reorder a claimed run's pushes (the
        vectorized kernel's wave-at-a-time forward pass, DESIGN.md §12)
        use this to record the backlog maximum the per-event dispatch
        order would have produced; the regular push-site checks are
        arranged never to exceed that reference value mid-batch.
        """
        if depth > self.peak_pending:
            self.peak_pending = depth

    # ------------------------------------------------------------------
    # Scheduling — batch-drain tier (whole same-arrival event runs)
    # ------------------------------------------------------------------
    def register_batch_drain(self, fn: Callable, drain: Callable) -> None:
        """Route contiguous runs of pooled ``fn`` events through ``drain``.

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

        Only fire-and-forget events (:meth:`call_later` / :meth:`call_at`)
        participate: cancellable handles keep per-event dispatch.  The
        fused fan-delivery path is the intended client (DESIGN.md §12).

        Claims match ``fn`` by *identity* (``is``): register and
        schedule one pinned callable — a bound method freshly minted per
        ``obj.method`` access never merges into a run (see
        ``Network.__init__``'s ``_deliver_fan`` pin).
        """
        self._batch_drains[fn] = drain

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Process events until the heap drains, ``until`` is reached, or
        ``max_events`` have run.  Returns the number of events processed.

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
        free_append = self._free.append
        drains = self._batch_drains
        try:
            while heap and not self._stopped:
                time, _, handle = heap[0]
                if time > horizon or processed >= budget:
                    break
                pop(heap)
                if handle._pooled:
                    self.now = time
                    fn = handle.fn
                    args = handle.args
                    handle.fn = None
                    handle.args = ()
                    free_append(handle)
                    drain = drains.get(fn) if drains else None
                    if drain is not None:
                        batch = [args]
                        # Claim the contiguous same-time run of this fn,
                        # capped by the remaining max_events budget (the
                        # event in hand already consumed one unit).
                        room = budget - processed
                        while heap and len(batch) < room:
                            nxt = heap[0][2]
                            if (
                                heap[0][0] != time
                                or not nxt._pooled
                                or nxt.fn is not fn
                            ):
                                break
                            pop(heap)
                            batch.append(nxt.args)
                            nxt.fn = None
                            nxt.args = ()
                            free_append(nxt)
                        # The whole run left the heap in one claim; the
                        # bias keeps push-site peak checks seeing the
                        # unprocessed remainder (drain clients lower it
                        # as they advance).  Reset unconditionally: a
                        # drain that raised mid-batch must not poison
                        # later measurements.
                        self.pending_bias = len(batch) - 1
                        try:
                            drain(batch)
                        finally:
                            self.pending_bias = 0
                        processed += len(batch)
                        continue
                    fn(*args)
                    processed += 1
                    continue
                if handle.cancelled:
                    continue
                self.now = time
                handle.fn(*handle.args)
                processed += 1
        finally:
            self._running = False
        if until is not None and not self._stopped and self.now < until:
            next_live = self.next_event_time()
            if next_live is None or next_live > until:
                self.now = until
        self.events_processed += processed
        return processed

    def run_until_idle(self) -> int:
        """Drain the heap: :meth:`run` with no bound (``stop()`` is still
        honoured between events)."""
        return self.run()

    def stop(self) -> None:
        """Stop the current ``run()`` after the in-flight event returns."""
        self._stopped = True

    @property
    def pending(self) -> int:
        """Number of heap entries (including lazily-cancelled ones)."""
        return len(self._heap)

    @property
    def pool_size(self) -> int:
        """Handles currently parked in the free list (introspection)."""
        return len(self._free)

    def next_event_time(self) -> Optional[float]:
        """Timestamp of the next live event, or None if the heap is empty."""
        while self._heap and self._heap[0][2].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0][0] if self._heap else None


__all__ = ["EventHandle", "Simulator"]
