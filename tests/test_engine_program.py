"""Differential property test of the event engine (DESIGN.md §1, §12).

Hypothesis draws whole programs over the scheduling API — ``schedule`` /
``schedule_at`` / ``call_later`` / ``call_at`` / ``call_at_run`` /
``cancel`` / ``run(until, max_events)`` / ``stop`` / ``next_event_time``
plus a registered batch drain — whose events themselves schedule,
cancel and stop when they fire.  Each program runs twice: on
:class:`Simulator` and on :class:`ReferenceScheduler`, a naive model
that keeps its entries in a plain list and scans it for the minimum.
After every step both must agree on the firing order (batch claims and
run slices included), the ``run`` return value, ``events_processed``,
``peak_pending``, ``now``, ``pending`` and ``next_event_time``.

The model is written from the engine's documented contract, not from
its code: FIFO order among equal times, lazy cancellation that still
occupies ``pending``, ``until`` advancing the clock only past the last
live event, a ``max_events`` break leaving it at the last processed
event, ``stop()`` landing after the in-flight event (or claimed batch,
or run), batch claims of contiguous same-time single events of the
drained function capped by the remaining budget, a run of N that is N
consecutive entries handed to its function in one call — never claimed,
and cut by the budget into a head that runs and a tail that stays — and
a peak backlog that counts a claimed batch's or a run's unprocessed
remainder.
"""

from __future__ import annotations

import math
import sys

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator


class RefHandle:
    __slots__ = ("cancelled",)

    def __init__(self) -> None:
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True

    @property
    def active(self) -> bool:
        return not self.cancelled


class ReferenceScheduler:
    """The engine's contract over a plain list of entries."""

    def __init__(self) -> None:
        self.now = 0.0
        self.events_processed = 0
        self.peak_pending = 0
        self.pending_bias = 0
        #: [time, seq, fn, args, handle-or-None, run-id-or-None]
        self._entries: list[list] = []
        self._seq = 0
        self._runs = 0
        self._stopped = False
        self._drains: dict = {}

    # -- scheduling ----------------------------------------------------
    def _push(self, time, fn, args, handle, run_id=None) -> None:
        assert time >= self.now
        self._seq += 1
        self._entries.append([time, self._seq, fn, args, handle, run_id])
        self.peak_pending = max(self.peak_pending, len(self._entries) + self.pending_bias)

    def schedule(self, delay, fn, *args):
        return self.schedule_at(self.now + delay, fn, *args)

    def schedule_at(self, time, fn, *args):
        handle = RefHandle()
        self._push(time, fn, args, handle)
        return handle

    def call_later(self, delay, fn, *args) -> None:
        self.call_at(self.now + delay, fn, *args)

    def call_at(self, time, fn, *args) -> None:
        self._push(time, fn, args, None)

    def call_at_run(self, time, fn, run) -> None:
        """N consecutive entries that remember which run they belong to."""
        self._runs += 1
        for item in run:
            self._push(time, fn, item, None, self._runs)

    def register_batch_drain(self, fn, drain) -> None:
        self._drains[fn] = drain

    # -- execution -----------------------------------------------------
    def _top(self):
        return min(self._entries, key=lambda e: (e[0], e[1])) if self._entries else None

    def _take(self, first, room, belongs) -> list:
        """``first`` plus the next top entries that ``belong``, up to
        ``room`` in all, taken off the list."""
        group = [first]
        while len(group) < room:
            nxt = self._top()
            if nxt is None or not belongs(nxt):
                break
            self._entries.remove(nxt)
            group.append(nxt[3])
        return group

    def _hand_over(self, fn, group) -> int:
        self.pending_bias = len(group) - 1
        try:
            fn(group)
        finally:
            self.pending_bias = 0
        return len(group)

    def run(self, until=None, max_events=None) -> int:
        self._stopped = False
        horizon = math.inf if until is None else until
        budget = sys.maxsize if max_events is None else max_events
        processed = 0
        while self._entries and not self._stopped:
            top = self._top()
            time, _, fn, args, handle, run_id = top
            if time > horizon or processed >= budget:
                break
            self._entries.remove(top)
            if handle is not None:
                if handle.cancelled:
                    continue
                self.now = time
                fn(*args)
                processed += 1
                continue
            self.now = time
            room = budget - processed
            drain = self._drains.get(fn)
            if run_id is not None:
                processed += self._hand_over(
                    fn, self._take(args, room, lambda e: e[5] == run_id)
                )
            elif drain is not None:
                processed += self._hand_over(drain, self._take(
                    args, room,
                    lambda e: e[0] == time and e[2] is fn and e[4] is None and e[5] is None,
                ))
            else:
                fn(*args)
                processed += 1
        if until is not None and not self._stopped and self.now < until:
            nxt = self.next_event_time()
            if nxt is None or nxt > until:
                self.now = until
        self.events_processed += processed
        return processed

    def stop(self) -> None:
        self._stopped = True

    @property
    def pending(self) -> int:
        return len(self._entries)

    def next_event_time(self):
        while self._entries:
            top = self._top()
            if top[4] is None or not top[4].cancelled:
                return top[0]
            self._entries.remove(top)
        return None


class Driver:
    """Interprets one program against one scheduler and logs what fired."""

    def __init__(self, sched) -> None:
        self.sched = sched
        self.log: list = []
        self.handles: list = []
        self._tags = 0
        # Batch claims match the drained function by identity: pin one
        # bound method, as the network pins ``_deliver_fan``.
        self.drained = self._drained

    def _tag(self) -> int:
        self._tags += 1
        return self._tags

    # -- event bodies --------------------------------------------------
    def fire(self, tag, action) -> None:
        self.log.append(("fire", tag, self.sched.now))
        self.perform(action)

    def _drained(self, tag, action) -> None:
        self.log.append(("drained", tag, self.sched.now))
        self.perform(action)

    def drain(self, batch) -> None:
        self.log.append(("batch", len(batch), self.sched.now))
        self._fire_each(batch)

    def wave(self, run) -> None:
        self.log.append(("run", len(run), self.sched.now))
        self._fire_each(run)

    def _fire_each(self, events) -> None:
        n = len(events)
        for i, (tag, action) in enumerate(events):
            # What a batch or run client owes the peak measurement as it
            # advances: the events still unprocessed (the vectorized
            # flood kernel's ``on_fan_batch`` does the same per wave).
            # The first runs on the scheduler's own correction.
            if i:
                self.sched.pending_bias = n - 1 - i
            self.fire(tag, action)

    def perform(self, action) -> None:
        kind = action[0]
        if kind == "stop":
            self.sched.stop()
        elif kind == "cancel":
            self.cancel(action[1])
        elif kind == "spawn":
            for op in action[1]:
                self.step(op)

    def cancel(self, k: int) -> None:
        if self.handles:
            self.handles[k % len(self.handles)].cancel()

    # -- program steps -------------------------------------------------
    def step(self, op) -> None:
        sched = self.sched
        kind = op[0]
        if kind == "schedule":
            self.handles.append(sched.schedule(op[1], self.fire, self._tag(), op[2]))
        elif kind == "schedule_at":
            self.handles.append(
                sched.schedule_at(sched.now + op[1], self.fire, self._tag(), op[2])
            )
        elif kind == "call_later":
            fn = self.drained if op[2] else self.fire
            sched.call_later(op[1], fn, self._tag(), op[3])
        elif kind == "call_at":
            fn = self.drained if op[2] else self.fire
            sched.call_at(sched.now + op[1], fn, self._tag(), op[3])
        elif kind == "call_at_run":
            sched.call_at_run(
                sched.now + op[1], self.wave, [(self._tag(), action) for action in op[2]]
            )
        elif kind == "cancel":
            self.cancel(op[1])
        elif kind == "register":
            sched.register_batch_drain(self.drained, self.drain)
        elif kind == "run":
            until = None if op[1] is None else sched.now + op[1]
            self.log.append(("ran", sched.run(until=until, max_events=op[2])))
        elif kind == "stop":
            sched.stop()
        elif kind == "peek":
            self.log.append(("next", sched.next_event_time()))
        else:  # pragma: no cover - strategy and interpreter out of sync
            raise AssertionError(op)

    def observe(self) -> tuple:
        s = self.sched
        return (
            len(self.log), s.now, s.pending, s.events_processed, s.peak_pending,
            s.pending_bias, [h.active for h in self.handles],
        )


# ----------------------------------------------------------------------
# Programs
# ----------------------------------------------------------------------
#: Half-second steps keep times exact in binary and make ties common.
delays = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.5, 3.0])


def scheduling_ops(actions):
    return st.one_of(
        st.tuples(st.just("schedule"), delays, actions),
        st.tuples(st.just("schedule_at"), delays, actions),
        st.tuples(st.just("call_later"), delays, st.booleans(), actions),
        st.tuples(st.just("call_at"), delays, st.booleans(), actions),
        st.tuples(
            st.just("call_at_run"), delays, st.lists(actions, min_size=1, max_size=6)
        ),
    )


leaf_actions = st.one_of(
    st.just(("none",)),
    st.just(("none",)),
    st.just(("stop",)),
    st.tuples(st.just("cancel"), st.integers(0, 50)),
)


def spawning(inner):
    return st.tuples(
        st.just("spawn"), st.lists(scheduling_ops(inner), min_size=1, max_size=3)
    )


#: An event may schedule up to three more events (or runs), whose own
#: actions may schedule more.
actions = st.one_of(leaf_actions, spawning(st.one_of(leaf_actions, spawning(leaf_actions))))
program_ops = st.one_of(
    scheduling_ops(actions),
    scheduling_ops(actions),
    st.tuples(st.just("cancel"), st.integers(0, 50)),
    st.just(("register",)),
    st.tuples(
        st.just("run"),
        st.one_of(st.none(), st.sampled_from([0.0, 0.5, 1.0, 2.5, 10.0])),
        st.one_of(st.none(), st.integers(0, 6)),
    ),
    st.just(("stop",)),
    st.just(("peek",)),
)


@settings(max_examples=300, deadline=None)
@given(program=st.lists(program_ops, min_size=1, max_size=40))
# A budget that ends inside a run with a same-time event filed after it:
# the tail must come back ahead of that event.
@example(program=[
    ("call_at_run", 1.0, [("none",), ("none",), ("none",)]),
    ("call_at", 1.0, False, ("none",)),
    ("run", None, 1),
])
def test_engine_matches_the_reference_scheduler(program):
    real, model = Driver(Simulator()), Driver(ReferenceScheduler())
    for op in program + [("peek",), ("run", None, None), ("peek",)]:
        real.step(op)
        model.step(op)
        assert real.log == model.log, op
        assert real.observe() == model.observe(), op


def _lockstep():
    """A real and a model driver plus ``play(ops)``, which steps both
    through hand-written ops and checks that they agree."""
    real, model = Driver(Simulator()), Driver(ReferenceScheduler())

    def play(ops):
        for op in ops:
            real.step(op)
            model.step(op)
        assert real.log == model.log
        assert real.observe() == model.observe()

    return real, play


def test_reference_sees_a_split_claim_and_a_stop_inside_a_batch():
    """One hand-written program through both, so a reader can see what
    the property exercises: a wave of four drained events claimed under
    a budget of three, a stop issued mid-batch, and a cancelled timer
    that still counts in ``pending`` until the clock passes it."""
    real, play = _lockstep()
    play([
        ("register",),
        ("call_at", 1.0, True, ("none",)),
        ("call_at", 1.0, True, ("stop",)),
        ("call_at", 1.0, True, ("none",)),
        ("call_at", 1.0, True, ("none",)),
        ("schedule", 0.5, ("none",)),
        ("schedule", 2.0, ("none",)),
        ("cancel", 1),
        ("run", None, 3),
    ])
    # Tags 1-4 are the wave, 5 and 6 the timers.  The budget of three
    # leaves room for a claim of two; the stop lands after the batch.
    assert real.log == [
        ("fire", 5, 0.5),
        ("batch", 2, 1.0), ("fire", 1, 1.0), ("fire", 2, 1.0),
        ("ran", 3),
    ]
    assert real.sched.pending == 3  # tags 3 and 4, and the cancelled 6
    play([("peek",), ("run", 5.0, None)])
    assert real.log[5:] == [
        ("next", 1.0),
        ("batch", 2, 1.0), ("fire", 3, 1.0), ("fire", 4, 1.0),
        ("ran", 2),
    ]
    assert real.sched.now == 6.0 and real.sched.pending == 0


def test_reference_sees_a_split_run_keep_its_place():
    """A run of five under a budget of two: its head runs, and its tail
    stays ahead of the same-time event filed after the run and of the
    timer tied with both — at the tail's own first seq, counted in
    ``pending`` constituent by constituent.  A stop inside the tail lands
    after the tail's one call."""
    real, play = _lockstep()
    play([
        ("call_at_run", 1.0, [("none",), ("none",), ("stop",), ("none",), ("none",)]),
        ("call_at", 1.0, False, ("none",)),
        ("schedule", 1.0, ("none",)),
        ("run", None, 2),
    ])
    # Tags 1-5 are the run, 6 the later single event, 7 the timer.
    assert real.log == [("run", 2, 1.0), ("fire", 1, 1.0), ("fire", 2, 1.0), ("ran", 2)]
    assert real.sched.pending == 5 and real.sched.peak_pending == 7
    play([("run", None, None)])
    assert real.log[4:] == [
        ("run", 3, 1.0), ("fire", 3, 1.0), ("fire", 4, 1.0), ("fire", 5, 1.0),
        ("ran", 3),
    ]
    play([("run", None, None)])
    assert real.log[9:] == [("fire", 6, 1.0), ("fire", 7, 1.0), ("ran", 2)]
    assert real.sched.events_processed == 7 and real.sched.pending == 0
