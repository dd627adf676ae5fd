"""Unit tests for the event engine."""

import pytest

from repro.errors import SimulationError
from repro.runtime.api import PeriodicTask
from repro.sim.engine import Simulator


def test_events_run_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(3.0, order.append, "c")
    sim.schedule(1.0, order.append, "a")
    sim.schedule(2.0, order.append, "b")
    sim.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_run_fifo():
    sim = Simulator()
    order = []
    for label in range(10):
        sim.schedule(1.0, order.append, label)
    sim.run()
    assert order == list(range(10))


def test_now_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(2.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [2.5]
    assert sim.now == 2.5


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(5.0, fired.append, 5)
    sim.run(until=2.0)
    assert fired == [1]
    assert sim.now == 2.0  # clock advanced to the until bound
    sim.run()
    assert fired == [1, 5]


def test_run_until_with_empty_heap_advances_clock():
    sim = Simulator()
    sim.run(until=10.0)
    assert sim.now == 10.0


def test_max_events_limits_processing():
    sim = Simulator()
    fired = []
    for i in range(5):
        sim.schedule(float(i + 1), fired.append, i)
    sim.run(max_events=2)
    assert fired == [0, 1]


def test_cancelled_events_do_not_fire():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, fired.append, "x")
    sim.schedule(0.5, handle.cancel)
    sim.run()
    assert fired == []
    assert not handle.active


def test_cancel_is_idempotent():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    sim.run()


def test_events_scheduled_during_run_are_processed():
    sim = Simulator()
    fired = []

    def first():
        sim.schedule(1.0, fired.append, "second")
        fired.append("first")

    sim.schedule(1.0, first)
    sim.run()
    assert fired == ["first", "second"]


def test_schedule_in_past_raises():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_stop_halts_run():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(2.0, sim.stop)
    sim.schedule(3.0, fired.append, 3)
    sim.run()
    assert fired == [1]
    assert sim.pending >= 1


def test_run_is_not_reentrant():
    sim = Simulator()

    def reenter():
        with pytest.raises(SimulationError):
            sim.run()

    sim.schedule(1.0, reenter)
    sim.run()


def test_next_event_time_skips_cancelled():
    sim = Simulator()
    h1 = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    h1.cancel()
    assert sim.next_event_time() == 2.0


def test_next_event_time_empty():
    sim = Simulator()
    assert sim.next_event_time() is None


def test_events_processed_counter():
    sim = Simulator()
    for i in range(4):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.events_processed == 4


def test_max_events_break_does_not_move_clock_backwards():
    """Regression: ``run(until=T, max_events=N)`` used to advance ``now``
    to ``T`` even when live events before ``T`` remained, so the next
    ``run()`` moved virtual time backwards."""
    sim = Simulator()
    seen = []
    for i in range(5):
        sim.schedule(float(i + 1), lambda: seen.append(sim.now))
    sim.run(until=10.0, max_events=2)
    # Two events processed; three more pend before the until bound, so the
    # clock must sit at the last processed event, not at 10.0.
    assert seen == [1.0, 2.0]
    assert sim.now == 2.0
    sim.run(until=10.0)
    assert seen == [1.0, 2.0, 3.0, 4.0, 5.0]
    # Virtual time is monotone across the two runs.
    assert all(a <= b for a, b in zip(seen, seen[1:]))
    assert sim.now == 10.0


def test_max_events_break_past_until_still_advances_clock():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(5.0, fired.append, 5)
    # The cap is not hit before the until bound: remaining events all lie
    # beyond it, so advancing to ``until`` is safe and expected.
    sim.run(until=2.0, max_events=10)
    assert fired == [1]
    assert sim.now == 2.0


def test_until_not_advanced_when_cancelled_events_hide_live_one():
    sim = Simulator()
    fired = []
    h = sim.schedule(1.0, fired.append, "cancelled")
    sim.schedule(1.5, fired.append, "live")
    h.cancel()
    sim.run(until=3.0, max_events=0)
    # No events processed; the live 1.5 s event forbids jumping to 3.0.
    assert sim.now == 0.0
    sim.run(until=3.0)
    assert fired == ["live"]
    assert sim.now == 3.0


class TestFastTier:
    """call_later/call_at: fire-and-forget events (no handle escapes).

    The tier's full contract against a reference scheduler is the
    property in tests/test_engine_program.py."""

    def test_call_later_runs_in_order_with_scheduled_events(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, order.append, "handle")
        sim.call_later(1.0, order.append, "pooled-early")
        sim.call_later(3.0, order.append, "pooled-late")
        sim.run()
        assert order == ["pooled-early", "handle", "pooled-late"]

    def test_call_later_in_past_raises(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.call_later(-0.5, lambda: None)
        with pytest.raises(SimulationError):
            sim.call_at(0.5, lambda: None)

    def test_peak_pending_records_backlog_high_water(self):
        sim = Simulator()
        for i in range(10):
            sim.schedule(float(i + 1), lambda: None)
        assert sim.peak_pending == 10
        sim.run()
        assert sim.peak_pending == 10


class TestRunUntilIdle:
    def test_drains_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, order.append, "c")
        sim.call_later(1.0, order.append, "a")
        sim.schedule(2.0, order.append, "b")
        assert sim.run_until_idle() == 3
        assert order == ["a", "b", "c"]
        assert sim.now == 3.0

    def test_honours_stop(self):
        sim = Simulator()
        fired = []
        sim.call_later(1.0, fired.append, 1)
        sim.schedule(2.0, sim.stop)
        sim.call_later(3.0, fired.append, 3)
        sim.run_until_idle()
        assert fired == [1]
        assert sim.pending >= 1

    def test_skips_cancelled_handles(self):
        sim = Simulator()
        fired = []
        h = sim.schedule(1.0, fired.append, "x")
        h.cancel()
        sim.call_later(2.0, fired.append, "y")
        sim.run_until_idle()
        assert fired == ["y"]

    def test_not_reentrant(self):
        sim = Simulator()

        def reenter():
            with pytest.raises(SimulationError):
                sim.run_until_idle()

        sim.call_later(1.0, reenter)
        sim.run_until_idle()

    def test_counts_events_processed(self):
        sim = Simulator()
        for i in range(4):
            sim.call_later(float(i), lambda: None)
        sim.run_until_idle()
        assert sim.events_processed == 4


def test_rng_streams_are_deterministic_and_independent():
    a1 = Simulator(seed=7).rng("x").random()
    a2 = Simulator(seed=7).rng("x").random()
    b = Simulator(seed=7).rng("y").random()
    assert a1 == a2
    assert a1 != b


class TestPeriodicTask:
    def test_fires_repeatedly(self):
        sim = Simulator()
        ticks = []
        task = PeriodicTask(sim, 1.0, lambda: ticks.append(sim.now))
        task.start()
        sim.run(until=5.5)
        assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_stop_halts_firing(self):
        sim = Simulator()
        ticks = []
        task = PeriodicTask(sim, 1.0, lambda: ticks.append(sim.now))
        task.start()
        sim.schedule(2.5, task.stop)
        sim.run(until=10.0)
        assert ticks == [1.0, 2.0]
        assert not task.running

    def test_stop_from_inside_callback(self):
        sim = Simulator()
        ticks = []
        task = PeriodicTask(sim, 1.0, lambda: (ticks.append(sim.now), task.stop()))
        task.start()
        sim.run(until=10.0)
        assert ticks == [1.0]

    def test_start_is_idempotent(self):
        sim = Simulator()
        ticks = []
        task = PeriodicTask(sim, 1.0, lambda: ticks.append(sim.now))
        task.start()
        task.start()
        sim.run(until=2.5)
        assert ticks == [1.0, 2.0]

    def test_jitter_requires_rng_and_spreads_periods(self):
        sim = Simulator(seed=3)
        ticks = []
        task = PeriodicTask(sim, 1.0, lambda: ticks.append(sim.now), jitter=0.3, rng=sim.rng("j"))
        task.start()
        sim.run(until=20.0)
        gaps = [b - a for a, b in zip(ticks, ticks[1:])]
        assert all(0.7 <= g <= 1.3 for g in gaps)
        assert len(set(round(g, 6) for g in gaps)) > 1  # actually jittered

    def test_start_delay_override(self):
        sim = Simulator()
        ticks = []
        task = PeriodicTask(sim, 5.0, lambda: ticks.append(sim.now), start_delay=0.5)
        task.start()
        sim.run(until=6.0)
        assert ticks == [0.5, 5.5]

    def test_invalid_period_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            PeriodicTask(sim, 0.0, lambda: None)
        with pytest.raises(SimulationError):
            PeriodicTask(sim, 1.0, lambda: None, jitter=1.5)

    def test_restart_after_stop_reapplies_start_delay(self):
        sim = Simulator()
        ticks = []
        task = PeriodicTask(sim, 5.0, lambda: ticks.append(sim.now), start_delay=0.5)
        task.start()
        sim.run(until=6.0)
        assert ticks == [0.5, 5.5]
        task.stop()
        sim.run(until=20.0)
        assert ticks == [0.5, 5.5]
        # A restart behaves exactly like the first start: the start_delay
        # override applies again, then the regular period takes over.
        task.start()
        assert task.running
        sim.run(until=26.5)
        assert ticks == [0.5, 5.5, 20.5, 25.5]

    def test_stop_inside_fn_cancels_reschedule_and_allows_restart(self):
        sim = Simulator()
        ticks = []
        task = PeriodicTask(sim, 1.0, lambda: (ticks.append(sim.now), task.stop()))
        task.start()
        sim.run(until=10.0)
        # stop() from inside fn() during _fire: exactly one firing, no
        # pending handle left behind.
        assert ticks == [1.0]
        assert not task.running
        assert task._handle is None
        task.start()
        sim.run(until=20.0)
        assert ticks == [1.0, 11.0]
        assert not task.running

    def test_stop_before_first_firing_cancels_cleanly(self):
        sim = Simulator()
        ticks = []
        task = PeriodicTask(sim, 1.0, lambda: ticks.append(sim.now), start_delay=5.0)
        task.start()
        sim.run(until=2.0)
        task.stop()
        sim.run(until=10.0)
        assert ticks == []
        # Restarting schedules afresh from the stop point.
        task.start()
        sim.run(until=15.5)
        assert ticks == [15.0]


class TestBatchDrain:
    """The batch-drain tier (DESIGN.md §12): contiguous same-time runs
    of one fire-and-forget function are claimed off the heap top and
    handed to a registered drain as a single list of args tuples."""

    @staticmethod
    def _sim_with_drain(batches):
        sim = Simulator()
        fn = batches and None  # placeholder for clarity; fn defined below

        def deliver(tag):  # the drained event function
            raise AssertionError(f"per-event dispatch for {tag}")

        sim.register_batch_drain(deliver, batches.append)
        return sim, deliver

    def test_same_time_run_arrives_as_one_batch(self):
        batches = []
        sim, deliver = self._sim_with_drain(batches)
        for i in range(4):
            sim.call_at(1.0, deliver, i)
        sim.call_at(2.0, deliver, 99)
        assert sim.run() == 5
        assert batches == [[(0,), (1,), (2,), (3,)], [(99,)]]
        assert sim.events_processed == 5

    def test_claim_breaks_on_other_functions_and_times(self):
        order = []
        sim = Simulator()
        # Claims match by identity: pin the bound method once (a fresh
        # `order.append` per call would never merge into a run).
        fn = order.append
        sim.register_batch_drain(
            fn, lambda batch: order.append(("batch", len(batch)))
        )
        other = lambda: order.append("other")  # noqa: E731
        sim.call_at(1.0, fn)
        sim.call_at(1.0, fn)
        sim.call_at(1.0, other)  # same time, different fn: breaks the run
        sim.call_at(1.0, fn)     # claimed as a fresh batch
        sim.run_until_idle()
        assert order == [("batch", 2), "other", ("batch", 1)]

    def test_cancellable_handles_keep_per_event_dispatch(self):
        hits = []
        sim = Simulator()
        fn = hits.append
        sim.register_batch_drain(fn, lambda batch: hits.append(("batch", len(batch))))
        sim.call_at(1.0, fn, "pooled")
        sim.schedule_at(1.0, fn, "handle")   # cancellable: never claimed
        sim.call_at(1.0, fn, "pooled2")
        sim.run()
        # The handle event splits the run: batches of 1 around it.
        assert hits == [("batch", 1), "handle", ("batch", 1)]

    def test_max_events_counts_each_constituent_once(self):
        batches = []
        sim, deliver = self._sim_with_drain(batches)
        for i in range(6):
            sim.call_at(1.0, deliver, i)
        # Budget of 4 stops mid-wave: the claim is capped, the surplus
        # two events stay queued for the next run().
        assert sim.run(max_events=4) == 4
        assert batches == [[(0,), (1,), (2,), (3,)]]
        assert sim.events_processed == 4
        assert sim.run(max_events=10) == 2
        assert batches == [[(0,), (1,), (2,), (3,)], [(4,), (5,)]]
        assert sim.events_processed == 6

    def test_max_events_boundary_exactly_at_wave_edge(self):
        batches = []
        sim, deliver = self._sim_with_drain(batches)
        for i in range(3):
            sim.call_at(1.0, deliver, i)
        sim.call_at(2.0, deliver, 9)
        # Budget equals the first wave: the 2.0 wave must NOT start.
        assert sim.run(max_events=3) == 3
        assert batches == [[(0,), (1,), (2,)]]
        assert sim.now == 1.0
        assert sim.run() == 1
        assert batches[-1] == [(9,)]
        assert sim.now == 2.0

    def test_stop_inside_drain_halts_after_batch(self):
        sim = Simulator()
        seen = []

        def fn():
            raise AssertionError("unreachable")

        def drain(batch):
            seen.append(len(batch))
            sim.stop()

        sim.register_batch_drain(fn, drain)
        for _ in range(3):
            sim.call_at(1.0, fn)
        sim.call_at(2.0, fn)
        # stop() lands after the in-flight batch, like any event.
        assert sim.run_until_idle() == 3
        assert seen == [1] or seen == [3]
        # The 1.0 wave is one claim: all three counted, 2.0 still queued.
        assert seen == [3]
        assert sim.next_event_time() == 2.0

    def test_drain_scheduling_more_work_keeps_draining(self):
        """A claim whose drain files the next wave as a run, and runs
        that file the one after (the vectorized fan-out pattern)."""
        sim = Simulator()
        waves = []

        def fn(x):
            raise AssertionError("unreachable")

        def forward(items):
            waves.append(list(items))
            if len(waves) < 3:
                sim.call_at_run(sim.now + 1.0, forward, [x * 10 for x in items])

        sim.register_batch_drain(fn, lambda batch: forward([a[0] for a in batch]))
        sim.call_at(0.5, fn, 1)
        sim.call_at(0.5, fn, 2)
        assert sim.run_until_idle() == 6
        assert waves == [[1, 2], [10, 20], [100, 200]]
        assert sim.now == 2.5

    def test_call_at_run_matches_repeated_call_at(self):
        """A run entry is exactly N call_at calls: same FIFO order among
        its neighbours, same seq advance, same pending and peak_pending
        accounting, same event count."""
        runs = []
        for bulk in (False, True):
            sim = Simulator()
            order = []
            sim.call_at(1.0, order.append, "first")
            if bulk:
                sim.call_at_run(1.0, order.extend, list(range(5)))
            else:
                for i in range(5):
                    sim.call_at(1.0, order.append, i)
            sim.call_at(1.0, order.append, "last")
            pending = sim.pending
            sim.run()
            runs.append((order, sim.events_processed, sim.peak_pending, pending, sim._seq))
        assert runs[0] == runs[1]
        assert runs[0][0] == ["first", 0, 1, 2, 3, 4, "last"]

    def test_call_at_run_in_past_rejected(self):
        sim = Simulator()
        sim.call_at(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.call_at_run(0.5, lambda run: None, [()])
