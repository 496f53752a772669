"""Tests for the discrete-event engine."""

import random
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator.engine import Simulator


class TestScheduling:
    def test_runs_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, lambda: order.append("c"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(2.0, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_schedule_order(self):
        sim = Simulator()
        order = []
        for name in "abcde":
            sim.schedule(5.0, lambda n=name: order.append(n))
        sim.run()
        assert order == list("abcde")

    def test_clock_advances(self):
        sim = Simulator()
        times = []
        sim.schedule(2.5, lambda: times.append(sim.now))
        sim.schedule(7.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [2.5, 7.0]
        assert sim.now == 7.0

    def test_events_can_schedule_events(self):
        sim = Simulator()
        hits = []

        def chain(n):
            hits.append(sim.now)
            if n > 0:
                sim.schedule(1.0, lambda: chain(n - 1))

        sim.schedule(0.0, lambda: chain(3))
        sim.run()
        assert hits == [0.0, 1.0, 2.0, 3.0]

    def test_schedule_at(self):
        sim = Simulator(start_time=10.0)
        fired = []
        sim.schedule_at(15.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [15.0]

    def test_rejects_past(self):
        sim = Simulator(start_time=5.0)
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)
        with pytest.raises(ValueError):
            sim.schedule_at(4.9, lambda: None)

    def test_rejects_infinite_time(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule_at(float("inf"), lambda: None)


class TestCancellation:
    def test_cancelled_event_skipped(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append("x"))
        handle.cancel()
        sim.run()
        assert fired == []
        assert handle.cancelled

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.run()
        handle.cancel()  # must not raise

    def test_cancel_inside_event(self):
        sim = Simulator()
        fired = []
        later = sim.schedule(2.0, lambda: fired.append("later"))
        sim.schedule(1.0, later.cancel)
        sim.run()
        assert fired == []


class TestRunControl:
    def test_until_bound(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(5))
        executed = sim.run(until=3.0)
        assert executed == 1
        assert fired == [1]
        # The clock stays at the last executed event.
        assert sim.now == 1.0
        sim.run()
        assert fired == [1, 5]

    def test_until_inclusive(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, lambda: fired.append(3))
        sim.run(until=3.0)
        assert fired == [3]

    def test_max_events(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(float(i), lambda i=i: fired.append(i))
        sim.run(max_events=4)
        assert fired == [0, 1, 2, 3]

    def test_step_returns_false_when_empty(self):
        sim = Simulator()
        assert sim.step() is False

    def test_reentrant_run_rejected(self):
        sim = Simulator()

        def nested():
            sim.run()

        sim.schedule(1.0, nested)
        with pytest.raises(RuntimeError, match="re-entrant"):
            sim.run()

    def test_event_counter(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.events_fired == 5


class TestHeapHygiene:
    """Lazy cancellation must not let dead entries accumulate unboundedly."""

    def test_cancelled_pending_tracks_cancellations(self):
        sim = Simulator()
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
        assert sim.cancelled_pending == 0
        for handle in handles[:4]:
            handle.cancel()
        assert sim.cancelled_pending == 4
        assert sim.pending_events == 10  # lazily cancelled, still in heap

    def test_pop_of_cancelled_entry_decrements_counter(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda: fired.append("live"))
        dead = sim.schedule(1.0, lambda: fired.append("dead"))
        dead.cancel()
        assert sim.cancelled_pending == 1
        sim.run()
        assert sim.cancelled_pending == 0
        assert sim.pending_events == 0
        assert fired == ["live"]

    def test_heap_stays_bounded_under_rearm_churn(self):
        # The watchdog/sweep pattern: re-arm by cancelling the previous
        # event and scheduling a replacement. Without compaction the heap
        # holds every corpse until its time arrives.
        sim = Simulator()
        current = sim.schedule(1e9, lambda: None)
        for _ in range(10_000):
            current.cancel()
            current = sim.schedule(1e9, lambda: None)
        # One live event plus bounded garbage: compaction keeps the heap
        # under the size floor plus one round of churn, never 10k corpses.
        assert sim.pending_events < 200
        assert sim.cancelled_pending < 64

    def test_small_heaps_never_compact(self):
        # Below the size floor, compaction is pointless; cancelled entries
        # just wait for their pop.
        sim = Simulator()
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
        for handle in handles:
            handle.cancel()
        assert sim.pending_events == 10
        assert sim.cancelled_pending == 10
        sim.run()
        assert sim.pending_events == 0

    def test_compaction_preserves_execution_order(self):
        sim = Simulator()
        order = []
        keep = []
        for i in range(200):
            handle = sim.schedule(float(i + 1), lambda i=i: order.append(i))
            if i % 2:
                keep.append(i)
            else:
                handle.cancel()  # triggers compaction partway through
        sim.run()
        assert order == keep


class TestDeterminism:
    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=30))
    @settings(max_examples=50)
    def test_replay_identical(self, delays):
        def run():
            sim = Simulator()
            log = []
            for i, delay in enumerate(delays):
                sim.schedule(delay, lambda i=i: log.append((sim.now, i)))
            sim.run()
            return log

        assert run() == run()

    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=30))
    @settings(max_examples=50)
    def test_time_never_regresses(self, delays):
        sim = Simulator()
        times = []
        for delay in delays:
            sim.schedule(delay, lambda: times.append(sim.now))
        sim.run()
        assert times == sorted(times)


class _LazyKey:
    """A lazily keyed time: the bound climbs in unit steps to ``time``."""

    def __init__(self, bound, time):
        self.bound = bound
        self.time = time
        self.refinements = 0

    def refine(self, target):
        self.refinements += 1
        while self.bound <= target and self.bound < self.time:
            self.bound = min(self.bound + 1.0, self.time)
        return self.bound, self.bound == self.time


def _plan(seed, n=300):
    """Random event tree: (parent, delay, lazy, slack, cancels) per event.

    Integer delays make time ties common, so sequence-number order is
    exercised as much as time order.
    """
    rnd = random.Random(seed)
    plan = []
    for i in range(n):
        parent = rnd.randrange(-1, i) if i else -1
        delay = float(rnd.randint(0, 6))
        lazy = rnd.random() < 0.5
        slack = float(rnd.randint(0, 5))
        cancels = rnd.randrange(n) if rnd.random() < 0.15 else None
        plan.append((parent, delay, lazy, slack, cancels))
    return plan


def _drive(plan, lazy_keys, until=None):
    """Run ``plan``; lazy events get lazily keyed handles iff ``lazy_keys``.

    Returns (fired log, peek after each event, events_fired, now, keys).
    """
    sim = Simulator()
    handles = {}
    keys = []
    log = []
    peeks = []
    children = defaultdict(list)
    for i, (parent, *_rest) in enumerate(plan):
        children[parent].append(i)

    def schedule(i):
        _parent, delay, lazy, slack, cancels = plan[i]
        time = sim.now + delay

        def fire():
            log.append((i, sim.now, sim.events_fired))
            if cancels is not None and cancels in handles:
                handles[cancels].cancel()
            for child in children[i]:
                schedule(child)

        if lazy and lazy_keys:
            key = _LazyKey(max(time - slack, sim.now), time)
            keys.append(key)
            handles[i] = sim.schedule_at(key.bound, fire, refine=key.refine)
        else:
            handles[i] = sim.schedule_at(time, fire)

    for root in children[-1]:
        schedule(root)
    if until is not None:
        sim.run(until=until)
        peeks.append((sim.now, sim.peek_next_time()))
    while sim.step():
        peeks.append(sim.peek_next_time())
    return log, peeks, sim.events_fired, sim.now, keys


class TestLazilyKeyedEvents:
    @pytest.mark.parametrize("seed", range(8))
    def test_same_trajectory_as_exact_keys(self, seed):
        plan = _plan(seed)
        lazy = _drive(plan, lazy_keys=True)
        exact = _drive(plan, lazy_keys=False)
        assert lazy[:4] == exact[:4]
        assert lazy[4], "the plan must contain lazily keyed events"
        # Some heads were refined in several steps, stopping short each time.
        assert any(key.refinements > 1 for key in lazy[4])

    @pytest.mark.parametrize("seed", range(4))
    def test_run_until_boundary_agrees(self, seed):
        plan = _plan(seed)
        fired = _drive(plan, lazy_keys=False)[0]
        # A boundary exactly at an event time: events at ``until`` run.
        boundary = fired[len(fired) // 2][1]
        lazy = _drive(plan, lazy_keys=True, until=boundary)
        exact = _drive(plan, lazy_keys=False, until=boundary)
        assert lazy[:4] == exact[:4]

    def test_refinement_neither_advances_clock_nor_counts(self):
        sim = Simulator()
        key = _LazyKey(1.0, 9.0)
        fired = []
        sim.schedule_at(key.bound, lambda: fired.append(sim.now), refine=key.refine)
        sim.schedule_at(5.0, lambda: fired.append(sim.now))
        assert sim.run(until=4.0) == 0
        assert sim.now == 0.0 and sim.events_fired == 0
        # Refined only as far as the run's clock needed.
        assert 4.0 < key.bound < key.time
        assert sim.peek_next_time() == 5.0
        sim.run()
        assert fired == [5.0, 9.0]
        assert sim.events_fired == 2

    def test_tie_with_exact_time_keeps_schedule_order(self):
        sim = Simulator()
        order = []
        key = _LazyKey(0.0, 5.0)
        sim.schedule_at(key.bound, lambda: order.append("lazy"), refine=key.refine)
        sim.schedule_at(5.0, lambda: order.append("plain"))
        sim.run()
        assert order == ["lazy", "plain"]

    def test_compaction_drops_cancelled_lazy_entries(self):
        sim = Simulator()
        order = []
        keep = []
        keys = []
        for i in range(200):
            key = _LazyKey(0.0, float(i % 37))
            keys.append(key)
            handle = sim.schedule_at(
                key.bound, lambda i=i: order.append(i), refine=key.refine
            )
            if i % 4:
                handle.cancel()  # triggers compaction partway through
            else:
                keep.append(i)
        assert sim.pending_events < 200
        sim.run()
        assert order == sorted(keep, key=lambda i: (i % 37, i))
        assert sim.pending_events == 0
        assert all(keys[i].refinements == 0 for i in range(200) if i % 4)
