"""The discrete-event engine.

A minimal, fast event loop: events are ``(time, sequence, action)`` triples
in a :class:`HeapEventQueue`, a compacting binary heap with O(log n)
push/pop. The sequence number breaks time ties in scheduling order, which
makes every simulation a deterministic function of its root seed — a
property the reproducibility tests assert end-to-end.

Cancellation is lazy (a cancelled handle stays queued and is skipped when
popped), which keeps both ``schedule`` and ``cancel`` cheap. Long runs with
recurring reschedule/cancel cycles (heartbeat watchdogs, network sweeps)
would otherwise accumulate dead entries without bound, so the queue is
compacted — cancelled entries dropped — whenever they outnumber the live
ones (amortised O(1) per cancellation; :attr:`Simulator.pending_events`
stays within a constant factor of the live event count). Compaction never
changes the ``(time, seq)`` order of the live entries.

An event may be *lazily keyed*: scheduled at a lower bound on its time,
with a ``refine`` callback that can tighten the bound. Such an entry is
refined only when it reaches the queue head, and only until its bound
passes the next entry's time or its time is exact; it is re-pushed under
the sequence number it was scheduled with. A refinement never advances
the clock or counts as a fired event, and an entry fires only once its
time is exact, so the ``(time, seq)`` order, and with it every
trajectory, is the one the exact times would give. The failure injector
keys the return of a host on its busy period's end this way, so an
unstable host's fold runs only as far as the clock gets.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, List, Optional, Tuple

#: Never compact below this queue size: tiny queues don't need the churn.
_COMPACT_MIN_SIZE = 64

#: ``refine(target)`` of a lazily keyed event: tighten the lower bound on
#: the event's time until it passes ``target`` or is exact, and return
#: ``(time, exact)``.
Refine = Callable[[float], Tuple[float, bool]]


class EventHandle:
    """A scheduled event; call :meth:`cancel` to revoke it."""

    __slots__ = ("time", "action", "label", "refine", "_cancelled", "_sim")

    def __init__(
        self,
        time: float,
        action: Callable[[], None],
        label: str,
        sim: Optional["Simulator"] = None,
        refine: Optional[Refine] = None,
    ) -> None:
        #: The event's time; a lower bound on it while ``refine`` is set.
        self.time = time
        self.action: Optional[Callable[[], None]] = action
        self.label = label
        #: Tightens a lazily keyed time; None once the time is exact.
        self.refine = refine
        self._cancelled = False
        #: Owning simulator, told about cancellations for heap hygiene.
        self._sim = sim

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def cancel(self) -> None:
        """Revoke the event; a no-op if it already fired."""
        if self._cancelled:
            return
        self._cancelled = True
        self.action = None  # release the closure promptly
        self.refine = None  # and a lazy key's fold state
        if self._sim is not None:
            self._sim._note_cancelled()

    def _consume(self) -> None:
        """Mark fired (already popped — no hygiene accounting)."""
        self._cancelled = True
        self.action = None

    def __repr__(self) -> str:
        state = "cancelled" if self._cancelled else "pending"
        return f"EventHandle(t={self.time:g}, label={self.label!r}, {state})"


#: One queued event: (time, sequence, handle). Tuple comparison gives the
#: total (time, seq) order; sequences are unique so handle comparison is
#: never reached.
QueueEntry = Tuple[float, int, EventHandle]


class HeapEventQueue:
    """Priority queue of :data:`QueueEntry` items in ``(time, seq)`` order.

    A plain binary heap (``heapq``). Cancelled-entry skipping and
    accounting live in :class:`Simulator`; the queue just stores and
    orders.
    """

    __slots__ = ("_heap",)

    def __init__(self) -> None:
        self._heap: List[QueueEntry] = []

    def push(self, entry: QueueEntry) -> None:
        heapq.heappush(self._heap, entry)

    def pop(self) -> QueueEntry:
        return heapq.heappop(self._heap)

    def peek(self) -> Optional[QueueEntry]:
        return self._heap[0] if self._heap else None

    def compact(self) -> int:
        before = len(self._heap)
        self._heap = [entry for entry in self._heap if not entry[2].cancelled]
        heapq.heapify(self._heap)
        return before - len(self._heap)

    def __len__(self) -> int:
        return len(self._heap)


class Simulator:
    """Deterministic discrete-event simulator."""

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._queue = HeapEventQueue()
        self._sequence = itertools.count()
        self._events_fired = 0
        self._running = False
        self._cancelled_in_heap = 0

    @property
    def now(self) -> float:
        """Current simulation time (seconds)."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Number of events executed so far."""
        return self._events_fired

    @property
    def pending_events(self) -> int:
        """Events still queued (including lazily-cancelled ones)."""
        return len(self._queue)

    @property
    def cancelled_pending(self) -> int:
        """Lazily-cancelled entries currently occupying the queue."""
        return self._cancelled_in_heap

    @property
    def queue(self) -> HeapEventQueue:
        """The live event queue (introspection/tests)."""
        return self._queue

    def schedule(
        self,
        delay: float,
        action: Callable[[], None],
        label: str = "",
    ) -> EventHandle:
        """Schedule ``action`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, action, label)

    def schedule_at(
        self,
        time: float,
        action: Callable[[], None],
        label: str = "",
        refine: Optional[Refine] = None,
    ) -> EventHandle:
        """Schedule ``action`` at an absolute simulation time.

        With ``refine``, ``time`` is a lower bound on the event's time and
        the entry is lazily keyed (see the module docstring); its refined
        times must be finite too.
        """
        if time < self._now:
            raise ValueError(f"cannot schedule at {time} before now ({self._now})")
        if not math.isfinite(time):
            raise ValueError(f"event time must be finite, got {time}")
        handle = EventHandle(time, action, label, sim=self, refine=refine)
        self._queue.push((time, next(self._sequence), handle))
        return handle

    def step(self) -> bool:
        """Execute the next event. Returns False when the queue is empty."""
        if self._peek_time() is None:
            return False
        # _peek_time left a live, exactly keyed handle at the queue head.
        time, _seq, handle = self._queue.pop()
        self._now = time
        action = handle.action
        handle._consume()  # mark fired; also drops the closure ref
        self._events_fired += 1
        assert action is not None
        action()
        return True

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run events until the queue drains, ``until`` passes, or the budget ends.

        Returns the number of events executed by this call. Events scheduled
        exactly at ``until`` still run; the clock never advances past the
        last executed event.
        """
        if self._running:
            raise RuntimeError("simulator is already running (re-entrant run())")
        self._running = True
        executed = 0
        limit = math.inf if until is None else until
        try:
            while len(self._queue):
                if max_events is not None and executed >= max_events:
                    break
                next_time = self._peek_time(limit)
                if next_time is None:
                    break
                if until is not None and next_time > until:
                    break
                # _peek_time left a live handle at the queue head; pop it
                # directly instead of letting step() rescan for one.
                time, _seq, handle = self._queue.pop()
                self._now = time
                action = handle.action
                handle._consume()  # mark fired; also drops the closure ref
                self._events_fired += 1
                assert action is not None
                action()
                executed += 1
        finally:
            self._running = False
        return executed

    def peek_next_time(self) -> Optional[float]:
        """Time of the next live event, or None when the queue is drained.

        Never earlier than :attr:`now` — the invariant auditor checks this;
        a violation would mean queue ordering itself broke.
        """
        return self._peek_time()

    def _peek_time(self, limit: float = math.inf) -> Optional[float]:
        """Time of the next live event, discarding cancelled heads.

        A lazily keyed head is refined until it is exact, or until its
        bound passes ``limit``: then the bound, already past ``limit``, is
        returned and the head stays lazy.
        """
        queue = self._queue
        while True:
            entry = queue.peek()
            if entry is None:
                return None
            handle = entry[2]
            if handle.cancelled:
                queue.pop()
                self._cancelled_in_heap -= 1
                continue
            if handle.refine is None or entry[0] > limit:
                return entry[0]
            self._refine_head(limit)

    def _refine_head(self, limit: float) -> None:
        """Refine the lazily keyed head past the next live entry's time.

        Its bound only has to pass that time (or ``limit``) to fall behind
        it; re-pushing under the same sequence number keeps ties in
        scheduling order.
        """
        queue = self._queue
        _bound, seq, handle = queue.pop()
        target = limit
        while True:
            entry = queue.peek()
            if entry is None:
                break
            if entry[2].cancelled:
                queue.pop()
                self._cancelled_in_heap -= 1
                continue
            target = min(entry[0], limit)
            break
        refine = handle.refine
        assert refine is not None
        time, exact = refine(target)
        if exact:
            handle.refine = None
        handle.time = time
        queue.push((time, seq, handle))

    def _note_cancelled(self) -> None:
        """A pending handle was cancelled; compact when the dead outnumber
        the living (and the queue is big enough to care)."""
        self._cancelled_in_heap += 1
        if (
            len(self._queue) >= _COMPACT_MIN_SIZE
            and self._cancelled_in_heap * 2 > len(self._queue)
        ):
            self._queue.compact()
            self._cancelled_in_heap = 0

    def __repr__(self) -> str:
        return f"Simulator(now={self._now:g}, pending={len(self._queue)})"
