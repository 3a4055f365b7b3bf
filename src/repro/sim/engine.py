"""The event engine.

Design notes:

- Time is a ``float`` in **milliseconds** (see :mod:`repro.common.units`).
- Events at the same timestamp fire in scheduling order (a monotonically
  increasing sequence number breaks ties), so runs are deterministic.
- Cancellation is lazy: a cancelled event stays in the heap but is skipped
  when popped. This keeps :meth:`Engine.cancel` O(1). To stop cancelled
  entries accumulating forever under cancel-heavy workloads (periodic
  attestation re-arming, scheduler timeslice churn), the heap is
  compacted whenever cancelled entries outnumber live ones — an O(n)
  rebuild amortised against the ≥ n/2 dead entries it removes.
- Heap entries are plain ``(time, born, seq, event)`` tuples, where
  ``born`` is the clock when the event was scheduled: every sift in
  push/pop compares entries, and tuple comparison (resolved on the
  floats, then the unique int) is several times cheaper than a generated
  dataclass ``__lt__``. The clock never runs backwards, so ``born`` rises
  with ``seq`` and ordinary events fire exactly in ``(time, seq)``
  order; ``born`` exists for :class:`Periodic`, whose resumed firing
  must sort as if its chain had never stopped. The event payload rides
  along uncompared (``_Event`` is ``__slots__``-based, so its mutable
  flags are plain slot loads).
- A parked :class:`Periodic` chain keeps only the key of its next
  firing, in a small side heap. Before a popped event runs, every parked
  key below the event's key *passes*: it takes the next sequence number,
  exactly as the live firing's re-arm would have, and moves one period
  on. Chains with adjacent keys (same instant and birth, consecutive
  sequence numbers, like one server's idle pCPUs) share one group entry
  and pass together in O(1). The run loops pay one float compare per
  event for this (against ``_watch``, the earliest parked instant); the
  side heap is touched only at parked firing instants, with no callback,
  event or queue push.
- The ``run``/``run_until`` loops are deliberately flat: the heap pop,
  the queue, and the error class are bound to locals outside the loop,
  ``run`` inlines :meth:`step` instead of paying a method call per
  event, and the sequence counter is a plain int. At 10k-VM fleet scale
  the engine pushes through hundreds of thousands of events per
  simulated run, so per-event interpreter overhead is the ceiling
  (``benchmarks/bench_crypto_floor.py`` tracks it).
- Compaction rebuilds the queue **in place** (slice assignment), never
  rebinding ``self._queue`` — the run loops hold a local alias to the
  list, and a callback-triggered cancel may compact mid-run.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush, heapreplace
from math import inf
from typing import Any, Callable, Optional

from repro.common.errors import StateError


class _Event:
    """Mutable per-event state carried inside a heap tuple."""

    __slots__ = ("time", "callback", "args", "cancelled", "popped")

    def __init__(self, time: float, callback: Callable[..., None], args: tuple):
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False
        #: set once the event leaves the heap (fired or skipped), so a late
        #: cancel of an already-popped event cannot skew the cancelled count
        self.popped = False


class EventHandle:
    """Opaque handle returned by :meth:`Engine.schedule`; allows cancel."""

    __slots__ = ("_event",)

    def __init__(self, event: _Event):
        self._event = event

    @property
    def time(self) -> float:
        """Absolute simulation time at which the event will fire."""
        return self._event.time

    @property
    def cancelled(self) -> bool:
        """Whether the event has been cancelled."""
        return self._event.cancelled


class Periodic:
    """A fixed-period event chain that can *park* while it has nothing to do.

    Made by :meth:`Engine.periodic`. The chain's callback ends every
    firing with exactly one of :meth:`rearm` (fire again one period from
    now) or :meth:`park` (stop firing). While parked, the engine still
    tracks the key each skipped firing would have had (module notes),
    so :meth:`resume` puts the chain back at exactly the heap slot it
    would hold had it re-armed at every firing. A chain whose skipped
    firings would have been no-ops therefore runs the same schedule as
    a live one. Firing instants are the repeated sums ``t + period`` the
    live chain computes, never a closed form.
    """

    __slots__ = ("_engine", "period", "_callback", "_args", "_slot")

    def __init__(
        self, engine: "Engine", period: float, callback: Callable[..., None],
        args: tuple,
    ):
        self._engine = engine
        self.period = period
        self._callback = callback
        self._args = args
        #: the side-heap group holding this chain while parked, else None
        self._slot: Optional[list] = None
        engine.schedule(period, callback, *args)

    @property
    def parked(self) -> bool:
        """Whether the chain is parked (no firing on the queue)."""
        return self._slot is not None

    def rearm(self) -> None:
        """Schedule the next firing one period from now (call from the callback)."""
        self._engine.schedule(self.period, self._callback, *self._args)

    def park(self) -> None:
        """Stop firing (call from the callback instead of :meth:`rearm`).

        Takes the sequence number :meth:`rearm` would have taken.
        """
        self._engine._park(self)

    def resume(self) -> None:
        """Put a parked chain back on the queue; a live chain is left alone."""
        if self._slot is None:
            return
        engine = self._engine
        born, seq = engine._unpark(self)
        engine._schedule_from(born, seq, self.period, self._callback, self._args)


class Engine:
    """A deterministic discrete-event simulator.

    Typical use::

        engine = Engine()
        engine.schedule(10.0, lambda: print("at t=10ms"))
        engine.run_until(100.0)
    """

    def __init__(self):
        self._now = 0.0
        self._queue: list[tuple[float, float, int, _Event]] = []
        self._seq = 0
        #: parked :class:`Periodic` chains, grouped (module notes): a heap
        #: of ``[time, born, base, chains, period]``
        self._parked: list[list] = []
        #: earliest parked firing instant (``inf`` when none is parked)
        self._watch = inf
        self._running = False
        self._cancelled = 0
        #: total events executed over the engine's lifetime (telemetry)
        self.events_fired = 0
        #: mirror-replay override for :attr:`pending_count` (see
        #: :meth:`sync_stats`); ``None`` = report the live queue
        self._pending_override: Optional[int] = None

    @property
    def now(self) -> float:
        """Current simulation time in milliseconds."""
        return self._now

    @property
    def pending_count(self) -> int:
        """Live (non-cancelled) events still queued — O(1)."""
        if self._pending_override is not None:
            return self._pending_override
        return len(self._queue) - self._cancelled

    def sync_stats(
        self, events_fired: int, pending: Optional[int]
    ) -> None:
        """Pin the telemetry-visible queue stats to observed values.

        Companion to :meth:`sync_clock` for mirror engines: the worker
        process that really ran the events reports its lifetime count
        and queue depth, so the mirror's sampled ``sim.*`` gauges match
        the serial run's bytes. ``pending=None`` clears the override
        (the live queue becomes authoritative again — used when a
        mirror is promoted after a worker crash).
        """
        self.events_fired = events_fired
        self._pending_override = pending

    def sync_clock(self, now_ms: float) -> None:
        """Pin the clock to an externally observed time.

        Used by the parallel shard executor (:mod:`repro.shard.
        parallel`) to keep a coordinator-side mirror engine's clock in
        lock-step with the worker process that actually ran the events,
        so clock-stamped replays (observatory events, alert records)
        land on the same timeline bytes. Never call this on an engine
        that is executing its own queue.
        """
        self._now = now_ms

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` ms from now.

        ``delay`` must be non-negative; a zero delay fires after all
        events already scheduled for the current instant.
        """
        if delay < 0:
            raise StateError(f"cannot schedule into the past (delay={delay})")
        now = self._now
        event = _Event(now + delay, callback, args)
        seq = self._seq
        self._seq = seq + 1
        heappush(self._queue, (event.time, now, seq, event))
        return EventHandle(event)

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule at exactly the absolute time ``time`` (not in the past).

        The entry is keyed on ``time`` itself: ``now + (time - now)`` can
        miss it by an ulp, and no delay at all reaches it when ``now``
        sits half a grid step off the spacing of floats near ``time``.
        """
        now = self._now
        if time < now:
            raise StateError(f"cannot schedule into the past (time={time}, now={now})")
        event = _Event(time, callback, args)
        seq = self._seq
        self._seq = seq + 1
        heappush(self._queue, (time, now, seq, event))
        return EventHandle(event)

    def periodic(
        self, period: float, callback: Callable[..., None], *args: Any
    ) -> Periodic:
        """Start a parkable chain firing ``callback(*args)`` every ``period`` ms.

        The first firing is one period from now; see :class:`Periodic`
        for how the callback keeps the chain going.
        """
        if period <= 0:
            raise StateError(f"period must be positive (period={period})")
        return Periodic(self, period, callback, args)

    def _schedule_from(
        self, born: float, seq: int, delay: float,
        callback: Callable[..., None], args: tuple,
    ) -> EventHandle:
        """Schedule ``delay`` after clock ``born``, with sequence ``seq``.

        Gives a resumed :class:`Periodic` firing the key its live chain
        would have pushed. It briefly rewinds the clock and the sequence
        counter so the event still enters the queue through
        :meth:`schedule`; ``born + delay`` is the same float sum that
        produced the parked firing's instant.
        """
        now, next_seq = self._now, self._seq
        self._now, self._seq = born, seq
        try:
            return self.schedule(delay, callback, *args)
        finally:
            self._now, self._seq = now, next_seq

    def _park(self, chain: Periodic) -> None:
        now, seq = self._now, self._seq
        self._seq = seq + 1
        self._regroup([now + chain.period, now, seq, [chain], chain.period])
        self._watch = self._parked[0][0]

    def _unpark(self, chain: Periodic) -> tuple[float, int]:
        """Take ``chain`` out of its group; return its next firing's born and seq."""
        group = chain._slot
        chain._slot = None
        time, born, base, chains, period = group
        k = chains.index(chain)
        rest = chains[k + 1:]
        del chains[k:]  # an emptied group leaves the heap when it passes
        if rest:
            self._regroup([time, born, base + k + 1, rest, period])
        return born, base + k

    def _regroup(self, group: list) -> None:
        for chain in group[3]:
            chain._slot = group
        heappush(self._parked, group)

    def _pass_parked(self, limit) -> None:
        """Let every parked firing keyed below ``limit`` happen (module notes).

        ``limit`` is a popped heap entry, or ``[horizon, inf]`` once a run
        has drained everything up to ``horizon``.
        """
        limit = list(limit[:3])
        parked = self._parked
        last = None
        while parked and parked[0] < limit:
            group = parked[0]
            time, born, base, chains, period = group
            if not chains:
                heappop(parked)
                continue
            passing = len(chains)
            if time == limit[0] and born == limit[1]:
                passing = min(passing, limit[2] - base)
            seq = self._seq
            self._seq = seq + passing
            if passing < len(chains):
                # the limit sorts inside the group: the tail stays put
                self._regroup([time, born, base + passing, chains[passing:], period])
                del chains[passing:]
            time, born = time + period, time
            if (
                last is not None and last[0] == time and last[1] == born
                and last[2] + len(last[3]) == seq and last[4] == period
            ):
                # advanced right after ``last`` to the same instant: merge
                last[3].extend(chains)
                for chain in chains:
                    chain._slot = last
                heappop(parked)
                continue
            group[0], group[1], group[2] = time, born, seq
            heapreplace(parked, group)
            last = group
        self._watch = parked[0][0] if parked else inf

    def cancel(self, handle: EventHandle) -> None:
        """Cancel a pending event. Cancelling twice is a no-op."""
        event = handle._event
        if event.cancelled or event.popped:
            event.cancelled = True
            return
        event.cancelled = True
        self._cancelled += 1
        if self._cancelled > len(self._queue) // 2 and len(self._queue) >= 64:
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify, in place (module notes)."""
        queue = self._queue
        queue[:] = [entry for entry in queue if not entry[3].cancelled]
        heapify(queue)
        self._cancelled = 0

    def step(self) -> bool:
        """Run the next pending event. Returns False if the queue is empty."""
        queue = self._queue
        while queue:
            entry = heappop(queue)
            event = entry[3]
            event.popped = True
            if event.cancelled:
                self._cancelled -= 1
                continue
            self._now = event.time
            if event.time >= self._watch:
                self._pass_parked(entry)
            self.events_fired += 1
            event.callback(*event.args)
            return True
        return False

    def run_until(self, end_time: float) -> None:
        """Run all events with timestamps ``<= end_time``.

        Leaves ``now`` at least ``end_time`` even if the queue drains
        early, so follow-on scheduling is relative to the horizon.

        Re-entrancy: an event callback may itself call ``run_until``
        (e.g. a periodic attestation firing network calls, each of which
        advances the clock). Inner calls may push ``now`` past the outer
        horizon; the monotonic-time guards keep time consistent in that
        case.
        """
        if end_time < self._now:
            raise StateError("run_until target is in the past")
        queue = self._queue
        pop = heappop
        while queue and queue[0][0] <= end_time:
            entry = pop(queue)
            event = entry[3]
            event.popped = True
            if event.cancelled:
                self._cancelled -= 1
                continue
            time_ = entry[0]
            if time_ > self._now:
                self._now = time_
            if time_ >= self._watch:
                self._pass_parked(entry)
            self.events_fired += 1
            event.callback(*event.args)
        if end_time >= self._watch:
            self._pass_parked([end_time, inf])
        if end_time > self._now:
            self._now = end_time

    def run(self, max_events: int = 1_000_000) -> int:
        """Run until the queue is empty; returns the event count executed.

        ``max_events`` guards against runaway self-rescheduling loops.
        """
        queue = self._queue
        pop = heappop
        executed = 0
        while queue:
            entry = pop(queue)
            event = entry[3]
            event.popped = True
            if event.cancelled:
                self._cancelled -= 1
                continue
            time_ = entry[0]
            self._now = time_
            if time_ >= self._watch:
                self._pass_parked(entry)
            self.events_fired += 1
            event.callback(*event.args)
            executed += 1
            if executed >= max_events:
                raise StateError(f"exceeded {max_events} events; runaway loop?")
        if self._now >= self._watch:
            self._pass_parked([self._now, inf])
        return executed

    def pending(self) -> int:
        """Number of live events still queued (see :attr:`pending_count`)."""
        return self.pending_count
