"""Discrete-event simulation kernel.

A dependency-free, SimPy-flavoured event loop.  Simulated components are
generator coroutines ("processes") that ``yield`` events; the kernel resumes
each process when the event it waits on fires.  Time is a float in simulated
seconds, and a run is fully deterministic for a given seed (randomness comes
only from :mod:`repro.sim.rng` streams, never from the kernel itself).

Hot-path design notes
---------------------
The kernel is the inner loop of every measurement point, so it trades a
little generality for speed:

* the scheduler is an **event-slab** heap: consecutive schedules sharing
  the same ``(time, priority)`` append to one flat slab behind a single
  heap entry, so a same-time burst (broadcast fan-out, a batch commit
  resolving hundreds of waiters) costs two heap pushes total instead of
  one ``heappush``/``heappop`` pair per event.  Slabs are consumed in
  insertion order, which is exactly the ``(when, prio, seq)`` order the
  tuple-per-event scheduler produced — event ordering is bit-identical;
* :class:`Timeout` is *cancellable*: a timer that lost its race (a
  batch window beaten by a max-batch kick, a block timeout beaten by a
  count cut) is marked and dropped lazily when its slab entry comes up,
  and a sweep removes cancelled entries wholesale once they outnumber
  the live ones, so dead timers do not grow the schedule.  Every
  ``Timeout`` is a fresh object used once, so any holder may keep it
  and call :meth:`Timeout.cancel` later: on a timer that has fired or
  been cancelled it returns ``False``;
* :class:`Process` resumes *immediately* (same timestep, no heap round
  trip) when it yields an event that has already been processed; the
  resume loop is an iterative **trampoline**, so a chain of
  already-processed events of any length costs O(1) Python stack;
* the **flat-event calling convention**: helpers on the hot path hand
  back a single :class:`Event` (``yield helper()``) instead of a
  sub-generator (``yield from helper()``), so a wait costs one parked
  callback instead of a nested generator frame walked on every resume.
  Helpers that may complete without waiting return
  :meth:`Environment.resolved`, which the trampoline short-circuits.
  Completion callbacks resume waiters inline via
  :meth:`Event._resolve` — a direct continuation with no scheduler
  re-entry, falling back to the heap past ``_MAX_INLINE_DEPTH`` nested
  resolutions;
* **timer-free continuations**: a chain stage with exactly one waiter
  goes into the timer's heap slot as a plain ``func(arg)`` entry —
  :meth:`Environment.after` for a delay, ``Resource.serve_then`` for a
  serve — with no :class:`Timeout` or callback list built.  ``timeout``
  and ``serve_event`` stay for events that are yielded, raced, joined,
  cancelled or read;
* one **fan-in join**, :class:`AllOf` (``env.all_of``): a process
  yields it and a flat callback chain parks on it with
  :func:`subscribe`, so a 2PC fan-out and a generator barrier share
  one counter, one dispatch position and one fail-fast contract;
  :class:`AnyOf` is the race (first completion wins);
* :class:`WakeableQueue` is the producer/consumer primitive behind
  wake-on-proposal consensus loops: ``put()`` fires a parked consumer's
  waiter at the *same* simulated time, and threshold waiters reproduce
  max-batch kicks without any polling timer.

Example
-------
>>> env = Environment()
>>> log = []
>>> def worker(env, name):
...     yield env.timeout(1.0)
...     log.append((env.now, name))
>>> _ = env.process(worker(env, "a"))
>>> _ = env.process(worker(env, "b"))
>>> join = env.all_of([env.timeout(0.5, "x"), env.resolved("y")])
>>> subscribe(join, lambda ev: log.append((env.now, ev.value)))
>>> env.after(0.25, lambda _arg: log.append((env.now, "after")))
>>> env.run()
>>> log
[(0.25, 'after'), (0.5, ['x', 'y']), (1.0, 'a'), (1.0, 'b')]
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "SimulationError",
    "WakeableQueue",
    "subscribe",
]


def subscribe(ev: "Event", callback: Callable[["Event"], None]) -> None:
    """Park ``callback`` on ``ev``, or invoke it now if already processed.

    The chain-object continuation idiom: a stage that waits on an event
    of uncertain state (a propose result, a join, another chain's done)
    must mirror the process trampoline's already-processed short-circuit
    — if the event has been dispatched, the continuation runs inline at
    the current cascade position instead of being parked forever.
    """
    callbacks = ev.callbacks
    if callbacks is None:
        callback(ev)
    else:
        callbacks.append(callback)


class SimulationError(Exception):
    """Raised for misuse of the kernel (e.g. running a finished process)."""


#: Nested inline resolutions allowed before :meth:`Event._resolve` falls
#: back to the heap.  Inline resolution only nests when a resumed waiter
#: synchronously resolves another event *within the same callback cascade*
#: (a service completion whose continuation completes another service at
#: the same instant), so real chains are a handful deep; the guard exists
#: to bound Python stack growth on pathological synthetic chains, where
#: the fallback trades the inline ordering guarantee for safety.
_MAX_INLINE_DEPTH = 64


class Event:
    """A one-shot occurrence that processes can wait on.

    An event is *triggered* at most once, either successfully (with a
    ``value``) or with a failure exception that propagates into waiters.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_triggered",
                 "_scheduled", "_cancelled")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        self._scheduled = False
        self._cancelled = False

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def processed(self) -> bool:
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if not self._triggered:
            raise SimulationError("event not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("event not yet triggered")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._ok = True
        self._value = value
        self.env._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception; waiters will see it raised."""
        if self._triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._ok = False
        self._value = exception
        self.env._schedule(self)
        return self

    def _resolve(self, value: Any = None) -> None:
        """Trigger and dispatch inline — a direct continuation.

        Runs waiter callbacks synchronously at the current simulated
        time instead of scheduling the event through the heap, which is
        exactly where a ``yield from`` sub-generator would have resumed
        its caller: the flat fast paths use this so a completion costs
        no heap trip and the caller continues inside the cascade that
        produced it.  Past :data:`_MAX_INLINE_DEPTH`
        nested resolutions the event falls back to a scheduled
        :meth:`succeed` (same time, later in the cascade) to bound
        Python stack depth.
        """
        env = self.env
        if env._inline_depth >= _MAX_INLINE_DEPTH:
            self.succeed(value)
            return
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._ok = True
        self._value = value
        callbacks, self.callbacks = self.callbacks, None
        if callbacks:
            env._inline_depth += 1
            try:
                for callback in callbacks:
                    callback(self)
            finally:
                env._inline_depth -= 1


class Timeout(Event):
    """An event that fires ``delay`` simulated seconds after creation.

    It only becomes *triggered* when the clock reaches its due time — a
    pending timeout joined by ``all_of``/``any_of`` has not completed.

    A pending timeout can be :meth:`cancel`-led; a cancelled timeout never
    triggers and its slab entry is dropped lazily.  A timeout is never
    reused, so a handle held past the timer's life stays safe to cancel.
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None,
                 _when: Optional[float] = None):
        if not delay >= 0:    # also rejects NaN
            raise ValueError(f"delay must be >= 0: {delay!r}")
        super().__init__(env)
        self.delay = delay
        self._value = value
        env._schedule(self, delay, _when)

    def cancel(self) -> bool:
        """Withdraw a pending timeout; False if it fired or was cancelled.

        Cancelling is O(1): the slab entry is skipped when consumed, or
        removed wholesale when cancelled entries pile up.
        """
        if self._triggered or self._cancelled:
            return False
        self._cancelled = True
        env = self.env
        env._cancelled_count += 1
        if env._cancelled_count > 64 \
                and env._cancelled_count > env._compact_watermark:
            env._compact()
        return True


class Process(Event):
    """A running generator coroutine.

    A process is itself an event: it triggers when the generator returns
    (with the generator's return value) or raises (with the exception).
    """

    __slots__ = ("generator", "name")

    def __init__(self, env: "Environment", generator: Generator, name: str = ""):
        super().__init__(env)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # Bootstrap: resume once at the current time.
        init = Event(env)
        init._triggered = True
        init.callbacks = None
        env._schedule_call(self._resume, init)

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def _resume(self, event: Event) -> None:
        # Iterative trampoline: a chain of already-processed events (the
        # `callbacks is None` short-circuit below) re-enters neither the
        # scheduler nor this function — it loops, costing O(1) stack for
        # a chain of any length.
        if self._triggered:
            return
        generator = self.generator
        while True:
            try:
                if event._ok:
                    nxt = generator.send(event._value)
                else:
                    exc = event._value
                    nxt = generator.throw(exc)
            except StopIteration as stop:
                self._triggered = True
                self._ok = True
                self._value = stop.value
                self.env._schedule(self)
                return
            except BaseException as exc:  # propagate into waiters, or crash
                self._triggered = True
                self._ok = False
                self._value = exc
                if self.callbacks:
                    self.env._schedule(self)
                else:
                    self.callbacks = None
                    raise
                return
            if not isinstance(nxt, Event):
                raise SimulationError(
                    f"process {self.name!r} yielded non-event: {nxt!r}"
                )
            callbacks = nxt.callbacks
            if callbacks is None:
                # Already processed: resume immediately (same timestep),
                # skipping the heap round-trip.
                event = nxt
                continue
            callbacks.append(self._resume)
            return


class AllOf(Event):
    """The fan-in join: triggers when every component event has triggered.

    Its value is the list of component values, in the order given.  It
    subscribes once per component (an already-processed one counts at
    once) and counts down; the last completion succeeds the join
    through the scheduler, so its waiters run later in the cascade that
    completed the last component.  A component that fails fails the
    join at once with that exception, and every completion after the
    join has settled is ignored — two components dying at the same
    instant, or a straggler finishing after the join aborted, must not
    re-trigger a settled event.  Flat callback chains park on it with
    :func:`subscribe` the same way a process yields it.
    """

    __slots__ = ("events", "_remaining")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events = list(events)
        self._remaining = len(self.events)
        if not self._remaining:
            self.succeed([])
            return
        # subscribe() inlined: this loop runs once per component of
        # every join on the hot path.
        check = self._check
        for ev in self.events:
            callbacks = ev.callbacks
            if callbacks is None:
                check(ev)
            else:
                callbacks.append(check)

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._remaining -= 1
        if not self._remaining:
            self.succeed([ev._value for ev in self.events])


class AnyOf(Event):
    """Triggers when the first component event triggers.

    Its value is that first event's value.
    """

    __slots__ = ("events",)

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events = list(events)
        check = self._check
        for ev in self.events:
            callbacks = ev.callbacks
            if callbacks is None:
                check(ev)
            else:
                callbacks.append(check)
        # A component triggered but not yet dispatched also counts.
        for ev in self.events:
            if ev._triggered:
                check(ev)
                break

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._value)


class WakeableQueue:
    """A FIFO of pending work whose consumer parks until ``put()`` wakes it.

    The primitive behind wake-on-proposal consensus loops.  Contract:

    * :meth:`put` appends an item and fires every armed waiter whose
      threshold is met, **at the same simulated time** — a parked
      consumer observes the item with zero polling delay;
    * :meth:`wait` arms a one-shot event that fires at the first
      *subsequent* ``put()`` bringing the queue length to at least
      ``threshold``.  It never fires retroactively for items already
      queued (callers check ``len(queue)`` first) — this deliberately
      mirrors the max-batch "kick" contract of the old leader loops,
      where a backlog above the batch size does not re-kick until a new
      proposal arrives;
    * :meth:`cancel_wait` disarms a waiter that lost its race to a
      batch-window or heartbeat timer;
    * :meth:`take` pops up to ``n`` items in FIFO order; :meth:`drain`
      empties the queue (used when a deposed leader fails its backlog).
    """

    __slots__ = ("env", "_items", "_waiters")

    def __init__(self, env: "Environment"):
        self.env = env
        self._items: deque[Any] = deque()
        self._waiters: list[tuple[int, Event]] = []

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __iter__(self):
        return iter(self._items)

    def put(self, item: Any) -> None:
        """Append ``item``; wake armed waiters whose threshold is met."""
        items = self._items
        items.append(item)
        waiters = self._waiters
        if waiters:
            n = len(items)
            ready = [w for w in waiters if w[0] <= n]
            if ready:
                if len(ready) == len(waiters):
                    waiters.clear()
                else:
                    self._waiters = [w for w in waiters if w[0] > n]
                for _threshold, ev in ready:
                    if not ev._triggered:
                        ev.succeed(item)

    def wait(self, threshold: int = 1) -> Event:
        """Arm a waiter fired by the first put() reaching ``threshold``."""
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        ev = Event(self.env)
        self._waiters.append((threshold, ev))
        return ev

    def cancel_wait(self, ev: Event) -> None:
        """Disarm a waiter returned by :meth:`wait` (no-op if it fired)."""
        self._waiters = [w for w in self._waiters if w[1] is not ev]

    def take(self, n: int) -> list[Any]:
        """Pop and return up to ``n`` items in FIFO order."""
        items = self._items
        if len(items) <= n:
            out = list(items)
            items.clear()
            return out
        popleft = items.popleft
        return [popleft() for _ in range(n)]

    def drain(self) -> list[Any]:
        """Pop and return every queued item."""
        out = list(self._items)
        self._items.clear()
        return out


class Environment:
    """The simulation clock and scheduler.

    Scheduling is slab-hybrid: a lone entry is a plain 5-tuple
    ``(when, prio, seq, func, arg)`` exactly as the tuple-per-event
    scheduler pushed it, but consecutive schedules for the same
    ``(when, prio)`` key — a broadcast fan-out, a batch commit resolving
    hundreds of waiters, a window of identical network delays — append
    to one mutable *slab* ``[when, prio, seq, idx, func0, arg0, ...]``
    behind a single heap entry (``idx`` is the consumption cursor).  A
    burst of N events therefore costs two heap pushes instead of N.
    Correctness never depends on coalescing: heap items dispatch in
    ``(when, prio, seq)`` order (tuples and slabs never reach the
    uncomparable tail positions because ``seq`` is unique) and entries
    within a slab dispatch in insertion order, which together reproduce
    exactly the tuple-per-event ``(when, prio, seq)`` order however the
    entries happen to be grouped.
    """

    def __init__(self, initial_time: float = 0.0):
        self.now: float = initial_time
        # heap of 5-tuples and slab items (see class docstring)
        self._queue: list = []
        # coalescing memo: key of the most recent push, plus the open
        # slab's entries list when that push upgraded to a slab (None
        # while the key still maps to a lone tuple)
        self._last_when: Optional[float] = None
        self._last_prio = 0
        self._last: Optional[list] = None
        self._seq = 0
        self._cancelled_count = 0
        # compaction threshold: the live-entry count observed by the
        # last _compact (updated there for free).  The trigger must
        # scale with *entries*, not heap items — slabs collapse bursts
        # into single items, and comparing against len(_queue) would
        # fire full-queue scans every ~64 cancels.  Scanning only after
        # ~live-size cancels keeps compaction amortized O(1) per cancel
        # without maintaining a per-event counter on the hot path.
        self._compact_watermark = 64
        self._inline_depth = 0

    # -- scheduling -------------------------------------------------------
    # _schedule, _schedule_call and after() inline the same slab-push
    # sequence: they are the hottest functions in the simulator and a
    # shared helper costs a Python call frame per event.

    def _schedule(self, event: Event, delay: float = 0.0,
                  when: Optional[float] = None) -> None:
        if event._scheduled:
            return
        event._scheduled = True
        if when is None:
            when = self.now + delay
        if self._last_when == when and self._last_prio == 0:
            entries = self._last
            if type(entries) is list:
                entries.append(None)
                entries.append(event)
                return
            # second entry for this key: open a slab for it (and any
            # further same-key arrivals); it sorts after the lone tuple
            seq = self._seq = self._seq + 1
            entries = [1, None, event]
            self._last = entries
            heapq.heappush(self._queue, (when, 0, seq, entries))
            return
        seq = self._seq = self._seq + 1
        self._last_when = when
        self._last_prio = 0
        self._last = None
        heapq.heappush(self._queue, (when, 0, seq, None, event))

    def _schedule_call(self, func: Callable, arg: Any, delay: float = 0.0) -> None:
        when = self.now + delay
        if self._last_when == when and self._last_prio == 1:
            entries = self._last
            if type(entries) is list:
                entries.append(func)
                entries.append(arg)
                return
            seq = self._seq = self._seq + 1
            entries = [1, func, arg]
            self._last = entries
            heapq.heappush(self._queue, (when, 1, seq, entries))
            return
        seq = self._seq = self._seq + 1
        self._last_when = when
        self._last_prio = 1
        self._last = None
        heapq.heappush(self._queue, (when, 1, seq, func, arg))

    def _schedule_call_at(self, func: Callable, arg: Any, when: float) -> None:
        """Schedule ``func(arg)`` at the absolute simulated time ``when``.

        Open-loop arrivals (and the timing wheel's slots) fire through
        this at the exact instant the caller holds: re-deriving it as
        ``now + (when - now)`` can land one ulp away from the stored
        float — enough to flip dispatch order against a heap-scheduled
        event at the same instant.
        """
        if not when >= self.now:
            raise SimulationError(
                f"_schedule_call_at({when!r}) is in the past or NaN "
                f"(now={self.now!r})")
        if self._last_when == when and self._last_prio == 1:
            entries = self._last
            if type(entries) is list:
                entries.append(func)
                entries.append(arg)
                return
            seq = self._seq = self._seq + 1
            entries = [1, func, arg]
            self._last = entries
            heapq.heappush(self._queue, (when, 1, seq, entries))
            return
        seq = self._seq = self._seq + 1
        self._last_when = when
        self._last_prio = 1
        self._last = None
        heapq.heappush(self._queue, (when, 1, seq, func, arg))

    def _schedule_call_last(self, func: Callable, arg: Any) -> None:
        """Schedule ``func(arg)`` at the current instant, *after* every
        event and priority-1 call already due at it.

        Priority 2 is a rendezvous slot for cross-build determinism: a
        callback whose dispatch position at a tied instant would
        otherwise depend on *when its trigger was created* (a network
        hop timer made one lookahead earlier vs. a barrier injection
        made at the window start) runs here instead, so single-heap and
        parallel builds place it identically.  Relative order among
        same-instant priority-2 entries is creation order, as usual.
        No slab coalescing: these are rare (one per cross-domain
        delivery instant), and leaving the ``_last`` memo untouched
        keeps the priority-1 fast path unperturbed.
        """
        seq = self._seq = self._seq + 1
        heapq.heappush(self._queue, (self.now, 2, seq, func, arg))

    @staticmethod
    def _dispatch(event: Event) -> None:
        event._triggered = True  # Timeouts trigger at their due time.
        callbacks, event.callbacks = event.callbacks, None
        if callbacks:
            for callback in callbacks:
                callback(event)

    def _compact(self) -> None:
        """Remove all cancelled entries from the schedule in one pass.

        Mutates the queue in place: ``run()`` holds a local alias to the
        list, so rebinding ``self._queue`` would desynchronize them.
        """
        queue = self._queue
        keep = []
        live = 0
        for item in queue:
            entries = item[3]
            if type(entries) is not list:
                event = item[4]
                if entries is None and event._cancelled:
                    self._cancelled_count -= 1
                else:
                    live += 1
                    keep.append(item)
                continue
            kept: list = [1]
            for i in range(entries[0], len(entries), 2):
                func = entries[i]
                arg = entries[i + 1]
                if func is None and arg._cancelled:
                    self._cancelled_count -= 1
                else:
                    kept.append(func)
                    kept.append(arg)
            if len(kept) > 1:
                live += (len(kept) - 1) // 2
                entries[:] = kept
                keep.append(item)
            elif self._last is entries:
                self._last = None
        queue[:] = keep
        heapq.heapify(queue)
        self._compact_watermark = max(64, live)

    # -- public API -------------------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def resolved(self, value: Any = None) -> Event:
        """An already-processed event carrying ``value``.

        The return type of the flat-event ("awaitable call") protocol
        for a helper that completed without waiting: the caller's
        ``yield`` of it short-circuits in the :class:`Process`
        trampoline — no heap entry, no callback, no scheduler re-entry.
        """
        ev = Event(self)
        ev._triggered = True
        ev.callbacks = None
        ev._value = value
        return ev

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def after(self, delay: float, func: Callable[[Any], None],
              arg: Any = None) -> None:
        """Call ``func(arg)`` ``delay`` simulated seconds from now.

        The one-waiter timer: ``func(arg)`` dispatches exactly where a
        ``timeout(delay)`` carrying ``func`` as its only callback would
        have (priority 0, through the same slab memo as
        :meth:`_schedule`), but no :class:`Timeout`, callback list or
        scheduling frame is built.  Keep :meth:`timeout` for a timer
        that is yielded, raced, joined, cancelled or read.
        """
        if not delay >= 0:    # also rejects NaN
            raise ValueError(f"delay must be >= 0: {delay!r}")
        when = self.now + delay
        if self._last_when == when and self._last_prio == 0:
            entries = self._last
            if type(entries) is list:
                entries.append(func)
                entries.append(arg)
                return
            seq = self._seq = self._seq + 1
            entries = [1, func, arg]
            self._last = entries
            heapq.heappush(self._queue, (when, 0, seq, entries))
            return
        seq = self._seq = self._seq + 1
        self._last_when = when
        self._last_prio = 0
        self._last = None
        heapq.heappush(self._queue, (when, 0, seq, func, arg))

    def timeout_at(self, when: float, value: Any = None) -> Timeout:
        """A timeout pinned to the absolute simulated time ``when``.

        ``timeout(when - now)`` can land on a float one ulp away from a
        previously computed boundary; wake-on-proposal loops use this to
        hit batch-window grid points exactly.
        """
        if not when >= self.now:
            raise ValueError(f"timeout_at({when!r}) is in the past or NaN "
                             f"(now={self.now!r})")
        return Timeout(self, when - self.now, value, _when=when)

    def process(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def run(self, until: Optional[float] = None,
            stop: Optional[Event] = None) -> None:
        """Run until the queue drains or simulated time reaches ``until``.

        If ``stop`` is given, the loop also exits as soon as that event has
        triggered (checked after every callback); in that case ``now`` stays
        at the current event time instead of jumping to ``until``.
        """
        if until is not None and not until >= self.now:
            raise SimulationError(
                f"run(until={until}) is in the past or NaN (now={self.now})"
            )
        queue = self._queue
        pop = heapq.heappop
        while queue:
            item = queue[0]
            when = item[0]
            entries = item[3]
            if type(entries) is not list:
                # lone entry: the classic tuple fast path (a stale memo
                # is harmless — a later same-key push opens a slab that
                # sorts by seq exactly where the entry would have gone)
                if until is not None and when > until:
                    break
                pop(queue)
                func = entries
                arg = item[4]
            else:
                idx = entries[0]
                n = len(entries)
                if idx >= n:
                    # emptied behind run's back (step(), _compact());
                    # consumption retires slabs eagerly below
                    pop(queue)
                    if self._last is entries:
                        self._last = None
                    continue
                if until is not None and when > until:
                    break
                if idx + 2 >= n:
                    # last entry: retire the slab before dispatching, so
                    # a same-key schedule from the callback opens a fresh
                    # one (= runs after everything already queued)
                    func = entries[idx]
                    arg = entries[idx + 1]
                    pop(queue)
                    if self._last is entries:
                        self._last = None
                else:
                    entries[0] = idx + 2
                    func = entries[idx]
                    arg = entries[idx + 1]
                    entries[idx] = entries[idx + 1] = None
            if func is None:
                if arg._cancelled:
                    self._cancelled_count -= 1
                    continue
                self.now = when
                arg._triggered = True
                callbacks, arg.callbacks = arg.callbacks, None
                if callbacks:
                    for callback in callbacks:
                        callback(arg)
            else:
                self.now = when
                func(arg)
            if stop is not None and stop._triggered:
                return
        if until is not None:
            self.now = until

    def step(self) -> None:
        """Process a single scheduled callback (mostly for tests)."""
        queue = self._queue
        while queue:
            item = queue[0]
            entries = item[3]
            if type(entries) is not list:
                heapq.heappop(queue)
                func = entries
                arg = item[4]
            else:
                idx = entries[0]
                if idx >= len(entries):
                    heapq.heappop(queue)
                    if self._last is entries:
                        self._last = None
                    continue
                entries[0] = idx + 2
                func = entries[idx]
                arg = entries[idx + 1]
                entries[idx] = entries[idx + 1] = None
            if func is None and arg._cancelled:
                self._cancelled_count -= 1
                continue
            self.now = item[0]
            if func is None:
                self._dispatch(arg)
            else:
                func(arg)
            return
        raise SimulationError("empty schedule")

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) scheduled entries.

        O(heap items) per access — it walks the slabs.  This is a
        diagnostic for tests and debugging; maintaining a per-event
        counter instead costs ~15% on the dispatch hot path (measured),
        so do not poll this property inside simulation loops.
        """
        total = 0
        for item in self._queue:
            entries = item[3]
            if type(entries) is list:
                total += (len(entries) - entries[0]) // 2
            else:
                total += 1
        return total - self._cancelled_count
