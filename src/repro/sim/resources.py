"""Shared resources for simulated processes.

``Resource`` models a capacity-limited server (a CPU core pool, a disk);
``Store`` models an unbounded FIFO queue between producers and consumers
(a mailbox, a replication stream).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from .kernel import Environment, Event

__all__ = ["Resource", "Store"]


class _ServeRequest(Event):
    """A queued flat-path serve: grant -> service timer -> release -> done.

    The event itself is the slot request sitting in ``Resource._waiting``;
    when the grant dispatches it schedules the service timer, and the
    timer's completion releases the slot and resolves ``done`` *inline* —
    the caller continues inside the timer's callback, right after the
    release granted the next waiter.
    """

    __slots__ = ("resource", "service_time", "done")

    def __init__(self, resource: "Resource", service_time: float):
        super().__init__(resource.env)
        self.resource = resource
        self.service_time = service_time
        self.done = Event(resource.env)
        self.callbacks.append(self._granted)

    def _granted(self, _ev: Event) -> None:
        timer = self.env.timeout(self.service_time)
        timer.callbacks.append(self._served)

    def _served(self, _ev: Event) -> None:
        self.resource.release(self)
        self.done._resolve()


class Resource:
    """A FIFO resource with integer capacity.

    Usage from a process::

        req = resource.request()
        yield req
        try:
            yield env.timeout(service_time)
        finally:
            resource.release(req)

    or, when nothing happens between grant and release,
    ``yield resource.serve_event(service_time)``.
    """

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.in_use = 0
        self._waiting: Deque[Event] = deque()
        # instrumentation
        self.total_requests = 0
        self.busy_time = 0.0
        self._busy_since: Optional[float] = None

    def request(self) -> Event:
        """Return an event that fires once a slot is granted."""
        self.total_requests += 1
        req = self.env.event()
        if self.in_use < self.capacity:
            self._grant(req)
        else:
            self._waiting.append(req)
        return req

    def _take_slot(self) -> None:
        """Slot-acquisition bookkeeping shared by every grant path."""
        if self.in_use == 0:
            self._busy_since = self.env.now
        self.in_use += 1

    def _grant(self, req: Event) -> None:
        self._take_slot()
        req.succeed(req)

    def release(self, req: Optional[Event]) -> None:
        """Release a previously granted slot.

        Validates *before* mutating: an unmatched release raises without
        corrupting ``in_use`` or the busy-time bookkeeping, so the
        resource stays usable after the error.
        """
        if self.in_use <= 0:
            raise RuntimeError("release() without matching request()")
        self.in_use -= 1
        if self.in_use == 0 and self._busy_since is not None:
            self.busy_time += self.env.now - self._busy_since
            self._busy_since = None
        while self._waiting and self.in_use < self.capacity:
            nxt = self._waiting.popleft()
            self._grant(nxt)

    def serve_event(self, service_time: float) -> Event:
        """Acquire a slot, hold it for ``service_time``, release it.

        Returns a single :class:`Event` for the caller to ``yield`` or
        park a callback on — the flat-event calling convention.
        Uncontended, the grant, service timeout, and release fold into
        one scheduled timer whose completion callback releases the slot
        immediately before the waiter resumes; contended, a
        :class:`_ServeRequest` queues, its grant schedules the timer,
        and the timer resolves the caller inline.

        Contract: the slot is held until the scheduled service end
        regardless of what happens to the waiter.
        """
        self.total_requests += 1
        if self.in_use < self.capacity and not self._waiting:
            self._take_slot()
            done = self.env.timeout(service_time)
            done.callbacks.append(self._finish_serve)
            return done
        req = _ServeRequest(self, service_time)
        self._waiting.append(req)
        return req.done

    def _finish_serve(self, _ev: Event) -> None:
        self.release(None)

    @property
    def queue_length(self) -> int:
        return len(self._waiting)

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Fraction of time the resource was busy (any slot occupied)."""
        busy = self.busy_time
        if self._busy_since is not None:
            busy += self.env.now - self._busy_since
        span = elapsed if elapsed is not None else self.env.now
        return busy / span if span > 0 else 0.0


class Store:
    """An unbounded FIFO channel of items.

    ``put`` never blocks; ``get`` returns an event that fires with the next
    item (immediately if one is queued).
    """

    def __init__(self, env: Environment):
        self.env = env
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        ev = self.env.event()
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def get_all(self) -> list[Any]:
        """Drain and return all currently queued items without waiting."""
        items = list(self._items)
        self._items.clear()
        return items

    def clear(self) -> None:
        """Drop all queued items, keeping parked getters armed.

        Crash-restart support: a recovering node discards pre-crash
        in-flight messages, but perpetual receiver chains (e.g. a Raft
        replica's message pump) stay parked on their ``get()`` and must
        resume on the *next* post-restart item, so ``_getters`` is left
        untouched.
        """
        self._items.clear()

    def __len__(self) -> int:
        return len(self._items)
