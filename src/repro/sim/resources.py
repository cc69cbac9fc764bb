"""Shared resources for simulated processes.

``Resource`` models a capacity-limited server (a CPU core pool, a disk);
``Store`` models an unbounded FIFO queue between producers and consumers
(a mailbox, a replication stream).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional, Union

from .kernel import Environment, Event

__all__ = ["Resource", "Store"]


class _ServeRequest:
    """A queued flat-path serve: grant -> service timer -> release -> then.

    Sits in ``Resource._waiting`` beside plain ``request()`` events;
    the grant schedules :meth:`_granted` where a granted request event
    would have dispatched, and that starts the service timer.
    """

    __slots__ = ("resource", "service_time", "then")

    def __init__(self, resource: "Resource", service_time: float,
                 then: Callable[[Any], None]):
        self.resource = resource
        self.service_time = service_time
        self.then = then

    def _granted(self, _arg: Any) -> None:
        resource = self.resource
        resource.env.after(self.service_time, resource._finish_then,
                           self.then)


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
    ``yield resource.serve_event(service_time)`` — or, from a flat
    callback chain with one continuation,
    ``resource.serve_then(service_time, then)``.
    """

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.in_use = 0
        self._waiting: Deque[Union[Event, _ServeRequest]] = deque()
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

    def _grant(self, req: Union[Event, _ServeRequest]) -> None:
        self._take_slot()
        if type(req) is _ServeRequest:
            self.env.after(0.0, req._granted)
        else:
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

    def serve_then(self, service_time: float,
                   then: Callable[[Any], None]) -> None:
        """Acquire a slot, hold it for ``service_time``, release it, then
        call ``then(None)``.

        The one grant -> service -> release core.  Uncontended, it is one
        :meth:`Environment.after` timer; contended, a
        :class:`_ServeRequest` queues, its grant dispatches where a
        granted ``request()`` event would, and the grant starts the
        timer.  Either way the timer releases the slot (granting the
        next waiter) immediately before ``then`` runs.
        """
        self.total_requests += 1
        if self.in_use < self.capacity and not self._waiting:
            self._take_slot()
            self.env.after(service_time, self._finish_then, then)
            return
        self._waiting.append(_ServeRequest(self, service_time, then))

    def _finish_then(self, then: Callable[[Any], None]) -> None:
        self.release(None)
        then(None)

    def serve_event(self, service_time: float) -> Event:
        """:meth:`serve_then` with an event to ``yield``, race or join.

        The returned event resolves inline at the service end, right
        after the release, and the slot is held to that end even if the
        waiter stopped waiting (it lost a race).  A continuation with
        one waiter calls :meth:`serve_then` and builds no event.
        """
        done = Event(self.env)
        self.serve_then(service_time, done._resolve)
        return done

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
