"""Hierarchical timing wheel: array-backed deferred callbacks at scale.

The open-loop driver holds two kinds of far-future work the kernel heap
is the wrong home for: tens of thousands of pre-computed arrival
instants, and one pending timeout per in-flight request (most of which
are cancelled when the request completes first).  Parking them all as
:class:`~repro.sim.kernel.Timeout` objects would grow the scheduler heap
to the full horizon and pay a heap push *and* a lazy-cancel sweep per
request; the wheel instead files entries into per-tick array slots
(hashed hierarchical wheel, Varghese & Lauck) and feeds only the
current tick's entries to the kernel.

Contract:

* :meth:`TimingWheel.schedule` files ``func(arg)`` for an exact absolute
  simulated time.  Entries are *not* rounded to tick boundaries: when a
  slot's tick arrives, its live entries are re-scheduled onto the kernel
  at their stored instants (``Environment._schedule_call_at``), so a
  callback fires at the precise float it was filed for, in
  ``(when, file-order)`` order — deterministic for a fixed call
  sequence;
* :meth:`TimingWheel.cancel` is O(1): the slot entry is tombstoned in
  place, no heap traffic (compare ``Timeout.cancel``'s lazy slab drop);
* the wheel arms exactly one kernel timer (the metronome) while any live
  entry is pending and none when idle, so an idle wheel costs nothing;
* hierarchy: level ``k`` slots span ``tick * slots**k`` seconds; a
  wrapping level cascades into the one below, and entries past the top
  level wait in a far list re-filed each top-level turn.  Capacity is
  therefore unbounded with O(1) insert for any horizon.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .kernel import Environment, SimulationError

__all__ = ["TimingWheel", "WheelEntry"]

# Entry layout indices (plain lists: one small allocation per entry, no
# __dict__, mutable so cancel can tombstone in place).
_WHEN, _SEQ, _FUNC, _ARG, _LIVE = range(5)

#: A scheduled wheel entry; treat as opaque outside this module (pass it
#: back to :meth:`TimingWheel.cancel`).
WheelEntry = list


class TimingWheel:
    """A hierarchical timing wheel over a simulation environment."""

    __slots__ = ("env", "tick", "slots", "levels", "_wheels", "_far",
                 "_origin", "_cur", "_seq", "_pending", "_timer",
                 "_armed_at", "_spans", "_far_span")

    def __init__(self, env: Environment, tick: float = 0.01,
                 slots: int = 256, levels: int = 3):
        if tick <= 0:
            raise ValueError(f"tick must be positive: {tick!r}")
        if slots < 2 or levels < 1:
            raise ValueError(f"need slots >= 2, levels >= 1 "
                             f"(got {slots}, {levels})")
        self.env = env
        self.tick = tick
        self.slots = slots
        self.levels = levels
        # _wheels[k][i] is the list of entries filed in slot i of level k.
        self._wheels: list[list[list]] = [
            [[] for _ in range(slots)] for _ in range(levels)]
        self._far: list[list] = []
        self._origin = env.now
        self._cur = 0              # all ticks <= _cur have been drained
        self._seq = 0
        self._pending = 0
        self._timer = None         # armed metronome Timeout, if any
        self._armed_at = 0         # tick the metronome is armed for
        # slot span of each level, in level-0 ticks
        self._spans = [slots ** k for k in range(levels)]
        self._far_span = slots ** levels

    # -- bookkeeping ------------------------------------------------------

    @property
    def pending(self) -> int:
        """Number of live (uncancelled, undrained) entries."""
        return self._pending

    def _ticks(self, when: float) -> int:
        """Tick index whose boundary is <= ``when`` < next boundary.

        The raw float division can land one ulp off in either direction
        (e.g. ``0.35 / 0.01`` rounding up to exactly 35.0 while
        ``35 * 0.01`` rounds to a float *above* 0.35); draining an entry
        at a boundary later than its stored instant would then schedule
        it in the kernel's past.  Nudge against the reconstructed
        boundaries so the invariant holds exactly.
        """
        t = int((when - self._origin) / self.tick)
        if self._origin + (t + 1) * self.tick <= when:
            t += 1
        elif self._origin + t * self.tick > when:
            t -= 1
        return t

    def _boundary(self, tick_index: int) -> float:
        return self._origin + tick_index * self.tick

    # -- public API -------------------------------------------------------

    def schedule(self, when: float, func: Callable[[Any], None],
                 arg: Any = None) -> Optional[WheelEntry]:
        """File ``func(arg)`` for the absolute simulated time ``when``.

        Returns an opaque entry accepted by :meth:`cancel`, or ``None``
        when the instant is due within the current tick — those bypass
        the wheel straight onto the kernel and cannot be cancelled.
        """
        env = self.env
        if when < env.now:
            raise SimulationError(
                f"wheel.schedule({when!r}) is in the past "
                f"(now={env.now!r})")
        timer = self._timer
        armed = timer is not None and not (timer._triggered
                                           or timer._cancelled)
        if not armed:
            # Idle wheel: no metronome has been maintaining _cur, so
            # fast-forward past the ticks that elapsed while idle (all
            # slots are tombstones-only when nothing is pending).
            self._cur = max(self._cur, self._ticks(env.now))
        at = self._ticks(when)
        if at <= self._cur:
            # Due inside the tick being drained (or exactly now): the
            # slot's batch has already been taken, so hand the callback
            # to the kernel directly.
            env._schedule_call_at(func, arg, when)
            return None
        self._seq += 1
        entry: list = [when, self._seq, func, arg, True]
        self._file(entry, at)
        self._pending += 1
        if not armed:
            self._arm()
        elif at < self._armed_at:
            # The new entry is due before the armed boundary: re-aim.
            self._timer.cancel()
            self._arm()
        return entry

    def schedule_in(self, delay: float, func: Callable[[Any], None],
                    arg: Any = None) -> Optional[WheelEntry]:
        """File ``func(arg)`` for ``delay`` seconds from now."""
        return self.schedule(self.env.now + delay, func, arg)

    def cancel(self, entry: Optional[WheelEntry]) -> bool:
        """Withdraw a filed entry in O(1); False if fired or already dead."""
        if entry is None or not entry[_LIVE]:
            return False
        entry[_LIVE] = False
        entry[_FUNC] = entry[_ARG] = None   # free references eagerly
        self._pending -= 1
        return True

    # -- internals --------------------------------------------------------

    def _file(self, entry: list, at: int) -> None:
        """Place an entry (due at level-0 tick ``at``) into its slot."""
        delta = at - self._cur
        spans = self._spans
        slots = self.slots
        for k in range(self.levels):
            if delta < spans[k] * slots:
                self._wheels[k][(at // spans[k]) % slots].append(entry)
                return
        self._far.append(entry)

    def _arm(self) -> None:
        """Point the metronome at the next tick that has work."""
        if self._pending == 0:
            self._timer = None
            return
        nxt = self._next_work_tick()
        # A Timeout, not env.after(): re-aiming cancels it.
        timer = self.env.timeout_at(self._boundary(nxt), value=nxt)
        timer.callbacks.append(self._on_tick)
        self._timer = timer
        self._armed_at = nxt

    def _next_work_tick(self) -> int:
        """Earliest tick > _cur at which a drain or cascade is due.

        Scans level 0 for an occupied slot within the current
        revolution; failing that, the revolution boundary (where the
        cascade that reveals higher-level work happens).  At most
        ``slots`` probes per arm, amortised over the slot's worth of
        entries the hop leads to.
        """
        cur = self._cur
        slots = self.slots
        level0 = self._wheels[0]
        horizon = ((cur // slots) + 1) * slots    # next level-1 boundary
        for t in range(cur + 1, horizon):
            if level0[t % slots]:
                return t
        return horizon

    def _on_tick(self, timer) -> None:
        """Metronome callback: advance to the fired tick and drain it."""
        self._advance(timer._value)
        self._arm()

    def _advance(self, target: int) -> None:
        """Move the wheel position to ``target``, cascading and draining.

        Ticks strictly between ``_cur`` and ``target`` are known empty
        (the metronome is always aimed at the next occupied tick or the
        next cascade boundary), so only boundary crossings do work.
        """
        slots = self.slots
        spans = self._spans
        wheels = self._wheels
        cur = self._cur
        while cur < target:
            cur += 1
            self._cur = cur        # _file (via _refile) keys deltas off it
            if self._far and cur % self._far_span == 0:
                refile, self._far = self._far, []
                self._refile(refile)
            # Cascade every level whose slot boundary this tick crosses,
            # top-down so an entry can fall through several levels in
            # one crossing.
            for k in range(self.levels - 1, 0, -1):
                span = spans[k]
                if cur % span == 0:
                    slot = wheels[k][(cur // span) % slots]
                    if slot:
                        taken, slot[:] = list(slot), []
                        self._refile(taken)
        self._drain(wheels[0][target % slots])

    def _refile(self, entries: list) -> None:
        cur = self._cur
        for entry in entries:
            if entry[_LIVE]:
                self._file(entry, max(cur, self._ticks(entry[_WHEN])))

    def _drain(self, slot: list) -> None:
        """Dispatch one level-0 slot's live entries at their exact times."""
        if not slot:
            return
        taken, slot[:] = list(slot), []
        live = [e for e in taken if e[_LIVE]]
        if not live:
            return
        live.sort(key=lambda e: (e[_WHEN], e[_SEQ]))
        env = self.env
        schedule_at = env._schedule_call_at
        for entry in live:
            entry[_LIVE] = False
            schedule_at(entry[_FUNC], entry[_ARG], entry[_WHEN])
        self._pending -= len(live)
