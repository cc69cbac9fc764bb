"""Conservative-lookahead parallel execution for sharded topologies.

Classic Chandy–Misra–Bryant conservative parallel DES, specialised to
the one topology this simulator has that is both expensive and cleanly
decomposable: a hub (clients + coordinator + consensus committees) that
talks to per-shard serial execute pipelines only through the network.
:attr:`repro.sim.network.Network.min_delay` guarantees a message sent at
``t`` is invisible to its receiver before ``t + min_delay``, so that
delay is the one-hop lookahead ``L``: a request enqueued at ``t``
delivers at exactly ``t + L``, and a completion finishing at ``f``
delivers at exactly ``f + L``.

Scaling to hundreds of shards (the Fig. 14 stretch setup) is a barrier
amortization problem, attacked on four axes:

**Staggered 2L barrier stride.**  The naive protocol barriers every
``L``.  The round-trip structure licenses a stride of ``2L``: at barrier
``B`` each worker runs to ``B + L`` (every arrival it will ever see in
that span was enqueued at or before ``B`` and is already in hand), and
the hub then runs ``(B, B + 2L]`` (every completion delivering in that
span finished at or before ``B + L`` and was reported at barrier ``B``).
``2L`` is the hard cap — the hub can mint new arrivals at any instant,
and their completions can deliver as soon as one round trip later — so
the stride adapts to the lookahead, not past it, and the per-window
*participant set* is where traffic density buys further amortization:

**Idle-worker elision.**  The hub tracks in-flight work per worker
process (arrivals sent minus completions received).  A worker with
nothing in flight and no new arrivals this window is a deterministic
no-op — its only pending events are the time-driven pause schedule — so
the barrier skips it entirely and catches its clock up with the next
frame it does receive.  Per-window IPC cost is O(active workers), not
O(shards); a quiescent warm-up or drain phase costs no syscalls at all.

**Packed binary frames.**  Arrivals and completions cross the pipe as
one fixed-layout ``struct`` frame per worker per window
(:data:`_ARRIVAL` / :data:`_COMPLETION` records behind a one-byte tag),
not per-message pickles: no per-tuple pickle opcodes, no object churn,
one ``send_bytes`` syscall per active worker per barrier.

**Persistent multiplexed worker pool.**  Worker processes are spawned
once per interpreter (module-level :func:`_ensure_pool`) and survive
across runs and across sweep points; each process hosts *many* shard
LPs in one worker Environment (256 shards multiplex onto ~CPU-count
processes), and a per-run ``reset`` frame rebuilds the LPs in place —
no fork/exec, import, or allocator warm-up inside a measured run.

Determinism does not depend on process scheduling, pool size, or the
shard→process assignment — workers are deterministic simulations of
their own, messages are exchanged only at barriers, arrivals are framed
in hub enqueue order, and same-instant injections are ordered by a
hub-side reconstruction of the single-heap dispatch order (execute-timer
creation order, recovered from each completion's ``cost_start`` /
``grant_time`` / ``busy_root`` lineage plus the injection rank of its
granting parent — see :meth:`ShardCoupler.begin_window`), so the merged
timeline is reproducible bit-for-bit.

The equivalence reference is the *single-heap lookahead mode* of the
same system (e.g. ``AhlSystem(shard_lookahead=True)``), which charges
the identical hub<->shard hops as plain timers in one heap; the
differential tests in ``tests/integration/test_parallel_kernel.py``
pin byte-identical :class:`~repro.workloads.driver.RunResult`\\ s at 4,
16, 64, and 256 shards.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import os
import pickle
import struct
import time
import traceback
from typing import Optional

from .kernel import Environment, Event, subscribe
from .resources import Resource

__all__ = ["ShardCoupler", "shutdown_pool"]

# Wire formats ("=": native order, standard sizes, no padding).
_WIN_HDR = struct.Struct("=dI")       # (target_time, n_arrivals)
_ARRIVAL = struct.Struct("=Iqdd")     # (shard, idx, deliver_at, cost)
_CMP_HDR = struct.Struct("=I")        # (n_completions,)
_COMPLETION = struct.Struct("=qdddd")  # (idx, cost_start, grant,
                                       #  busy_root, finish)

#: Hard ceiling on waiting for one worker reply before declaring the
#: barrier wedged (worker *death* is detected within _POLL_S).
_RECV_TIMEOUT_S = 300.0
_POLL_S = 0.25


class _Resolver:
    """Callback shim: resolve a hub-side done event with its value.

    Resolution happens in the kernel's priority-2 rendezvous slot
    (:meth:`Environment._schedule_call_last`), mirroring
    ``_ShardExecLA._completed``: the injected timer's heap position at a
    tied instant depends on when the barrier created it, so the resolve
    itself is deferred to the slot both builds place identically.
    """

    __slots__ = ("done", "value")

    def __init__(self, done: Event, value):
        self.done = done
        self.value = value

    def __call__(self, _ev: Event) -> None:
        self.done.env._schedule_call_last(self._finish, None)

    def _finish(self, _arg) -> None:
        self.done._resolve(self.value)


# ---------------------------------------------------------------------------
# Persistent worker pool (module lifetime, shared across runs)
# ---------------------------------------------------------------------------


class _WorkerPool:
    """A set of long-lived shard-worker processes plus their pipes."""

    def __init__(self, size: int):
        if mp.current_process().daemon:
            raise RuntimeError(
                "ShardCoupler cannot start shard workers inside a daemonic "
                "pool worker (a `--jobs` sweep process): nested "
                "process pools are refused rather than spawn-bombing the "
                "box.  Run parallel=True points in the parent process "
                "(sweep specs marked no_fork do this automatically), or "
                "drop to --jobs 1.")
        ctx = mp.get_context("spawn")
        self.conns: list = []
        self.procs: list = []
        for i in range(size):
            parent, child = ctx.Pipe()
            proc = ctx.Process(target=_shard_worker_main, args=(child,),
                               name=f"shard-lp-{i}", daemon=True)
            proc.start()
            child.close()
            self.conns.append(parent)
            self.procs.append(proc)

    @property
    def size(self) -> int:
        return len(self.procs)

    def alive(self) -> bool:
        return all(p.is_alive() for p in self.procs)

    def stop(self) -> None:
        for conn in self.conns:
            try:
                conn.send_bytes(b"S")
            except (BrokenPipeError, OSError):
                pass
        for proc in self.procs:
            proc.join(timeout=5)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2)
            if proc.is_alive():  # pragma: no cover - terminate() sufficed
                proc.kill()
                proc.join(timeout=2)
        for conn in self.conns:
            conn.close()
        self.conns, self.procs = [], []


_POOL: Optional[_WorkerPool] = None


def _default_procs() -> int:
    """Worker-process count: ``REPRO_SHARD_PROCS`` or ``cpu_count - 1``."""
    env = os.environ.get("REPRO_SHARD_PROCS")
    if env:
        return max(1, int(env))
    return max(1, (os.cpu_count() or 1) - 1)


def _ensure_pool(size: int) -> _WorkerPool:
    """Return the module's worker pool, spawning or growing as needed.

    The pool persists across couplers (= across runs and sweep points):
    the fork/import/warm-up bill is paid once per interpreter, and a
    per-run ``reset`` frame rebuilds each worker's LPs in place.  A pool
    with a dead worker is replaced wholesale — its pipes may hold
    half-written frames.
    """
    global _POOL
    if _POOL is not None and not _POOL.alive():
        _POOL.stop()
        _POOL = None
    if _POOL is None:
        _POOL = _WorkerPool(size)
    elif _POOL.size < size:
        grown = _WorkerPool(size)    # spawn replacement first, then swap
        _POOL.stop()
        _POOL = grown
    return _POOL


def shutdown_pool() -> None:
    """Stop the persistent worker pool (idempotent; re-spawns on demand)."""
    global _POOL
    pool, _POOL = _POOL, None
    if pool is not None:
        pool.stop()


atexit.register(shutdown_pool)


# ---------------------------------------------------------------------------
# Hub side
# ---------------------------------------------------------------------------


class ShardCoupler:
    """Hub-side half of the conservative kernel.

    The owning system routes every shard-execute request through
    :meth:`exec_event` instead of running it on a hub-heap pipeline;
    the driver loop (``run_closed_loop_windowed``) calls
    :meth:`begin_window` / :meth:`end_window` around each ``env.run``
    window of :attr:`stride` seconds.  Worker processes come from the
    persistent module pool, attached lazily on the first barrier so a
    constructed-but-unused coupler costs nothing.

    ``window`` is the one-hop lookahead ``L`` (the exact request /
    completion hop charge); :attr:`stride` — the barrier period the
    driver advances by — is ``2L`` under the staggered protocol (see the
    module docstring).  ``procs`` caps the worker-process count (default:
    ``REPRO_SHARD_PROCS`` or ``cpu_count - 1``); shards multiplex onto
    processes round-robin, and neither the count nor the assignment
    affects simulated results.
    """

    def __init__(self, env: Environment, num_shards: int, window: float,
                 period: float, pause: float,
                 periodic_reconfig: bool = True,
                 procs: Optional[int] = None):
        if window <= 0:
            raise ValueError(f"lookahead window must be positive: {window!r}")
        self.env = env
        self.num_shards = num_shards
        self.window = window            # one-hop lookahead L
        self.stride = 2.0 * window      # staggered barrier period
        self.period = period
        self.pause = pause
        self.periodic_reconfig = periodic_reconfig
        self._n_procs = min(num_shards,
                            procs if procs is not None else _default_procs())
        self._next_idx = 0                 # global send index (FIFO/tiebreak)
        self._pending: dict[int, tuple] = {}  # idx -> (done, value, shard)
        # Serial-order reconstruction (see begin_window): every injected
        # completion gets a global rank in injection order; a shard's
        # latest rank is the "parent rank" of the leg its release granted.
        self._rank = 0
        self._last_rank: dict[int, int] = {}
        # Per-process frames: outbox entries are (shard, idx, deliver, cost)
        # in hub enqueue order; in_flight counts arrivals sent minus
        # completions received (the elision predicate).
        self._outbox: list[list] = [[] for _ in range(self._n_procs)]
        self._in_flight: list[int] = [0] * self._n_procs
        self._inbox: list[tuple] = []  # (deliver_at, lineage..., idx)
        self._pool: Optional[_WorkerPool] = None
        self._awaiting: list[int] = []  # procs owed a reply (crash cleanup)
        self.stats = {
            "procs": self._n_procs, "shards": num_shards,
            "barriers": 0, "exchanges": 0, "elided": 0,
            "arrivals": 0, "completions": 0,
            "bytes_sent": 0, "bytes_recv": 0,
            "barrier_wait_s": 0.0,
        }

    # -- request side (called by the system's shard_exec_event) -----------

    def exec_event(self, shard: int, cost: float, value=None,
                   scheduled: bool = False) -> Event:
        """Run one serial-pipeline slot of ``cost`` seconds on ``shard``.

        Returns a hub-side event that resolves with ``value`` at the
        exact instant the single-heap lookahead chain would have: one
        ``window`` request hop, the shard's grant/pause-gate/execute
        sequence, one ``window`` completion hop.
        """
        done = Event(self.env)
        if scheduled:
            # Same deferred-start position as _ShardExec(scheduled=True).
            self.env._schedule_call(self._enqueue_deferred,
                                    (shard, cost, done, value))
        else:
            self._enqueue(shard, cost, done, value)
        return done

    def _enqueue_deferred(self, args) -> None:
        self._enqueue(*args)

    def _enqueue(self, shard: int, cost: float, done: Event, value) -> None:
        idx = self._next_idx
        self._next_idx += 1
        self._pending[idx] = (done, value, shard)
        proc = shard % self._n_procs
        self._outbox[proc].append((shard, idx, self.env.now + self.window,
                                   cost))
        self._in_flight[proc] += 1

    # -- barrier protocol (called by the windowed driver loop) ------------

    def begin_window(self, boundary: float) -> None:
        """Inject completions due by ``boundary`` before running it.

        Each becomes a plain timer at its exact delivery instant, so it
        dispatches at the identical simulated time the single-heap
        completion hop fired.  *Order* among completions delivering at
        the same instant must also match the single heap, which
        dispatches their hop timers in creation (seq) order — i.e. in
        the order the shard execute timers were created.  That order is
        reconstructed hub-side with no global state shipped over the
        wire: every injected completion gets a global *rank* in
        injection order, and a completion whose grant came from a
        pipeline release (``busy_root < grant_time``) was created
        immediately after its *parent* — the previous completion of the
        same shard — dispatched, so same-instant cascade grants sort by
        their parents' ranks; fresh grants (``busy_root == grant_time``,
        pipeline was idle) were created in request-hop order, i.e. by
        send index; and cascade grants precede fresh grants at a tied
        creation instant because execute timers (cost ``>>`` one hop)
        always predate arrival hops in the heap.  Inductively the
        injection order *is* the single-heap dispatch order, so the
        ranks stay faithful barrier after barrier — deterministic across
        runs and independent of worker reply order, pool size, or the
        shard-to-process assignment.
        """
        inbox = self._inbox
        if not inbox:
            return
        due = [entry for entry in inbox if entry[0] <= boundary]
        if not due:
            return
        self._inbox = [entry for entry in inbox if entry[0] > boundary]
        env = self.env
        now = env.now
        pending = self._pending
        last_rank = self._last_rank
        due.sort(key=lambda entry: entry[0])
        i, n = 0, len(due)
        while i < n:
            deliver_at = due[i][0]
            j = i + 1
            while j < n and due[j][0] == deliver_at:
                j += 1
            group = due[i:j]
            if j - i > 1:
                # A shard's finishes strictly increase, so no shard (and
                # hence no parent/child pair) appears twice in a group:
                # all parent ranks are final before the group is sorted.
                group.sort(key=self._serial_key)
            # deliver_at >= the last boundary by the lookahead guarantee;
            # the guard covers the one-ulp float corner at equality.
            when = deliver_at if deliver_at > now else now
            for entry in group:
                done, value, shard = pending.pop(entry[-1])
                last_rank[shard] = self._rank
                self._rank += 1
                # timeout_at, not env.after(): the absolute instant
                # must not pick up a now + (when - now) rounding ulp.
                timer = env.timeout_at(when)
                timer.callbacks.append(_Resolver(done, value))
            i = j

    def _serial_key(self, entry: tuple):
        """Single-heap dispatch key for one same-instant completion."""
        _deliver, cost_start, grant, busy_root, idx = entry
        if busy_root == grant:          # fresh grant: pipeline was idle
            return (cost_start, grant, 1, idx)
        return (cost_start, grant, 0, self._last_rank.get(
            self._pending[idx][2], -1))

    def end_window(self, boundary: float) -> None:
        """Staggered barrier: flush frames to active workers, collect.

        Sends every *active* worker one packed frame — its new arrivals
        plus the run target ``boundary + window`` (the worker leads the
        hub by one hop; see the module docstring for why that makes the
        ``2L`` stride safe) — and blocks for each one's completion
        frame, which becomes injectable at the next :meth:`begin_window`.
        Workers with no arrivals and nothing in flight are skipped
        (their pending events are pure time-driven pause schedules: no
        inputs, no outputs) and catch up on their next active frame.
        """
        if self._pool is None:
            self._attach()
        target = boundary + self.window
        stats = self.stats
        stats["barriers"] += 1
        outbox = self._outbox
        in_flight = self._in_flight
        contact = [p for p in range(self._n_procs)
                   if outbox[p] or in_flight[p]]
        stats["elided"] += self._n_procs - len(contact)
        if not contact:
            return
        stats["exchanges"] += len(contact)
        conns = self._pool.conns
        awaiting = self._awaiting
        for p in contact:
            out = outbox[p]
            frame = b"".join((b"W", _WIN_HDR.pack(target, len(out)),
                              *(_ARRIVAL.pack(*entry) for entry in out)))
            try:
                conns[p].send_bytes(frame)
            except (BrokenPipeError, OSError) as exc:
                proc = self._pool.procs[p]
                raise RuntimeError(
                    f"shard worker {proc.name} (pid {proc.pid}) is gone "
                    f"(exitcode {proc.exitcode}): barrier send failed"
                ) from exc
            awaiting.append(p)
            stats["bytes_sent"] += len(frame)
            stats["arrivals"] += len(out)
            if out:
                outbox[p] = []
        wait_start = time.perf_counter()
        window = self.window
        inbox = self._inbox
        for p in contact:
            payload = self._recv(p)
            if payload[:1] != b"C":  # pragma: no cover - protocol trap
                raise RuntimeError(
                    f"shard worker {p} sent unexpected frame "
                    f"{payload[:1]!r}")
            awaiting.remove(p)
            stats["bytes_recv"] += len(payload)
            (n,) = _CMP_HDR.unpack_from(payload, 1)
            in_flight[p] -= n
            stats["completions"] += n
            off = 1 + _CMP_HDR.size
            for idx, cost_start, grant, busy_root, finish in \
                    _COMPLETION.iter_unpack(memoryview(payload)[off:]):
                inbox.append((finish + window, cost_start, grant,
                              busy_root, idx))
        stats["barrier_wait_s"] += time.perf_counter() - wait_start

    # -- worker lifecycle -------------------------------------------------

    def _attach(self) -> None:
        """Acquire the persistent pool and reset our worker processes.

        The reset frame is acknowledged: any frame still in a pipe from
        an abandoned earlier run is drained and discarded before the
        first window, so the per-run protocol always starts clean.
        """
        pool = _ensure_pool(self._n_procs)
        shards_of = [[s for s in range(self.num_shards)
                      if s % self._n_procs == p]
                     for p in range(self._n_procs)]
        for p in range(self._n_procs):
            params = {"shards": shards_of[p], "period": self.period,
                      "pause": self.pause,
                      "periodic_reconfig": self.periodic_reconfig}
            pool.conns[p].send_bytes(b"R" + pickle.dumps(params))
        for p in range(self._n_procs):
            while True:
                payload = self._recv(p, pool=pool)
                if payload[:1] == b"A":
                    break
                # stale completion frame from an abandoned run: discard
        self._pool = pool

    def _recv(self, p: int, pool: Optional[_WorkerPool] = None) -> bytes:
        """Receive one frame from worker ``p``, surfacing crashes.

        Polls instead of blocking so a dead worker is detected within
        ``_POLL_S`` — the old protocol blocked forever on a crashed
        worker's pipe, deadlocking the barrier.  A worker that died
        raising ships its traceback as an ``X`` frame, which is raised
        here verbatim.
        """
        pool = pool if pool is not None else self._pool
        conn, proc = pool.conns[p], pool.procs[p]
        deadline = time.monotonic() + _RECV_TIMEOUT_S
        while not conn.poll(_POLL_S):
            if not proc.is_alive():
                # One last poll: death may have raced a final X frame.
                if conn.poll(0):
                    break
                raise RuntimeError(
                    f"shard worker {proc.name} (pid {proc.pid}) died with "
                    f"exitcode {proc.exitcode} mid-barrier")
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"shard worker {proc.name} (pid {proc.pid}) sent no "
                    f"reply within {_RECV_TIMEOUT_S:.0f}s")
        try:
            payload = conn.recv_bytes()
        except EOFError:
            raise RuntimeError(
                f"shard worker {proc.name} (pid {proc.pid}) closed its "
                f"pipe mid-barrier (exitcode {proc.exitcode})") from None
        if payload[:1] == b"X":
            raise RuntimeError(
                f"shard worker {proc.name} (pid {proc.pid}) crashed:\n"
                + payload[1:].decode(errors="replace"))
        return payload

    def shutdown(self) -> None:
        """Detach from the persistent pool (idempotent).

        Workers stay alive for the next run — stopping them is the
        module-level :func:`shutdown_pool`'s job (registered atexit).
        Replies still owed from an interrupted barrier are drained so
        the next coupler's reset starts from a clean pipe.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        awaiting, self._awaiting = self._awaiting, []
        for p in awaiting:
            try:
                self._recv(p, pool=pool)
            except RuntimeError:
                pass  # already surfaced, or the pool will be replaced


# ---------------------------------------------------------------------------
# Worker side: one OS process hosting many shard logical processes
# ---------------------------------------------------------------------------


class _ShardLP:
    """A shard's logical process: serial pipeline + pause schedule.

    Pure *timing* replica of the shard-local portion of the hub's
    single-heap chain (grant -> pause gate -> execute cost -> release);
    all state mutation (VersionedStore applies, commit bookkeeping)
    stays hub-side, keyed off the completion instants reported here.
    Many LPs share one worker Environment; they never share state, so
    same-instant dispatch order across LPs cannot affect any completion
    time (the hub re-sorts same-instant injections by causal lineage
    anyway).
    """

    __slots__ = ("env", "pipeline", "completions", "busy_root", "_paused",
                 "_resume_signal")

    def __init__(self, env: Environment, period: float, pause: float,
                 periodic_reconfig: bool, completions: list):
        self.env = env
        self.pipeline = Resource(env, 1)
        self.completions = completions   # shared per-process frame buffer
        self.busy_root = 0.0   # when the current continuous-busy run began
        self._paused = False
        self._resume_signal: Optional[Event] = None
        if periodic_reconfig:
            # Structural replica of AhlSystem._reconfig_loop: the same
            # alternating timeout(period - pause) / timeout(pause) sums,
            # so float-accumulated epoch boundaries match the hub's
            # exactly.  (Analytic k*period arithmetic would not.)
            env.process(self._pause_loop(period, pause), name="shard-pause")

    def _pause_loop(self, period: float, pause: float):
        while True:
            yield self.env.timeout(period - pause)
            self._paused = True
            yield self.env.timeout(pause)
            self._paused = False
            signal, self._resume_signal = self._resume_signal, None
            if signal is not None and not signal.triggered:
                signal.succeed()

    def _resume_event(self) -> Event:
        if self._resume_signal is None:
            self._resume_signal = self.env.event()
        return self._resume_signal


class _WorkerExec:
    """One pipeline slot inside the worker — mirrors the hub's chain.

    Besides the finish time, each completion reports its *causal
    lineage*: ``cost_start`` (when the execute timer was created —
    single-heap ties between same-instant completions resolve by the
    seq order of those timers, i.e. by their creation instants),
    ``grant_time`` (when chains from several shards park at the pause
    gate, the single-heap resumes them in gate-subscription order =
    grant order), and ``busy_root`` (which classifies the grant: equal
    to ``grant_time`` for a fresh grant into an idle pipeline, strictly
    earlier when a release cascade granted it — in which case the
    single-heap order is inherited from the *parent* completion whose
    release did the granting, which the hub identifies by injection
    rank).  :meth:`ShardCoupler.begin_window` turns this chain back
    into the exact single-heap dispatch order.
    """

    __slots__ = ("lp", "idx", "cost", "grant_time", "busy_root",
                 "cost_start", "_req")

    def __init__(self, lp: _ShardLP, idx: int, cost: float,
                 deliver_at: float):
        self.lp = lp
        self.idx = idx
        self.cost = cost
        self.grant_time = 0.0
        self.busy_root = 0.0
        self.cost_start = 0.0
        self._req = None
        env = lp.env
        # timeout_at, not env.after(): deliver_at is an absolute instant.
        timer = env.timeout_at(deliver_at if deliver_at > env.now
                               else env.now)
        timer.callbacks.append(self._arrived)

    def _arrived(self, _ev: Event) -> None:
        lp = self.lp
        if lp.pipeline.in_use == 0:
            lp.busy_root = lp.env.now   # fresh cascade: pipeline was idle
        req = self._req = lp.pipeline.request()
        subscribe(req, self._granted)

    def _granted(self, _ev: Event) -> None:
        lp = self.lp
        self.grant_time = lp.env.now
        self.busy_root = lp.busy_root
        if lp._paused:
            subscribe(lp._resume_event(), self._unpaused)
        else:
            self._unpaused(None)

    def _unpaused(self, _ev: Event) -> None:
        env = self.lp.env
        self.cost_start = env.now
        env.after(self.cost, self._served)

    def _served(self, _arg) -> None:
        lp = self.lp
        lp.pipeline.release(self._req)
        lp.completions.append((self.idx, self.cost_start, self.grant_time,
                               self.busy_root, lp.env.now))


def _shard_worker_main(conn) -> None:
    """Worker entry point (module-level: spawn pickles it by reference).

    One long-lived loop over tagged frames: ``R`` rebuilds the hosted
    shard LPs for a new run (acked with ``A``), ``W`` delivers a window
    of arrivals and a run target, ``S`` stops the process.  Any
    exception ships its traceback to the hub as an ``X`` frame before
    the process exits — a crashed worker is a loud error at the next
    barrier, not a hang.
    """
    try:
        env: Optional[Environment] = None
        lps: dict[int, _ShardLP] = {}
        completions: list[tuple] = []
        while True:
            msg = conn.recv_bytes()
            tag = msg[:1]
            if tag == b"S":
                break
            if tag == b"R":
                params = pickle.loads(msg[1:])
                env = Environment()
                completions = []
                lps = {shard: _ShardLP(env, params["period"],
                                       params["pause"],
                                       params["periodic_reconfig"],
                                       completions)
                       for shard in params["shards"]}
                conn.send_bytes(b"A")
            elif tag == b"W":
                target, _n = _WIN_HDR.unpack_from(msg, 1)
                off = 1 + _WIN_HDR.size
                for shard, idx, deliver_at, cost in \
                        _ARRIVAL.iter_unpack(memoryview(msg)[off:]):
                    _WorkerExec(lps[shard], idx, cost, deliver_at)
                env.run(until=target)
                conn.send_bytes(b"".join(
                    (b"C", _CMP_HDR.pack(len(completions)),
                     *(_COMPLETION.pack(*c) for c in completions))))
                completions.clear()
            else:  # pragma: no cover - protocol trap
                raise ValueError(f"unknown frame tag {tag!r}")
    except EOFError:
        pass  # hub died mid-run; nothing left to report to
    except Exception:
        try:
            conn.send_bytes(b"X" + traceback.format_exc().encode())
        except (BrokenPipeError, OSError):  # pragma: no cover
            pass
    finally:
        conn.close()
