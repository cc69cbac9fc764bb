"""Common consensus machinery: quorum math, replica bookkeeping.

The paper's Section 3.1.3 failure-model arithmetic lives here:

* CFT, synchronous network:   f + 1 replicas tolerate f failures
* CFT, asynchronous network:  2f + 1  (Raft, Paxos)
* BFT, synchronous network:   2f + 1
* BFT, asynchronous network:  3f + 1  (PBFT, IBFT, Tendermint)
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

from ..sim.kernel import Environment, WakeableQueue

__all__ = [
    "FailureModel",
    "NetworkModel",
    "replicas_required",
    "max_tolerated_failures",
    "quorum_size",
    "LogEntry",
    "wake_batches",
]


def wake_batches(
    env: Environment,
    queue: WakeableQueue,
    window: float,
    max_batch: int,
    heartbeat_interval: float,
    still_leader: Callable[[], bool],
    send_heartbeat: Callable[[], None],
    last_beat: float,
):
    """One wake-on-proposal batch window; drive with ``yield from``.

    The shared leader-loop state machine for Raft and PBFT/IBFT (the
    only differences between those loops are the liveness predicate and
    the heartbeat message, passed as callables).  Returns
    ``(batch, last_beat)`` where ``batch`` is ``None`` when leadership
    was lost mid-window (caller breaks) and ``[]`` after a pure
    heartbeat wake (caller continues).

    Equivalence contract with the old poll-at-``batch_window`` loop:

    * batches close on the identical accumulated window grid — ``close``
      advances by repeated ``+= window`` exactly as chained
      ``timeout(window)`` wakes did, and :meth:`Environment.timeout_at`
      pins the timer to that float;
    * while idle, the only scheduled wake is the first grid boundary
      where a heartbeat falls due; the skipped boundaries were pure
      no-op wakes in the polling loop;
    * a put that lands exactly *on* a grid boundary closes the batch at
      that boundary (``close == now``), matching the dominant heap-seq
      interleaving of the old loop, where the leader's deferred AnyOf
      resume ran after every same-time put already scheduled.  A put
      scheduled *during* the boundary's own callback cascade — after the
      old loop's resume event was queued — would have just missed the
      old batch; that sub-case requires float-exact grid collisions and
      is not reproduced;
    * a new put reaching ``max_batch`` kicks the window closed at the
      put's simulated time (threshold waiters fire only on puts, so a
      pre-existing backlog does not re-kick — same as the old
      ``_batch_kick``).
    """
    close = env.now + window
    if not queue:
        # Idle: park until the first proposal or the first window
        # boundary where a heartbeat falls due.
        boundary = close
        while boundary - last_beat < heartbeat_interval:
            boundary += window
        wake = queue.wait()
        timer = env.timeout_at(boundary)
        yield env.any_of([wake, timer])
        if not wake.triggered:
            queue.cancel_wait(wake)
        if not still_leader():
            timer.cancel()
            return None, last_beat
        if not queue:
            # Heartbeat boundary reached with nothing proposed.
            if env.now - last_beat >= heartbeat_interval:
                send_heartbeat()
                last_beat = env.now
            return [], last_beat
        timer.cancel()
        if len(queue) >= max_batch:
            close = env.now        # a same-time burst filled the batch
        else:
            while close < env.now:  # close at the boundary the polling
                close += window     # loop would wake on
    if close > env.now:
        kick = queue.wait(max_batch)
        timer = env.timeout_at(close)
        yield env.any_of([kick, timer])
        if not kick.triggered:
            queue.cancel_wait(kick)
        timer.cancel()
    if not still_leader():
        return None, last_beat
    return queue.take(max_batch), last_beat


class FailureModel(Enum):
    CRASH = "crash"
    BYZANTINE = "byzantine"


class NetworkModel(Enum):
    SYNCHRONOUS = "synchronous"
    ASYNCHRONOUS = "asynchronous"


def replicas_required(f: int, failure_model: FailureModel,
                      network: NetworkModel = NetworkModel.ASYNCHRONOUS) -> int:
    """Minimum replicas to tolerate ``f`` failures (paper Section 3.1.3)."""
    if f < 0:
        raise ValueError("f must be non-negative")
    if failure_model is FailureModel.CRASH:
        return f + 1 if network is NetworkModel.SYNCHRONOUS else 2 * f + 1
    return 2 * f + 1 if network is NetworkModel.SYNCHRONOUS else 3 * f + 1


def max_tolerated_failures(n: int, failure_model: FailureModel,
                           network: NetworkModel = NetworkModel.ASYNCHRONOUS) -> int:
    """Largest f such that n replicas tolerate f failures."""
    if n < 1:
        raise ValueError("n must be positive")
    if failure_model is FailureModel.CRASH:
        return n - 1 if network is NetworkModel.SYNCHRONOUS else (n - 1) // 2
    return (n - 1) // 2 if network is NetworkModel.SYNCHRONOUS else (n - 1) // 3


def quorum_size(n: int, failure_model: FailureModel) -> int:
    """Votes needed to commit: majority for CFT, 2f+1 for BFT (n = 3f+1)."""
    if n < 1:
        raise ValueError("n must be positive")
    if failure_model is FailureModel.CRASH:
        return n // 2 + 1
    f = (n - 1) // 3
    return 2 * f + 1


@dataclass
class LogEntry:
    """A replicated-log entry (term used by Raft; view by PBFT)."""

    term: int
    item: object
    size: int = 256
