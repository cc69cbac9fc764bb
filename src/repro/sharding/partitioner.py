"""Data partitioning schemes (Section 3.4.1, database side).

Databases form shards to optimize workload performance: hash partitioning
spreads load uniformly, and splitting a hot hash range moves load off an
overloaded shard under skew.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Optional, Sequence

__all__ = ["HashPartitioner", "HotSplitPartitioner"]


class HashPartitioner:
    """shard = hash(key) mod num_shards."""

    def __init__(self, num_shards: int):
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.num_shards = num_shards

    def shard_of(self, key: str) -> int:
        digest = hashlib.sha256(key.encode()).digest()
        return int.from_bytes(digest[:8], "big") % self.num_shards

    def shards_of(self, keys: Sequence[str]) -> set[int]:
        return {self.shard_of(k) for k in keys}


class HotSplitPartitioner:
    """Hash-ring partitioner with load-aware hot-range splitting.

    Keys map to positions on a ``[0, 2**64)`` ring (first 8 bytes of
    sha256, matching :class:`HashPartitioner`'s digest); the ring is cut
    into contiguous ranges, each owned by a shard.  Initially there are
    ``num_shards`` equal ranges, range *i* owned by shard *i*.  Every
    lookup increments a per-range stripe histogram (``STRIPES`` equal
    sub-intervals per range), and :meth:`maybe_split` — called at epoch
    boundaries, when the reconfig pause already has the pipeline drained
    — cuts the hottest range at the stripe boundary that best halves its
    observed load, reassigning the lighter half to the currently coldest
    shard.  Under Zipf skew this peels hot keys off the overloaded shard
    a split at a time instead of letting one worker serialize the run.

    Everything is deterministic given the lookup sequence: ties break by
    lowest range index / lowest shard id, the cut lands on a stripe
    boundary, and histograms reset after each split (stats are
    epoch-scoped), so a seeded run replays byte-identically — including
    under ``parallel=True``, where routing stays hub-side.
    """

    RING = 1 << 64
    STRIPES = 16

    def __init__(self, num_shards: int, split_factor: float = 2.0):
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.num_shards = num_shards
        #: A range only splits when its load is ``split_factor`` times the
        #: mean per-range load (unless forced) — splitting a balanced ring
        #: would just shrink lookahead-free ranges for nothing.
        self.split_factor = split_factor
        step = self.RING // num_shards
        self._starts = [i * step for i in range(num_shards)]
        self._owners = list(range(num_shards))
        self._hist = [[0] * self.STRIPES for _ in range(num_shards)]
        self.splits: list[dict] = []   # audit log, one entry per split

    # -- routing ----------------------------------------------------------

    def _position(self, key: str) -> int:
        digest = hashlib.sha256(key.encode()).digest()
        return int.from_bytes(digest[:8], "big")

    def shard_of(self, key: str) -> int:
        pos = self._position(key)
        r = bisect.bisect_right(self._starts, pos) - 1
        starts = self._starts
        end = starts[r + 1] if r + 1 < len(starts) else self.RING
        width = end - starts[r]
        stripe = min((pos - starts[r]) * self.STRIPES // width,
                     self.STRIPES - 1)
        self._hist[r][stripe] += 1
        return self._owners[r]

    def shards_of(self, keys: Sequence[str]) -> set[int]:
        return {self.shard_of(k) for k in keys}

    # -- load accounting --------------------------------------------------

    def shard_loads(self) -> list[int]:
        """Accesses per shard since the last split (epoch-scoped)."""
        loads = [0] * self.num_shards
        for r, hist in enumerate(self._hist):
            loads[self._owners[r]] += sum(hist)
        return loads

    def max_share(self) -> float:
        """Hottest shard's fraction of all accesses this epoch."""
        loads = self.shard_loads()
        total = sum(loads)
        return max(loads) / total if total else 0.0

    # -- elastic resharding -----------------------------------------------

    def maybe_split(self, force: bool = False) -> Optional[dict]:
        """Split the hottest range if it carries outsized load.

        Intended to run at a reconfig epoch boundary (in-flight work
        drained by the pause), so re-homing half a range never strands a
        mid-flight transaction.  Returns the audit entry on a split,
        ``None`` when balanced (or ``force=False`` and below threshold).
        """
        totals = [sum(hist) for hist in self._hist]
        grand = sum(totals)
        if grand == 0:
            return None
        hot = max(range(len(totals)), key=lambda r: (totals[r], -r))
        if not force and totals[hot] < self.split_factor * (grand /
                                                           len(totals)):
            return None
        starts = self._starts
        end = starts[hot + 1] if hot + 1 < len(starts) else self.RING
        width = end - starts[hot]
        if width < self.STRIPES:
            return None   # range too narrow to cut on a stripe boundary
        hist = self._hist[hot]
        # Cut after stripe k-1 minimizing |left load - right load|.
        best_k, best_diff = 1, None
        left = 0
        for k in range(1, self.STRIPES):
            left += hist[k - 1]
            diff = abs(2 * left - totals[hot])
            if best_diff is None or diff < best_diff:
                best_k, best_diff = k, diff
        cut = starts[hot] + width * best_k // self.STRIPES
        left_load = sum(hist[:best_k])
        right_load = totals[hot] - left_load
        # The lighter half migrates to the coldest shard; the heavier
        # half keeps its data in place.
        loads = self.shard_loads()
        cold = min(range(self.num_shards), key=lambda s: (loads[s], s))
        max_share_before = max(loads) / grand
        if left_load <= right_load:
            moved, kept = "left", self._owners[hot]
            self._starts.insert(hot + 1, cut)
            self._owners.insert(hot + 1, kept)
            self._owners[hot] = cold
        else:
            moved, kept = "right", self._owners[hot]
            self._starts.insert(hot + 1, cut)
            self._owners.insert(hot + 1, cold)
        entry = {
            "range": hot, "cut": cut, "stripe": best_k,
            "from_shard": kept, "to_shard": cold, "moved_half": moved,
            "left_load": left_load, "right_load": right_load,
            "max_share_before": max_share_before,
        }
        self.splits.append(entry)
        # Epoch-scoped stats: start the next epoch's histograms clean so
        # one hot burst doesn't dominate every later split decision.
        self._hist = [[0] * self.STRIPES for _ in range(len(self._starts))]
        return entry
