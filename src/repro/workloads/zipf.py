"""Zipfian key-choice generator (YCSB-compatible).

P(rank i) is proportional to 1/i^theta; theta=0 is uniform and theta=1 is
the classic Zipf used by the paper's Smallbank and skew experiments
(Table 3: theta in {0, 0.2, ..., 1.0}).

Sampling is O(1) per draw via Walker/Vose **alias tables** (exact for
every theta, including 1.0 where the textbook YCSB closed form breaks
down) and consumes exactly one uniform variate per draw: the integer part
of ``u * n`` selects the column and the fractional part decides between
the column's two aliased ranks.  Tables are precomputed once per
``(n, theta)`` and shared across every generator instance — hundreds of
closed-loop clients sampling the same keyspace pay the O(n) setup once.

Rank-to-key scrambling is a true **permutation** of [0, n): a fixed-key
Feistel network over the smallest covering power-of-four domain with
cycle-walking, so every key appears exactly once (the previous
multiply-mod fold admitted collisions for non-coprime n).  Each generator
keeps the ``rank -> item`` answers it has worked out, so a skewed stream
runs the Feistel rounds once per distinct rank it draws, not once per
draw; the cache never holds more than ``n`` entries.
"""

from __future__ import annotations

import random
from typing import Optional

__all__ = ["ZipfGenerator"]

# (n, theta) -> (prob, alias, pmf) Vose alias tables shared across clients.
_ALIAS_CACHE: dict[tuple[int, float], tuple[list[float], list[int],
                                            list[float]]] = {}

_FEISTEL_KEYS = (0x9E3779B1, 0x85EBCA77, 0xC2B2AE3D)
_FEISTEL_MULT = 0x2545F491  # odd 32-bit mixing multiplier


def _alias_tables(n: int, theta: float) -> tuple[list[float], list[int],
                                                 list[float]]:
    """Vose alias tables plus the exact pmf for Zipf(n, theta)."""
    key = (n, theta)
    cached = _ALIAS_CACHE.get(key)
    if cached is not None:
        return cached
    weights = [1.0 / (i ** theta) for i in range(1, n + 1)]
    total = sum(weights)
    pmf = [w / total for w in weights]
    # Vose's stable O(n) construction.
    scaled = [p * n for p in pmf]
    prob = [0.0] * n
    alias = list(range(n))
    small = [i for i in range(n) if scaled[i] < 1.0]
    large = [i for i in range(n) if scaled[i] >= 1.0]
    while small and large:
        s = small.pop()
        l = large.pop()
        prob[s] = scaled[s]
        alias[s] = l
        scaled[l] = (scaled[l] + scaled[s]) - 1.0
        if scaled[l] < 1.0:
            small.append(l)
        else:
            large.append(l)
    for i in large:
        prob[i] = 1.0
    for i in small:  # numerical leftovers: probability ~1.0
        prob[i] = 1.0
    tables = (prob, alias, pmf)
    _ALIAS_CACHE[key] = tables
    return tables


class ZipfGenerator:
    """Draws ranks in [0, n) with Zipf(theta) popularity in O(1) per draw.

    Rank r is mapped to an item by a fixed pseudo-random permutation
    (YCSB's scrambled-zipfian behaviour) so the hottest keys are spread
    over the keyspace instead of clustering at 0.
    """

    def __init__(self, n: int, theta: float = 0.0,
                 rng: Optional[random.Random] = None,
                 scrambled: bool = True):
        if n < 1:
            raise ValueError("n must be >= 1")
        if theta < 0:
            raise ValueError("theta must be >= 0")
        self.n = n
        self.theta = theta
        self.rng = rng if rng is not None else random.Random(0)
        self.scrambled = scrambled
        if theta == 0.0:
            self._prob = self._alias = self._pmf = None
        else:
            self._prob, self._alias, self._pmf = _alias_tables(n, theta)
        # Feistel geometry: the smallest 2*h-bit domain covering [0, n).
        half_bits = max(1, ((n - 1).bit_length() + 1) // 2) if n > 1 else 1
        self._half_bits = half_bits
        self._half_mask = (1 << half_bits) - 1
        self._items: dict[int, int] = {}   # rank -> _scramble(rank)

    def _scramble(self, rank: int) -> int:
        if not self.scrambled or self.n == 1:
            return rank
        # 3-round Feistel over [0, 4^half_bits) with cycle-walking down to
        # [0, n): a true bijection for every n, unlike a multiply-mod fold.
        half = self._half_bits
        mask = self._half_mask
        n = self.n
        value = rank
        while True:
            left = value >> half
            right = value & mask
            for key in _FEISTEL_KEYS:
                mixed = ((right ^ key) * _FEISTEL_MULT) & 0xFFFFFFFF
                mixed ^= mixed >> 15
                left, right = right, left ^ (mixed & mask)
            value = (left << half) | right
            if value < n:
                return value

    def next_rank(self) -> int:
        """Popularity rank (0 = hottest) — one uniform draw, O(1) work."""
        if self._prob is None:
            return self.rng.randrange(self.n)
        scaled = self.rng.random() * self.n
        column = int(scaled)
        if column >= self.n:  # guard against u == 1.0-epsilon rounding up
            column = self.n - 1
        if (scaled - column) < self._prob[column]:
            return column
        return self._alias[column]

    def next(self) -> int:
        """An item index in [0, n)."""
        rank = self.next_rank()
        item = self._items.get(rank)
        if item is None:
            item = self._items[rank] = self._scramble(rank)
        return item

    def probability(self, rank: int) -> float:
        """P(draw = rank) (0-based rank)."""
        if self._pmf is None:
            return 1.0 / self.n
        return self._pmf[rank]
