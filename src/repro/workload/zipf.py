"""Seeded Zipf sampler for skewed key-access distributions.

Database replication workloads are typically skewed: a few hot objects
receive most updates.  The sampler uses the inverse-CDF method over a
finite domain, so it needs no scipy and is exactly reproducible from
the simulation RNG.
"""

from __future__ import annotations

import bisect
import random
from typing import List

__all__ = ["ZipfSampler"]


class ZipfSampler:
    """Draw indices in ``[0, n)`` with P(i) proportional to 1/(i+1)^s."""

    def __init__(self, n: int, s: float = 1.0) -> None:
        if n <= 0:
            raise ValueError("domain size must be positive")
        if s < 0:
            raise ValueError("skew must be non-negative")
        self.n = n
        self.s = s
        weights = [1.0 / (i + 1) ** s for i in range(n)]
        total = sum(weights)
        cumulative: List[float] = []
        acc = 0.0
        for w in weights:
            acc += w / total
            cumulative.append(acc)
        cumulative[-1] = 1.0  # guard against float drift
        self._cdf = cumulative

    def sample(self, rng: random.Random) -> int:
        """One draw using the given RNG."""
        return bisect.bisect_left(self._cdf, rng.random())

    def sample_many(self, rng: random.Random, count: int) -> List[int]:
        return [self.sample(rng) for _ in range(count)]

    def probability(self, index: int) -> float:
        """Exact probability mass of ``index``."""
        if not 0 <= index < self.n:
            raise IndexError(index)
        lower = self._cdf[index - 1] if index else 0.0
        return self._cdf[index] - lower
