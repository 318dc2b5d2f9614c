"""Client-side read cache whose TTL is an *epsilon budget*.

A classic read-through/cache-aside cache expires entries after a fixed
wall-clock TTL — a proxy for "how stale is too stale".  Under ESR the
staleness a read may tolerate is *declared*, in units the paper
defines: the number of concurrent conflicting updates a query imports.
So this cache expires entries in those units instead.

Accounting
----------

Every entry remembers, at fetch time:

* the serving replica's reported ``inconsistency`` (the import the
  server itself charged the query), and
* the serving replica's per-site applied frontier vector.

Every later response the client receives (from any replica) advances
the client's *known* frontier vector.  An entry's accumulated import
estimate is then::

    estimate = fetch_inconsistency
             + sum(max(0, known[s] - entry_frontiers[s]) for s in known)

i.e. the import charged at fetch time plus every update the client has
since *proved* exists (by seeing a frontier past the entry's).  The
entry may be served for a budget ``epsilon`` only while
``estimate <= epsilon``.  The estimate is exact over the evidence the
client holds — it never exceeds the true global import of updates the
client has observed, and it grows monotonically, so a served read
never claims a tighter bound than the client can actually prove.
(Updates *nobody has told this client about* are invisible to any
client-side scheme; the server-side budget still bounds every cache
miss, and docs/LIVE.md spells out the semantics.)

``Consistency.CACHED`` reads bypass the budget test and serve any
entry inside the wall-clock ``ttl`` — the explicit "I want cache
speed, charge me whatever it costs" level; the estimate is still
reported so callers can observe what they were given.

Own writes invalidate their keys (read-your-writes through the cache);
session reads additionally require the entry's frontier vector to
dominate the session token.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Mapping, Optional

from ..consistency import SessionToken
from ..core.transactions import UNLIMITED
from ..obs.registry import NULL_REGISTRY, Registry

__all__ = ["CachedRead", "EpsilonReadCache"]


class _Entry:
    __slots__ = ("value", "inconsistency", "frontiers", "fetched_at", "served_by")

    def __init__(
        self,
        value: Any,
        inconsistency: float,
        frontiers: Dict[str, int],
        fetched_at: float,
        served_by: Optional[str],
    ) -> None:
        self.value = value
        self.inconsistency = inconsistency
        self.frontiers = frontiers
        self.fetched_at = fetched_at
        self.served_by = served_by


class CachedRead:
    """One successful cache hit: the value plus its error accounting."""

    __slots__ = ("value", "estimate", "age", "served_by", "frontiers")

    def __init__(
        self,
        value: Any,
        estimate: float,
        age: float,
        served_by: Optional[str],
        frontiers: Dict[str, int],
    ) -> None:
        self.value = value
        #: accumulated inconsistency-import estimate, in update counts.
        self.estimate = estimate
        #: wall-clock seconds since the entry was fetched.
        self.age = age
        #: replica that originally served the entry.
        self.served_by = served_by
        #: the entry's applied-frontier vector at fetch time.
        self.frontiers = frontiers


class EpsilonReadCache:
    """LRU read cache keyed by object, expired by epsilon budget.

    ``max_entries`` bounds memory (LRU eviction); ``ttl`` is the
    wall-clock bound used by ``Consistency.CACHED`` reads (``None``
    disables the wall-clock test entirely — budget-only expiry).
    Pass a :class:`~repro.obs.registry.Registry` to export
    ``read_cache_hits_total`` / ``read_cache_misses_total`` /
    ``read_cache_evictions_total`` / ``read_cache_invalidations_total``.
    """

    def __init__(
        self,
        max_entries: int = 4096,
        ttl: Optional[float] = 5.0,
        registry: Optional[Registry] = None,
    ) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = int(max_entries)
        self.ttl = ttl
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        reg = registry if registry is not None else NULL_REGISTRY
        self.m_hits = reg.counter(
            "read_cache_hits_total",
            "reads served from the client cache inside their budget",
        )
        self.m_misses = reg.counter(
            "read_cache_misses_total",
            "cache lookups that fell through to a replica, by reason",
            labels=("reason",),
        )
        self.m_evictions = reg.counter(
            "read_cache_evictions_total",
            "entries evicted by LRU capacity pressure",
        )
        self.m_invalidations = reg.counter(
            "read_cache_invalidations_total",
            "entries dropped because the client wrote the key",
        )
        # Plain counters too, for callers without a registry.
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    def store(
        self,
        key: str,
        value: Any,
        inconsistency: float,
        frontiers: Optional[Mapping[str, int]],
        now: float,
        served_by: Optional[str] = None,
    ) -> None:
        """Remember one served read (read-through fill)."""
        self._entries.pop(key, None)
        self._entries[key] = _Entry(
            value,
            float(inconsistency or 0),
            {str(s): int(f) for s, f in (frontiers or {}).items()},
            now,
            served_by,
        )
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1
            self.m_evictions.inc()

    def lookup(
        self,
        key: str,
        budget: float,
        known_frontiers: Mapping[str, int],
        now: float,
        token: Optional[SessionToken] = None,
        ttl_only: bool = False,
    ) -> Optional[CachedRead]:
        """Serve ``key`` if the entry's import estimate fits ``budget``.

        ``ttl_only`` implements ``Consistency.CACHED``: the wall-clock
        TTL is the only freshness test.  ``token`` (session reads)
        additionally requires the entry to dominate the token.  A miss
        returns ``None``; the caller fetches and :meth:`store`\\ s.
        """
        entry = self._entries.get(key)
        if entry is None:
            return self._miss("absent")
        age = now - entry.fetched_at
        if self.ttl is not None and age > self.ttl:
            del self._entries[key]
            return self._miss("expired")
        estimate = entry.inconsistency
        for site, known in known_frontiers.items():
            behind = int(known) - entry.frontiers.get(site, 0)
            if behind > 0:
                estimate += behind
        if not ttl_only and budget != UNLIMITED and estimate > budget:
            return self._miss("over_budget")
        if token is not None and not token.dominated_by(entry.frontiers):
            return self._miss("session")
        self._entries.move_to_end(key)
        self.hits += 1
        self.m_hits.inc()
        return CachedRead(
            entry.value, estimate, age, entry.served_by, dict(entry.frontiers)
        )

    def _miss(self, reason: str) -> None:
        self.misses += 1
        self.m_misses.labels(reason=reason).inc()
        return None

    def invalidate(self, keys) -> int:
        """Drop entries the client just wrote (read-your-writes)."""
        dropped = 0
        for key in keys:
            if self._entries.pop(key, None) is not None:
                dropped += 1
        if dropped:
            self.invalidations += dropped
            self.m_invalidations.inc(dropped)
        return dropped

    def clear(self) -> None:
        self._entries.clear()

    def stats(self) -> Dict[str, int]:
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }
