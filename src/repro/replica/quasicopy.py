"""Quasi-copies (Alonso, Barbará & Garcia-Molina) — related-work baseline.

Paper section 5.2: "Quasi-copies offers a theoretical foundation for
increased read-only availability, but require that all updates be 1SR.
As a result, the primary copy is always consistent in the 1SR sense.
Inconsistency is only introduced because quasi-copies may lag the
primary copy. ... Quasi-copies uses a 'closeness' specification in the
trigger mechanism which propagates updates to quasi-copies."

This implementation provides the contrast the paper draws with ESR:

* all updates execute at a single primary (strictly serialized there),
* secondary sites hold *quasi-copies* refreshed by a trigger condition
  — the **coherency condition** of the original work:

  - ``version_lag``: refresh a key's quasi-copy when the primary is
    more than *w* versions ahead (arithmetic condition),
  - ``max_age``: refresh when the cached value is older than *t* time
    units (delay condition),

* queries read their local quasi-copy without coordination; their
  reported "inconsistency" is the number of keys read whose quasi-copy
  lagged the primary at read time (measured with simulation
  omniscience; a real system knows only the bound, which is exactly
  the paper's point: quasi-copies bound *staleness conditions*, ESR
  bounds and *meters* the error).

The benchmark compares this against COMMU's epsilon-bounded queries:
quasi-copies pay a per-update primary round trip and trigger-driven
refresh traffic; ESR pays nothing at the primary but admits bounded
query error everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Set, Tuple

from ..core.operations import ReadOp
from ..core.transactions import (
    EpsilonTransaction,
    ETResult,
    ETStatus,
    TransactionID,
)
from ..sim.site import Site
from .base import (
    DoneCallback,
    MethodTraits,
    ReplicaControlMethod,
    ReplicatedSystem,
)
from .mset import MSet

__all__ = ["QuasiCopies", "ClosenessSpec"]


@dataclass(frozen=True)
class ClosenessSpec:
    """The coherency ("closeness") condition of a quasi-copy.

    Attributes:
        version_lag: refresh once the primary is more than this many
            versions ahead of the cached copy (``None`` disables).
        max_age: refresh once the cached value is older than this many
            simulated time units (``None`` disables).
    """

    version_lag: Optional[int] = 2
    max_age: Optional[float] = None

    def __post_init__(self) -> None:
        if self.version_lag is not None and self.version_lag < 0:
            raise ValueError("version_lag must be non-negative")
        if self.max_age is not None and self.max_age <= 0:
            raise ValueError("max_age must be positive")


@dataclass
class _CacheEntry:
    """One key's quasi-copy state at a secondary."""

    version: int = 0
    refreshed_at: float = 0.0


class QuasiCopies(ReplicaControlMethod):
    """Primary-copy updates with trigger-refreshed quasi-copies."""

    traits = MethodTraits(
        name="QUASI",
        restriction="closeness condition",
        direction="synchronous",  # updates are 1SR at the primary
        async_update_propagation=False,
        async_query_processing=True,
        sorting_time="at update",
    )

    def __init__(self, closeness: Optional[ClosenessSpec] = None) -> None:
        self.closeness = closeness or ClosenessSpec()

    def attach(self, system: ReplicatedSystem) -> None:
        super().attach(system)
        names = sorted(system.sites)
        self.primary = names[0]
        #: per-key primary version counter.
        self._primary_version: Dict[str, int] = {}
        #: secondary -> key -> cache entry.
        self._cache: Dict[str, Dict[str, _CacheEntry]] = {
            name: {} for name in names if name != self.primary
        }
        self._ets: Dict[TransactionID, EpsilonTransaction] = {}
        self.refresh_count = 0
        #: the age sweep is armed whenever some quasi-copy is stale and
        #: disarms itself once everything is fresh, so quiescence stays
        #: reachable.
        self._sweep_armed = False

    # ------------------------------------------------------------------
    # Update path: strictly at the primary
    # ------------------------------------------------------------------

    def submit_update(
        self, et: EpsilonTransaction, origin: str, on_done: DoneCallback
    ) -> None:
        self._ets[et.tid] = et
        start = self.system.sim.now

        def at_primary() -> None:
            site = self.system.sites[self.primary]
            executor = self.system.executors[self.primary]
            ops = tuple(et.writes())
            duration = site.config.apply_time * max(len(ops), 1)

            def apply() -> None:
                for op in ops:
                    site.apply_op(et.tid, op, et)
                    self._primary_version[op.key] = (
                        self._primary_version.get(op.key, 0) + 1
                    )
                self._fire_triggers(et.write_set)
                on_done(
                    ETResult(
                        et,
                        status=ETStatus.COMMITTED,
                        start_time=start,
                        finish_time=self.system.sim.now,
                        site=self.primary,
                    )
                )

            executor.submit(duration, apply, label="quasi-%s" % (et.tid,))

        if origin == self.primary:
            at_primary()
        else:
            self._rpc(origin, self.primary, at_primary)

    def _rpc(self, src: str, dst: str, then: Callable[[], None]) -> None:
        def attempt() -> None:
            self.system.network.send(
                src,
                dst,
                None,
                on_deliver=lambda _: then(),
                on_drop=lambda _: self.system.sim.schedule(
                    self.system.config.retry_interval, attempt
                ),
            )

        attempt()

    # ------------------------------------------------------------------
    # Trigger mechanism
    # ------------------------------------------------------------------

    def _fire_triggers(self, keys: Tuple[str, ...]) -> None:
        """After a primary write: refresh quasi-copies out of closeness."""
        lag = self.closeness.version_lag
        if lag is not None:
            for secondary in self._cache:
                for key in keys:
                    entry = self._cache[secondary].setdefault(
                        key, _CacheEntry()
                    )
                    behind = self._primary_version.get(key, 0) - entry.version
                    if behind > lag:
                        self._refresh(secondary, key)
        if self.closeness.max_age is not None:
            self._arm_sweep()

    def _arm_sweep(self) -> None:
        if self._sweep_armed:
            return
        self._sweep_armed = True
        self.system.sim.schedule(self.closeness.max_age, self._sweep)

    def _sweep(self) -> None:
        """Periodic age check (the delay-condition trigger)."""
        self._sweep_armed = False
        period = self.closeness.max_age
        now = self.system.sim.now
        any_stale = False
        for secondary, cache in self._cache.items():
            for key, pversion in self._primary_version.items():
                entry = cache.setdefault(key, _CacheEntry())
                if entry.version >= pversion:
                    continue
                any_stale = True
                if now - entry.refreshed_at >= period:
                    self._refresh(secondary, key)
        if any_stale:
            # Stay armed until every quasi-copy is fresh (in-flight
            # refreshes land before the next sweep fires).
            self._arm_sweep()

    def _refresh(self, secondary: str, key: str) -> None:
        """Ship the primary's current value of ``key`` to a secondary."""
        self.refresh_count += 1
        primary_site = self.system.sites[self.primary]
        value = primary_site.read(0, key)
        version = self._primary_version.get(key, 0)

        def deliver() -> None:
            site = self.system.sites[secondary]
            if site.crashed:
                return
            site.store.put(key, value)
            entry = self._cache[secondary].setdefault(key, _CacheEntry())
            entry.version = version
            entry.refreshed_at = self.system.sim.now

        self.system.network.send(
            self.primary,
            secondary,
            None,
            on_deliver=lambda _: deliver(),
            on_drop=lambda _: self.system.sim.schedule(
                self.system.config.retry_interval,
                lambda: self._refresh(secondary, key),
            ),
        )

    # ------------------------------------------------------------------
    # Query path: local quasi-copy reads
    # ------------------------------------------------------------------

    def submit_query(
        self, et: EpsilonTransaction, site_name: str, on_done: DoneCallback
    ) -> None:
        site = self.system.sites[site_name]
        result = ETResult(et, start_time=self.system.sim.now, site=site_name)
        keys = [op.key for op in et.operations]
        index = [0]
        stale_keys: Set[str] = set()

        def step() -> None:
            if site.crashed:
                finish(ETStatus.ABORTED)
                return
            if index[0] >= len(keys):
                finish(ETStatus.COMMITTED)
                return
            key = keys[index[0]]

            def do_read() -> None:
                if site.crashed:
                    finish(ETStatus.ABORTED)
                    return
                result.values[key] = site.read(et.tid, key)
                site.history.record(
                    et.tid, ReadOp(key), site_name, site.sim.now, et
                )
                if site_name != self.primary:
                    entry = self._cache[site_name].get(key)
                    cached = entry.version if entry else 0
                    if cached < self._primary_version.get(key, 0):
                        stale_keys.add(key)
                index[0] += 1
                step()

            self.system.sim.schedule(site.config.read_time, do_read)

        def finish(status: str) -> None:
            result.status = status
            result.finish_time = self.system.sim.now
            result.inconsistency = len(stale_keys)
            on_done(result)

        step()

    def handle_message(self, site: Site, mset: MSet) -> None:
        raise ValueError("QuasiCopies uses RPCs, not MSets")

    def quiescent(self) -> bool:
        return True
