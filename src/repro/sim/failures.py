"""Failure injection: crash/recovery and partition schedules.

Benchmarks E4/E8/E9 exercise the paper's robustness claims ("robust in
face of very slow links, network partitions, and site failures") by
injecting deterministic or randomized failure schedules into a running
simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .events import Simulator
from .network import Network
from .site import Site

__all__ = ["FailureInjector", "PartitionEvent", "CrashEvent"]


@dataclass(frozen=True)
class CrashEvent:
    """Crash ``site`` at ``at`` and recover it ``duration`` later."""

    site: str
    at: float
    duration: float


@dataclass(frozen=True)
class PartitionEvent:
    """Partition the network into ``groups`` at ``at``, heal later."""

    groups: Tuple[Tuple[str, ...], ...]
    at: float
    duration: float


class FailureInjector:
    """Applies failure schedules to sites and the network."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        sites: Dict[str, Site],
        on_heal: Optional[Callable[[], None]] = None,
    ) -> None:
        """``on_heal`` runs after each partition heals — replica systems
        hook their stable-queue ``kick`` here so the reconnection
        catch-up the paper describes happens promptly."""
        self.sim = sim
        self.network = network
        self.sites = sites
        self.on_heal = on_heal
        self.crash_count = 0
        self.partition_count = 0

    # -- explicit schedules -------------------------------------------------

    def schedule_crash(self, event: CrashEvent) -> None:
        site = self.sites[event.site]

        def crash() -> None:
            self.crash_count += 1
            self.network.site_down(site.name)
            site.crash()

        def recover() -> None:
            site.recover()
            self.network.site_up(site.name)

        self.sim.schedule_at(event.at, crash)
        self.sim.schedule_at(event.at + event.duration, recover)

    def schedule_partition(self, event: PartitionEvent) -> None:
        def split() -> None:
            self.partition_count += 1
            self.network.partition(event.groups)

        def heal() -> None:
            self.network.heal()
            if self.on_heal is not None:
                self.on_heal()

        self.sim.schedule_at(event.at, split)
        self.sim.schedule_at(event.at + event.duration, heal)

    def apply_schedule(
        self, events: Iterable[object]
    ) -> None:
        """Schedule a mixed list of crash and partition events."""
        for event in events:
            if isinstance(event, CrashEvent):
                self.schedule_crash(event)
            elif isinstance(event, PartitionEvent):
                self.schedule_partition(event)
            else:
                raise TypeError("unknown failure event %r" % (event,))

    # -- randomized schedules ----------------------------------------------------

    def random_crashes(
        self,
        horizon: float,
        rate_per_site: float,
        mean_downtime: float,
    ) -> List[CrashEvent]:
        """Generate (and schedule) Poisson-ish crash events per site."""
        events: List[CrashEvent] = []
        for name in sorted(self.sites):
            t = self.sim.rng.expovariate(rate_per_site) if rate_per_site else horizon
            while t < horizon:
                duration = self.sim.rng.expovariate(1.0 / mean_downtime)
                event = CrashEvent(name, t, duration)
                events.append(event)
                self.schedule_crash(event)
                t += duration + self.sim.rng.expovariate(rate_per_site)
        return events
