"""Simulated network: latency, loss, bandwidth, and partitions.

The paper's model (section 2.2): "a number of sites connected by a
network, where both individual sites and network links may fail";
replica control must be "robust in face of very slow links, network
partitions, and site failures".  This module supplies those hazards:

* per-link latency models (constant, uniform, exponential-ish),
* independent per-message loss probability,
* partitions: site groups that cannot exchange messages until healed.

Message delivery is fire-and-forget at this layer; reliability is the
stable queue's job (:mod:`repro.sim.stable_queue`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Optional, Set, Tuple

from .events import Simulator

__all__ = [
    "LatencyModel",
    "ConstantLatency",
    "UniformLatency",
    "Network",
    "NetworkStats",
]


class LatencyModel:
    """Strategy object producing per-message latencies."""

    def sample(self, sim: Simulator) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantLatency(LatencyModel):
    """Fixed one-way delay."""

    delay: float = 1.0

    def sample(self, sim: Simulator) -> float:
        return self.delay


@dataclass(frozen=True)
class UniformLatency(LatencyModel):
    """Uniform delay in [low, high]."""

    low: float = 0.5
    high: float = 1.5

    def sample(self, sim: Simulator) -> float:
        return sim.rng.uniform(self.low, self.high)


@dataclass
class NetworkStats:
    """Counters the benchmarks report."""

    sent: int = 0
    delivered: int = 0
    lost: int = 0
    blocked_by_partition: int = 0


class Network:
    """Message fabric between named sites."""

    def __init__(
        self,
        sim: Simulator,
        latency: Optional[LatencyModel] = None,
        loss_rate: float = 0.0,
        bandwidth: Optional[float] = None,
    ) -> None:
        """Args:
            bandwidth: per-directed-link capacity in message-units per
                simulated time unit (``None`` = infinite).  Messages
                carry a ``size`` (default 1.0); each link serializes
                its traffic, so a busy link adds queueing delay on top
                of propagation latency — the paper's "very low
                bandwidth" handicap (section 2.4).
        """
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        if bandwidth is not None and bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        self.sim = sim
        self.default_latency = latency or ConstantLatency(1.0)
        self.loss_rate = loss_rate
        self.bandwidth = bandwidth
        self.stats = NetworkStats()
        self._link_latency: Dict[Tuple[str, str], LatencyModel] = {}
        #: per-directed-link transmitter availability time (queueing).
        self._link_free_at: Dict[Tuple[str, str], float] = {}
        #: current partition: site -> group id.  Empty = fully connected.
        self._partition_of: Dict[str, int] = {}
        self._down_sites: Set[str] = set()

    # -- topology ------------------------------------------------------------

    def set_link_latency(
        self, src: str, dst: str, latency: LatencyModel, symmetric: bool = True
    ) -> None:
        """Override latency for one directed (or symmetric) link."""
        self._link_latency[(src, dst)] = latency
        if symmetric:
            self._link_latency[(dst, src)] = latency

    def _latency_for(self, src: str, dst: str) -> LatencyModel:
        return self._link_latency.get((src, dst), self.default_latency)

    # -- partitions -----------------------------------------------------------

    def partition(self, groups: Iterable[Iterable[str]]) -> None:
        """Split sites into isolated groups.

        Sites not named in any group remain in an implicit group of
        their own that can still reach each other only if *no* groups
        are active for them; to be explicit, name every site.
        """
        self._partition_of = {}
        for gid, group in enumerate(groups):
            for site in group:
                self._partition_of[site] = gid

    def heal(self) -> None:
        """Remove all partitions (paper's reconnection instant)."""
        self._partition_of = {}

    def is_partitioned(self, src: str, dst: str) -> bool:
        if not self._partition_of:
            return False
        return self._partition_of.get(src) != self._partition_of.get(dst)

    # -- site failures ----------------------------------------------------------

    def site_down(self, site: str) -> None:
        """Mark a site crashed: messages to it are dropped on arrival."""
        self._down_sites.add(site)

    def site_up(self, site: str) -> None:
        self._down_sites.discard(site)

    # -- messaging ---------------------------------------------------------------

    def send(
        self,
        src: str,
        dst: str,
        payload: Any,
        on_deliver: Callable[[Any], None],
        on_drop: Optional[Callable[[Any], None]] = None,
        size: float = 1.0,
    ) -> bool:
        """Attempt delivery of ``payload`` from ``src`` to ``dst``.

        Returns True when the message was put on the wire (it may still
        be lost probabilistically).  Partitioned or crashed endpoints
        drop immediately; ``on_drop`` (if given) is invoked either way a
        message dies, letting stable queues schedule retries.  ``size``
        matters only on bandwidth-limited networks, where it determines
        serialization time (and therefore queueing behind earlier
        traffic on the same directed link).
        """
        self.stats.sent += 1
        if self.is_partitioned(src, dst) or src in self._down_sites:
            self.stats.blocked_by_partition += 1
            if on_drop is not None:
                self.sim.call_now(lambda: on_drop(payload))
            return False
        if self.loss_rate and self.sim.rng.random() < self.loss_rate:
            self.stats.lost += 1
            if on_drop is not None:
                self.sim.call_now(lambda: on_drop(payload))
            return False
        delay = self._latency_for(src, dst).sample(self.sim)
        if self.bandwidth is not None:
            # Serialize behind whatever is already on this link's
            # transmitter, then add our own transmission time.
            link = (src, dst)
            free_at = max(
                self._link_free_at.get(link, 0.0), self.sim.now
            )
            transmit = size / self.bandwidth
            done_at = free_at + transmit
            self._link_free_at[link] = done_at
            delay += done_at - self.sim.now

        def deliver() -> None:
            # The destination may have crashed or partitioned away while
            # the message was in flight.
            if dst in self._down_sites or self.is_partitioned(src, dst):
                self.stats.blocked_by_partition += 1
                if on_drop is not None:
                    on_drop(payload)
                return
            self.stats.delivered += 1
            on_deliver(payload)

        self.sim.schedule(delay, deliver)
        return True
