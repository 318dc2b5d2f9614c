"""Distributed-system substrate: events, network, queues, sites, failures."""

from .events import EventHandle, SimulationError, Simulator
from .network import (
    ConstantLatency,
    LatencyModel,
    Network,
    NetworkStats,
    UniformLatency,
)
from .stable_queue import Envelope, QueueStats, StableQueue
from .clocks import GlobalOrder, LamportClock
from .site import Site, SiteConfig
from .failures import CrashEvent, FailureInjector, PartitionEvent

__all__ = [
    "EventHandle",
    "SimulationError",
    "Simulator",
    "ConstantLatency",
    "LatencyModel",
    "Network",
    "NetworkStats",
    "UniformLatency",
    "Envelope",
    "QueueStats",
    "StableQueue",
    "GlobalOrder",
    "LamportClock",
    "Site",
    "SiteConfig",
    "CrashEvent",
    "FailureInjector",
    "PartitionEvent",
]
