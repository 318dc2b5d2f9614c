"""Deterministic discrete-event simulation engine.

All experiments in this reproduction run on simulated time: events are
callbacks scheduled at future instants, executed in timestamp order
with deterministic tie-breaking (insertion order).  Randomness flows
from a single seeded :class:`random.Random`, so every run is exactly
reproducible — the substitution for the paper's real distributed
testbed documented in DESIGN.md section 3.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional

__all__ = ["Simulator", "EventHandle", "SimulationError"]


class SimulationError(Exception):
    """Raised on scheduling misuse (e.g. scheduling in the past)."""


@dataclass(order=True)
class _ScheduledEvent:
    time: float
    sequence: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)


@dataclass
class EventHandle:
    """Token returned by ``schedule``; allows cancellation."""

    _event: _ScheduledEvent

    def cancel(self) -> None:
        self._event.cancelled = True


class Simulator:
    """Event loop over simulated time.

    Attributes:
        now: current simulated time.
        rng: the simulation-wide seeded random source.  Components must
            draw randomness only from here to preserve determinism.
    """

    def __init__(self, seed: int = 0) -> None:
        self.now: float = 0.0
        self.rng = random.Random(seed)
        self._queue: List[_ScheduledEvent] = []
        self._sequence = itertools.count()
        self._executed = 0

    # -- scheduling ----------------------------------------------------------

    def schedule(
        self, delay: float, callback: Callable[[], None]
    ) -> EventHandle:
        """Run ``callback`` after ``delay`` simulated time units."""
        if delay < 0:
            raise SimulationError("cannot schedule with negative delay")
        return self.schedule_at(self.now + delay, callback)

    def schedule_at(
        self, time: float, callback: Callable[[], None]
    ) -> EventHandle:
        """Run ``callback`` at absolute simulated ``time``."""
        if time < self.now:
            raise SimulationError(
                "cannot schedule at %s, now is %s" % (time, self.now)
            )
        event = _ScheduledEvent(time, next(self._sequence), callback)
        heapq.heappush(self._queue, event)
        return EventHandle(event)

    def call_now(self, callback: Callable[[], None]) -> EventHandle:
        """Run ``callback`` at the current instant, after pending work."""
        return self.schedule(0.0, callback)

    # -- execution -----------------------------------------------------------

    def step(self) -> bool:
        """Execute the next event.  Returns False when queue is empty."""
        while self._queue:
            event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self.now = event.time
            event.callback()
            self._executed += 1
            return True
        return False

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Drain the event queue.

        Args:
            until: stop once the next event lies beyond this time (the
                clock is advanced to ``until``).
            max_events: safety valve against runaway schedules.

        Returns:
            Number of events executed by this call.
        """
        executed = 0
        while self._queue:
            if max_events is not None and executed >= max_events:
                break
            head = self._queue[0]
            if head.cancelled:
                heapq.heappop(self._queue)
                continue
            if until is not None and head.time > until:
                self.now = max(self.now, until)
                return executed
            if self.step():
                executed += 1
        if until is not None:
            self.now = max(self.now, until)
        return executed

    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled scheduled events."""
        return sum(1 for e in self._queue if not e.cancelled)

    def is_quiescent(self) -> bool:
        """True when no events remain — the paper's quiescent state."""
        return self.pending == 0
