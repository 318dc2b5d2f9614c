"""Lamport clocks, and the global order token.

ORDUP (paper section 3.1) needs a global execution order for update
MSets.  "Such ordering can be generated easily by a centralized order
server, sometimes true distributed control is desired.  In those cases
we may use a Lamport-style global timestamp to mark the ordering."

The order server is :class:`repro.replica.sequencer.Sequencer`.  Both
produce the same kind of token — a totally ordered, hashable
:data:`GlobalOrder` — so ORDUP can be configured with either.
"""

from __future__ import annotations

from typing import Tuple

__all__ = ["LamportClock", "GlobalOrder"]

#: A total-order token: (logical time, site tiebreak index).
GlobalOrder = Tuple[int, int]


class LamportClock:
    """Per-site logical clock (Lamport 1978).

    ``tick()`` stamps local events; ``witness()`` merges a remote stamp
    on message receipt.  Stamps are made totally ordered by pairing the
    counter with a stable per-site index.
    """

    def __init__(self, site_index: int) -> None:
        if site_index < 0:
            raise ValueError("site_index must be non-negative")
        self.site_index = site_index
        self._counter = 0

    def tick(self) -> GlobalOrder:
        """Advance for a local event; return its global stamp."""
        self._counter += 1
        return (self._counter, self.site_index)

    def witness(self, stamp: GlobalOrder) -> GlobalOrder:
        """Merge an incoming stamp (receive rule) and tick."""
        remote_time, _ = stamp
        self._counter = max(self._counter, remote_time) + 1
        return (self._counter, self.site_index)
