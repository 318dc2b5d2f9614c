"""Ordering services: Lamport clocks and a central order server.

ORDUP (paper section 3.1) needs a global execution order for update
MSets.  "Such ordering can be generated easily by a centralized order
server, sometimes true distributed control is desired.  In those cases
we may use a Lamport-style global timestamp to mark the ordering."

Both are provided; they produce the same kind of token — a totally
ordered, hashable sequence identifier — so ORDUP can be configured with
either.
"""

from __future__ import annotations

from typing import Tuple

__all__ = ["LamportClock", "CentralOrderServer", "GlobalOrder"]

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

    @property
    def time(self) -> int:
        return self._counter

    def tick(self) -> GlobalOrder:
        """Advance for a local event; return its global stamp."""
        self._counter += 1
        return (self._counter, self.site_index)

    def witness(self, stamp: GlobalOrder) -> GlobalOrder:
        """Merge an incoming stamp (receive rule) and tick."""
        remote_time, _ = stamp
        self._counter = max(self._counter, remote_time) + 1
        return (self._counter, self.site_index)


class CentralOrderServer:
    """Globally unique, gap-free sequence numbers.

    Gap-freedom is what lets ORDUP sites "simply wait for the next MSet
    in the execution sequence to show up" — with Lamport stamps a site
    cannot know whether a slightly earlier stamp is still in flight, so
    the hold-back logic differs (see
    :class:`repro.replica.host.OrderedUpdates`).
    """

    def __init__(self) -> None:
        self._issued = 0

    def next_order(self) -> GlobalOrder:
        """Issue the next global sequence token."""
        self._issued += 1
        return (self._issued, 0)

    @property
    def issued(self) -> int:
        """Highest sequence number issued so far."""
        return self._issued
