"""Shared failure taxonomy for every client surface.

The simulator's :class:`~repro.client.ETFailed` and the live runtime's
:class:`~repro.live.client.LiveETFailed` used to be unrelated
exception types, so portable application code had to catch both.  They
now share one base, :class:`ETError`, carrying a *stable* ``code``
string drawn from the small vocabulary below — application code
branches on ``exc.code`` (or the convenience predicates) and works
against either backend.

Codes:

* :data:`UNAVAILABLE` — the replica honestly refused a request that
  needs full replica agreement (``epsilon = 0`` during a partition).
  Retry elsewhere or relax the budget.
* :data:`EPSILON_EXCEEDED` — the ET finished outside its declared
  inconsistency budget (only reachable when a backend chooses to
  report rather than block; the paper's methods normally block).
* :data:`ABORTED` — the ET was aborted by the replica control method
  (e.g. compensation, validation failure).
* :data:`OVERLOADED` — the replica is alive but shedding write load:
  a peer channel's durable backlog is past its high-water mark.
  Retry later, or at a less loaded replica.
* :data:`WRONG_SHARD` — the addressed replica group does not (or no
  longer does) own the requested keys' shard.  The error response
  carries the newest shard map the replica knows (``map``); refresh
  the routing table and retry at the owner.  The sharded router does
  this automatically.
* :data:`SESSION_STALE` — the addressed replica's applied frontiers
  lag the session token attached to a ``SESSION``-level read, so
  serving it would violate read-your-writes / monotonic reads.  The
  error response carries the replica's current frontier vector
  (``frontiers``); retry at a fresher replica (the live client does
  this automatically) or wait for propagation to catch up.
* :data:`COMPENSATED` — the update was optimistically applied and then
  undone by COMPE's backward recovery (the paper's compensation
  method; at live scale, a saga step whose saga aborted).  The error
  response carries the tids that were undone (``compensated``).  This
  is *not* a silent failure: the update's effects were durably removed
  by compensating operations, and the caller must treat it like an
  abort that briefly became visible.

Catch-all::

    from repro import Consistency, ETError

    try:
        client.read("balance", Consistency.STRICT)
    except ETError as exc:
        if exc.unavailable:
            ...  # degrade: retry with a relaxed epsilon
"""

from __future__ import annotations

__all__ = [
    "ABORTED",
    "COMPENSATED",
    "EPSILON_EXCEEDED",
    "ETError",
    "OVERLOADED",
    "SESSION_STALE",
    "UNAVAILABLE",
    "WRONG_SHARD",
]

#: a request needing full replica agreement was honestly refused.
UNAVAILABLE = "UNAVAILABLE"
#: the ET's observed inconsistency exceeded its declared budget.
EPSILON_EXCEEDED = "EPSILON_EXCEEDED"
#: the replica control method aborted the ET.
ABORTED = "ABORTED"
#: the replica refused an update to bound its durable backlog.
OVERLOADED = "OVERLOADED"
#: the addressed replica group does not own the requested shard.
WRONG_SHARD = "WRONG_SHARD"
#: the replica's applied frontiers lag the read's session token.
SESSION_STALE = "SESSION_STALE"
#: the update was applied optimistically and then undone by COMPE's
#: backward recovery (saga abort / validation failure).
COMPENSATED = "COMPENSATED"


class ETError(RuntimeError):
    """Base class of every ET failure, simulated or live.

    ``code`` is a stable machine-readable string (one of the module
    constants, or a backend-specific extension); the exception message
    stays human-readable prose.
    """

    code: str = ""

    def __init__(self, message: str, code: str = "") -> None:
        super().__init__(message)
        if code:
            self.code = code

    @property
    def unavailable(self) -> bool:
        """True when the replica refused service during degradation."""
        return self.code == UNAVAILABLE

    @property
    def aborted(self) -> bool:
        return self.code == ABORTED

    @property
    def overloaded(self) -> bool:
        """True when the replica shed the request to bound backlog."""
        return self.code == OVERLOADED

    @property
    def wrong_shard(self) -> bool:
        """True when the request was routed to a non-owner group."""
        return self.code == WRONG_SHARD

    @property
    def session_stale(self) -> bool:
        """True when the replica lagged the read's session token."""
        return self.code == SESSION_STALE

    @property
    def compensated(self) -> bool:
        """True when the update was undone by backward recovery."""
        return self.code == COMPENSATED
