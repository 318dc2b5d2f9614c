"""Synchronous client facade over a replicated system.

The paper's pitch for ETs is that applications "need not explicitly
deal with the theoretical conditions satisfying ESR" — they just issue
transactions with an inconsistency budget.  :class:`Client` delivers
that ergonomics on top of the simulator: each call submits an ET at
the client's home site and advances simulated time until the ET
completes, returning plain values.

    client = Client(system, "site1")
    client.increment("balance", 100)                   # async update
    value = client.read("balance", Consistency.BOUNDED(2))
    strict = client.read("balance", Consistency.STRICT)

Because the client *runs the simulator* while waiting, it is intended
for single-driver scripts (examples, notebooks, tests).  Concurrent
multi-client scenarios should schedule submissions on the simulator
directly, as the workload generator does.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Union

from .consistency import (
    Consistency,
    ReadOptions,
    SessionToken,
    UpdateVerbs,
    query_keys,
    resolve_read_options,
)
from .core.operations import Operation, ReadOp
from .core.transactions import EpsilonSpec, ETResult, ETStatus
from .errors import ABORTED, COMPENSATED, EPSILON_EXCEEDED, ETError
from .replica.base import ReplicatedSystem

__all__ = ["Client", "ClientSession", "ETFailed"]


class ETFailed(ETError):
    """Raised when a client-issued ET does not commit.

    Shares :class:`repro.errors.ETError` with the live runtime's
    ``LiveETFailed``, so portable code catches one type and branches on
    the stable ``code``; the full :class:`ETResult` stays available as
    ``exc.result`` for simulator-specific inspection.
    """

    def __init__(self, result: ETResult) -> None:
        if result.status is ETStatus.COMPENSATED:
            # COMPE backward recovery: the update's effects were
            # visible and then undone — distinct from a plain abort,
            # and matched by the live runtime's COMPENSATED code.
            code = COMPENSATED
        elif result.status is ETStatus.ABORTED:
            code = ABORTED
        elif not result.within_epsilon:
            code = EPSILON_EXCEEDED
        else:
            code = ""
        super().__init__(
            "ET %s finished with status %r"
            % (result.et.tid, result.status),
            code,
        )
        self.result = result


class Client(UpdateVerbs):
    """A blocking, site-homed handle onto a replicated system.

    ``write``/``increment``/``decrement``/``append`` come from
    :class:`~repro.consistency.UpdateVerbs`, over :meth:`update`."""

    def __init__(self, system: ReplicatedSystem, site: str) -> None:
        if site not in system.sites:
            raise KeyError("unknown site %r" % site)
        self.system = system
        self.site = site

    # -- generic execution ---------------------------------------------------

    def execute(
        self,
        operations: Sequence[Operation],
        spec: Optional[EpsilonSpec] = None,
    ) -> ETResult:
        """Submit an ET and run the simulation until it completes."""
        from .core.transactions import make_et

        et = make_et(operations, spec, origin_site=self.site)
        done: List[ETResult] = []
        self.system.submit(et, self.site, done.append)
        guard = 0
        while not done:
            if not self.system.sim.step():
                # Nothing scheduled but the ET is still pending: nudge
                # the queues (a retry timer may be the only thing left).
                self.system.kick_queues()
                if not self.system.sim.step():
                    raise RuntimeError(
                        "simulation stalled while waiting for ET %s" % et.tid
                    )
            guard += 1
            if guard > 1_000_000:
                raise RuntimeError("ET %s never completed" % et.tid)
        result = done[0]
        if result.status != ETStatus.COMMITTED:
            raise ETFailed(result)
        return result

    # -- updates ---------------------------------------------------------------

    def update(self, operations: Sequence[Operation]) -> ETResult:
        """Multi-operation update ET."""
        return self.execute(list(operations))

    # -- queries -----------------------------------------------------------------

    def read(
        self,
        key: str,
        options: Union[ReadOptions, Consistency, None] = None,
    ) -> Any:
        """Read one key at the given consistency: a
        :class:`~repro.consistency.ReadOptions` or a
        :class:`~repro.consistency.Consistency` level."""
        opts = resolve_read_options(options, caller="read")
        result = self.execute([ReadOp(key)], opts.spec())
        return result.values[key]

    def read_many(
        self,
        keys: Sequence[str],
        options: Union[ReadOptions, Consistency, None] = None,
    ) -> Dict[str, Any]:
        """One query ET over several keys (a consistent unit of error)."""
        opts = resolve_read_options(options, caller="read_many")
        result = self.execute(
            [ReadOp(key) for key in query_keys(keys)], opts.spec()
        )
        return dict(result.values)

    def query(
        self,
        keys: Sequence[str],
        spec: Union[EpsilonSpec, ReadOptions, Consistency, None] = None,
    ) -> ETResult:
        """Full-fidelity query: returns the ETResult with its error
        accounting (inconsistency counter, overlap, waits).  ``spec``
        accepts a raw :class:`EpsilonSpec` or the typed surface."""
        if isinstance(spec, (ReadOptions, Consistency)):
            spec = resolve_read_options(spec, caller="query").spec()
        return self.execute([ReadOp(key) for key in query_keys(keys)], spec)

    def session(self, token: Optional[SessionToken] = None) -> "ClientSession":
        """Open a session (``with client.session() as s:``).

        The simulator client is site-homed and blocking — every call
        runs the simulation to completion at one site — so
        read-your-writes and monotonic reads hold trivially.  The
        session carries a :class:`SessionToken` so programs exercising
        cross-process token handoff run unchanged, but the simulator's
        tids are global counters that name no site, so the token is
        never advanced.
        """
        return ClientSession(self, token)

    # -- convenience ------------------------------------------------------------------

    def settle(self) -> float:
        """Drain all background propagation (returns quiescence time)."""
        return self.system.run_to_quiescence()


class ClientSession(UpdateVerbs):
    """The simulator's session, as a *synchronous* context manager.

    The same verbs and :class:`SessionToken` as the async
    :class:`~repro.live.client.LiveSession` that ``LiveClient`` and
    ``ShardRouter`` open, so API-parity programs drive sessions on every
    backend.  Every verb goes to the site-homed client unchanged, where
    the session guarantees already hold; the token is carried, not
    advanced (see :meth:`Client.session`).
    """

    def __init__(
        self, client: Client, token: Optional[SessionToken] = None
    ) -> None:
        self._client = client
        self.token = token if token is not None else SessionToken()

    def __enter__(self) -> "ClientSession":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None

    def read(
        self,
        key: str,
        options: Union[ReadOptions, Consistency, None] = None,
    ) -> Any:
        return self._client.read(key, options)

    def read_many(
        self,
        keys: Sequence[str],
        options: Union[ReadOptions, Consistency, None] = None,
    ) -> Dict[str, Any]:
        return self._client.read_many(keys, options)

    def query(
        self,
        keys: Sequence[str],
        spec: Union[EpsilonSpec, ReadOptions, Consistency, None] = None,
    ) -> ETResult:
        return self._client.query(keys, spec)

    def update(self, operations: Sequence[Operation]) -> ETResult:
        return self._client.update(operations)
