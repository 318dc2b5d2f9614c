"""Typed consistency surface shared by every read path.

The paper's pitch is that applications declare *how much* inconsistency
a read may import instead of re-deriving serializability conditions.
This module is that declaration: one typed surface, the only one
``read`` / ``read_many`` / ``query`` accept on the sim client, the live
client, and the shard router — and the verbs written once over it
(:class:`UpdateVerbs`, :class:`AsyncVerbs`):

* :class:`Consistency` — the level of a read:

  - ``Consistency.STRICT`` — one-copy serializable (``epsilon = 0``);
    pins to the primary/sequencer and refuses honestly while degraded.
  - ``Consistency.BOUNDED(epsilon)`` — bounded-inconsistency ESR read;
    eligible for replica fan-out and the client read cache.
  - ``Consistency.CACHED`` — serve from the client cache while the
    entry is inside its TTL, regardless of the accumulated import
    estimate; falls through to a bounded read on a miss.
  - ``Consistency.SESSION`` — read-your-writes + monotonic-reads
    session guarantees via a :class:`SessionToken` carrying per-site
    applied frontiers, checked server-side (typed ``SESSION_STALE``
    refusal, retried at a fresher replica).

* :class:`ReadOptions` — everything a read may carry: the consistency
  level, a session token, a replica preference, and a timeout.

* :class:`SessionToken` — the portable frontier vector; ``encode()``
  and :meth:`SessionToken.decode` give a JSON wire format for
  cross-process handoff (documented in docs/LIVE.md).

Usage::

    value = client.read("balance", Consistency.BOUNDED(2))
    strict = client.read("balance", Consistency.STRICT)
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from .core.operations import AppendOp, DecrementOp, IncrementOp, WriteOp
from .core.transactions import EpsilonSpec, UNLIMITED

__all__ = [
    "BOUNDED",
    "CACHED",
    "Consistency",
    "ReadOptions",
    "STRICT",
    "SESSION",
    "SessionToken",
    "resolve_read_options",
]

#: Consistency level names (the ``Consistency.level`` vocabulary).
STRICT = "strict"
BOUNDED = "bounded"
CACHED = "cached"
SESSION = "session"

_LEVELS = frozenset({STRICT, BOUNDED, CACHED, SESSION})


class SessionToken:
    """A portable vector of per-site applied frontiers.

    ``frontiers`` maps site name -> the highest sequence number of
    that site's own updates this session has observed (either by
    committing them — read-your-writes — or by reading a reply that
    reflected them — monotonic reads).  A replica may serve a session
    read only while its applied frontier for every site named in the
    token is at least the token's entry; otherwise it refuses with the
    typed ``SESSION_STALE`` code and the client retries at a fresher
    replica.

    The wire format is plain JSON (``{"v": 1, "f": {site: seq}}``) so
    tokens survive cross-process handoff through any string channel.
    """

    __slots__ = ("frontiers",)

    WIRE_VERSION = 1

    def __init__(self, frontiers: Optional[Mapping[str, int]] = None) -> None:
        self.frontiers: Dict[str, int] = {
            str(site): int(seq) for site, seq in (frontiers or {}).items()
        }

    def merge(self, frontiers: Optional[Mapping[str, int]]) -> bool:
        """Max-merge observed frontiers into the token; True if it advanced."""
        if not frontiers:
            return False
        advanced = False
        for site, seq in frontiers.items():
            try:
                seq = int(seq)
            except (TypeError, ValueError):
                continue
            if seq > self.frontiers.get(str(site), 0):
                self.frontiers[str(site)] = seq
                advanced = True
        return advanced

    def observe_write(self, tid: str) -> bool:
        """Advance the token past one committed update's ``site:seq`` tid."""
        site, sep, seq = str(tid).rpartition(":")
        if not sep or not site:
            return False
        try:
            return self.merge({site: int(seq)})
        except ValueError:
            return False

    def dominated_by(self, frontiers: Mapping[str, int]) -> bool:
        """True when ``frontiers`` covers every entry of this token."""
        return all(
            int(frontiers.get(site, 0)) >= seq
            for site, seq in self.frontiers.items()
        )

    def copy(self) -> "SessionToken":
        return SessionToken(self.frontiers)

    def encode(self) -> str:
        """Serialize for cross-process handoff (see docs/LIVE.md)."""
        return json.dumps(
            {"v": self.WIRE_VERSION, "f": dict(sorted(self.frontiers.items()))},
            separators=(",", ":"),
        )

    @classmethod
    def decode(cls, text: str) -> "SessionToken":
        try:
            payload = json.loads(text)
            if int(payload.get("v", 0)) != cls.WIRE_VERSION:
                raise ValueError("unsupported token version %r" % payload.get("v"))
            return cls(payload.get("f", {}))
        except (TypeError, ValueError, AttributeError) as exc:
            raise ValueError("malformed session token: %s" % exc) from None

    def __bool__(self) -> bool:
        return bool(self.frontiers)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SessionToken)
            and self.frontiers == other.frontiers
        )

    def __repr__(self) -> str:
        return "SessionToken(%r)" % (self.frontiers,)


class Consistency:
    """A typed read-consistency level with its inconsistency budget.

    Use the canonical constructors::

        Consistency.STRICT          # epsilon = 0, primary-pinned
        Consistency.BOUNDED(4)      # import at most 4 concurrent updates
        Consistency.CACHED          # TTL-bound client-cache reads
        Consistency.SESSION         # read-your-writes / monotonic reads
    """

    __slots__ = ("level", "epsilon", "value_limit")

    # Populated after the class body (singletons need the class).
    STRICT: "Consistency"
    CACHED: "Consistency"
    SESSION: "Consistency"

    def __init__(
        self,
        level: str = BOUNDED,
        epsilon: float = UNLIMITED,
        value_limit: float = UNLIMITED,
    ) -> None:
        if level not in _LEVELS:
            raise ValueError(
                "unknown consistency level %r (expected one of %s)"
                % (level, ", ".join(sorted(_LEVELS)))
            )
        if level == STRICT:
            epsilon = 0.0
        self.level = level
        self.epsilon = epsilon
        self.value_limit = value_limit

    @staticmethod
    def BOUNDED(
        epsilon: float, value_limit: float = UNLIMITED
    ) -> "Consistency":
        """A bounded-inconsistency (ESR) read budget."""
        return Consistency(BOUNDED, epsilon, value_limit)

    def spec(self) -> EpsilonSpec:
        """The epsilon spec this level submits to the engine."""
        return EpsilonSpec(
            import_limit=self.epsilon, value_limit=self.value_limit
        )

    @property
    def is_strict(self) -> bool:
        return self.level == STRICT or self.spec().is_strict

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Consistency)
            and self.level == other.level
            and self.epsilon == other.epsilon
            and self.value_limit == other.value_limit
        )

    def __repr__(self) -> str:
        if self.level == STRICT:
            return "Consistency.STRICT"
        extras = []
        if self.epsilon != UNLIMITED:
            extras.append("epsilon=%r" % self.epsilon)
        if self.value_limit != UNLIMITED:
            extras.append("value_limit=%r" % self.value_limit)
        return "Consistency(%r%s)" % (
            self.level, (", " + ", ".join(extras)) if extras else ""
        )


Consistency.STRICT = Consistency(STRICT, 0.0)
Consistency.CACHED = Consistency(CACHED)
Consistency.SESSION = Consistency(SESSION)


@dataclass(frozen=True)
class ReadOptions:
    """Everything a read may carry, uniformly across backends.

    ``consistency``
        The :class:`Consistency` level (default: an unbounded ESR
        read, matching the historical no-kwargs behaviour).
    ``session``
        A :class:`SessionToken` to enforce (and advance).  Implied —
        and auto-created — inside ``client.session()`` blocks.
    ``prefer``
        Replica preference for the live client's fan-out:
        ``None``/``"auto"`` follows the client policy, ``"primary"``
        pins to the primary, ``"any"`` opts this read into
        staleness-weighted fan-out, a site name targets that replica.
    ``timeout``
        Per-read deadline in seconds (falls back to the client's
        default request timeout).
    """

    consistency: Consistency = field(default_factory=lambda: Consistency())
    session: Optional[SessionToken] = None
    prefer: Optional[str] = None
    timeout: Optional[float] = None

    def spec(self) -> EpsilonSpec:
        return self.consistency.spec()


def resolve_read_options(
    options: Union[ReadOptions, Consistency, None] = None,
    *,
    timeout: Optional[float] = None,
    caller: str = "read",
) -> ReadOptions:
    """Fold what a read was given into one :class:`ReadOptions`.

    Every backend's ``read``/``read_many``/``query`` funnels through
    here, so sim, live, and sharded clients accept exactly the same
    things: nothing, a :class:`Consistency` level, or a full
    :class:`ReadOptions`; anything else (a bare number included) is a
    ``TypeError`` naming ``caller``.
    """
    if options is None:
        return ReadOptions(timeout=timeout)
    if isinstance(options, Consistency):
        return ReadOptions(consistency=options, timeout=timeout)
    if isinstance(options, ReadOptions):
        if timeout is not None and options.timeout is None:
            return ReadOptions(
                consistency=options.consistency,
                session=options.session,
                prefer=options.prefer,
                timeout=timeout,
            )
        return options
    raise TypeError(
        "%s(): options must be ReadOptions or Consistency, got %r"
        % (caller, type(options).__name__)
    )


def query_options(
    spec: Union[EpsilonSpec, ReadOptions, Consistency, None],
    timeout: Optional[float],
) -> ReadOptions:
    """What a live ``query`` was given, as one :class:`ReadOptions`.

    The typed surface goes through :func:`resolve_read_options`; a raw
    :class:`EpsilonSpec` becomes a read bounded by its import and value
    limits (a query exports nothing, so ``export_limit`` is dropped).
    """
    if isinstance(spec, EpsilonSpec):
        return ReadOptions(
            consistency=Consistency(
                epsilon=spec.import_limit, value_limit=spec.value_limit
            ),
            timeout=timeout,
        )
    return resolve_read_options(spec, timeout=timeout, caller="query")


def query_keys(keys: Sequence[str]) -> List[str]:
    """The keys of one query ET, as a list.

    Every backend's ``query``/``read_many`` refuses the same way before
    anything runs or is sent: a bare ``str``/``bytes`` is a
    ``TypeError`` (iterating it would read one key per character), and
    no keys at all is a ``ValueError``.
    """
    if isinstance(keys, (str, bytes)):
        raise TypeError(
            "query keys must be a sequence of keys, not a bare %s"
            % type(keys).__name__
        )
    keys = list(keys)
    if not keys:
        raise ValueError("a query needs at least one key")
    return keys


class UpdateVerbs:
    """The one-operation update verbs, written once over ``update``.

    Each only returns ``self.update(...)``, so one body serves the
    blocking simulator client (it returns the ``ETResult``) and the
    async live surfaces (it returns the coroutine the caller awaits).
    """

    def write(self, key: str, value: Any) -> Any:
        """Blind write (RITU-compatible)."""
        return self.update([WriteOp(key, value)])

    def increment(self, key: str, amount: float = 1) -> Any:
        return self.update([IncrementOp(key, amount)])

    def decrement(self, key: str, amount: float = 1) -> Any:
        return self.update([DecrementOp(key, amount)])

    def append(self, key: str, item: Any) -> Any:
        return self.update([AppendOp(key, item)])


class AsyncVerbs(UpdateVerbs):
    """The update verbs plus ``read``/``read_many``, written once over
    an async ``query``: the live client, the shard router and the live
    session all read through their own ``query``."""

    async def read(
        self,
        key: str,
        options: Union[ReadOptions, Consistency, None] = None,
        *,
        timeout: Optional[float] = None,
    ) -> Any:
        """Read one key at the given consistency: a
        :class:`ReadOptions` or a :class:`Consistency` level."""
        opts = resolve_read_options(options, timeout=timeout, caller="read")
        result = await self.query([key], opts, timeout=opts.timeout)
        return result.values[key]

    async def read_many(
        self,
        keys: Sequence[str],
        options: Union[ReadOptions, Consistency, None] = None,
        *,
        timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        """One query ET over several keys (a consistent unit of error)."""
        opts = resolve_read_options(
            options, timeout=timeout, caller="read_many"
        )
        result = await self.query(keys, opts, timeout=opts.timeout)
        return dict(result.values)
