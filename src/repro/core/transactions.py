"""Epsilon-transactions (ETs): the paper's high-level interface to ESR.

An ET is a sequence of operations (paper section 2.1).  An ET with only
reads is a *query ET*; an ET with at least one write is an *update ET*.
Update ETs must be serializable against each other; query ETs may
interleave freely but accumulate bounded inconsistency.

The ET objects here are declarative: they describe the operations and
the inconsistency budget (*epsilon specification*).  Execution happens
inside the simulator through a replica control method; the results come
back as an :class:`ETResult` carrying the observed values and the final
inconsistency accounting.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Optional, Sequence, Tuple

from .operations import Operation, is_write

__all__ = [
    "TransactionID",
    "EpsilonSpec",
    "EpsilonTransaction",
    "QueryET",
    "UpdateET",
    "make_et",
    "ETStatus",
    "ETResult",
    "UNLIMITED",
]

TransactionID = int

#: Sentinel epsilon limit meaning "no bound" (run freely, section 3.2:
#: "If there is no hard limit on query ET divergence, then the system
#: can run freely").
UNLIMITED = float("inf")

_tid_counter = itertools.count(1)


def _next_tid() -> TransactionID:
    return next(_tid_counter)


@dataclass(frozen=True)
class EpsilonSpec:
    """Inconsistency budget for one ET.

    Attributes:
        import_limit: maximum number of conflicting concurrent update
            ETs whose effects this query may observe — the paper's
            "inconsistency counter" limit.  ``0`` demands a strictly SR
            execution; :data:`UNLIMITED` lets the query run freely.
        export_limit: maximum number of concurrent query ETs an update
            ET may expose intermediate state to (used by the throttling
            variant of COMMU, section 3.2: "we can limit the update ETs
            in addition to query ETs").
        value_limit: maximum total *value drift* the query may import,
            summed over the worst-case value deltas of the updates it
            observes (section 5.1's "data value changed asynchronously"
            criterion; updates with unknown delta count as unbounded).
    """

    import_limit: float = UNLIMITED
    export_limit: float = UNLIMITED
    value_limit: float = UNLIMITED

    def __post_init__(self) -> None:
        if (
            self.import_limit < 0
            or self.export_limit < 0
            or self.value_limit < 0
        ):
            raise ValueError("epsilon limits must be non-negative")

    @property
    def is_strict(self) -> bool:
        """True when the spec demands serializable behavior (epsilon 0)."""
        return self.import_limit == 0 or self.value_limit == 0


@dataclass(frozen=True)
class EpsilonTransaction:
    """A sequence of operations executed under ESR.

    Instances are immutable descriptions; the same ET can be submitted
    to many sites (replica control turns an update ET into one MSet per
    replica site).
    """

    operations: Tuple[Operation, ...]
    spec: EpsilonSpec = field(default_factory=EpsilonSpec)
    tid: TransactionID = field(default_factory=_next_tid)
    origin_site: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.operations:
            raise ValueError("an ET must contain at least one operation")

    @property
    def is_query(self) -> bool:
        """True when the ET contains only reads (a query ET)."""
        return not any(is_write(op) for op in self.operations)

    @property
    def is_update(self) -> bool:
        """True when the ET contains at least one write (an update ET)."""
        return not self.is_query

    @property
    def write_set(self) -> Tuple[str, ...]:
        """Keys written by this ET, in operation order, deduplicated."""
        seen: Dict[str, None] = {}
        for op in self.operations:
            if is_write(op):
                seen.setdefault(op.key, None)
        return tuple(seen)

    @property
    def keys(self) -> Tuple[str, ...]:
        """All keys the ET touches."""
        seen: Dict[str, None] = {}
        for op in self.operations:
            seen.setdefault(op.key, None)
        return tuple(seen)

    def writes(self) -> Iterable[Operation]:
        """Iterate over the write operations of this ET."""
        return (op for op in self.operations if is_write(op))

    def reads(self) -> Iterable[Operation]:
        """Iterate over the read operations of this ET."""
        return (op for op in self.operations if op.is_read_op)


class QueryET(EpsilonTransaction):
    """Marker subclass for read-only ETs; validates purity."""

    def __init__(
        self,
        operations: Sequence[Operation],
        spec: Optional[EpsilonSpec] = None,
        origin_site: Optional[str] = None,
    ) -> None:
        ops = tuple(operations)
        if any(is_write(op) for op in ops):
            raise ValueError("QueryET may not contain write operations")
        super().__init__(ops, spec or EpsilonSpec(), _next_tid(), origin_site)


class UpdateET(EpsilonTransaction):
    """Marker subclass for ETs with at least one write; validates it."""

    def __init__(
        self,
        operations: Sequence[Operation],
        spec: Optional[EpsilonSpec] = None,
        origin_site: Optional[str] = None,
    ) -> None:
        ops = tuple(operations)
        if not any(is_write(op) for op in ops):
            raise ValueError("UpdateET must contain at least one write")
        super().__init__(ops, spec or EpsilonSpec(), _next_tid(), origin_site)


def make_et(
    operations: Sequence[Operation],
    spec: Optional[EpsilonSpec] = None,
    origin_site: Optional[str] = None,
) -> EpsilonTransaction:
    """Build a :class:`QueryET` or :class:`UpdateET` from the operations.

    This is the convenience constructor applications normally use: the
    query/update classification follows the paper's definition
    automatically.
    """
    ops = tuple(operations)
    if any(is_write(op) for op in ops):
        return UpdateET(ops, spec, origin_site)
    return QueryET(ops, spec, origin_site)


class ETStatus:
    """Terminal states of an executed ET."""

    COMMITTED = "committed"
    ABORTED = "aborted"
    COMPENSATED = "compensated"


@dataclass
class ETResult:
    """Outcome of executing one ET through a replica control method.

    Attributes:
        et: the transaction that ran.
        status: one of :class:`ETStatus`.
        values: key -> value observed by the ET's reads.
        inconsistency: final value of the ET's inconsistency counter
            (number of conflicting concurrent update ETs observed).
        overlap: tids of the update ETs in this ET's overlap set.
        start_time / finish_time: simulated timestamps.
        site: the site that served the ET (queries run at one replica).
        waits: number of times the ET blocked on divergence control.
    """

    et: EpsilonTransaction
    status: str = ETStatus.COMMITTED
    values: Dict[str, Any] = field(default_factory=dict)
    inconsistency: int = 0
    overlap: Tuple[TransactionID, ...] = ()
    start_time: float = 0.0
    finish_time: float = 0.0
    site: Optional[str] = None
    waits: int = 0

    @property
    def latency(self) -> float:
        """Simulated wall-clock latency of the ET."""
        return self.finish_time - self.start_time

    @property
    def within_bound(self) -> bool:
        """True when observed inconsistency respects the epsilon spec."""
        return self.inconsistency <= self.et.spec.import_limit


def reset_tid_counter() -> None:
    """Restart transaction id generation (test isolation helper)."""
    global _tid_counter
    _tid_counter = itertools.count(1)
