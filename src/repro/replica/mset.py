"""MSets: the unit of asynchronous update propagation.

Paper section 2.2: "At each site, an ET is represented by a message set
or MSet. ... An update MSet is a set of replica maintenance operations
which propagates updates to object replicas."  MSets travel in stable
queues and are processed independently by each local system.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Optional, Tuple

from ..core.operations import Operation
from ..core.transactions import EpsilonTransaction, TransactionID
from ..sim.clocks import GlobalOrder

__all__ = ["MSet", "MSetKind"]


class MSetKind:
    """Message kinds exchanged by replica control methods."""

    UPDATE = "update"  #: apply these operations to the local replica
    COMMIT = "commit"  #: backward control: the global update committed
    ABORT = "abort"  #: backward control: compensate the global update
    PREPARE = "prepare"  #: synchronous baselines: 2PC round one
    VOTE = "vote"  #: synchronous baselines: participant reply
    DECISION = "decision"  #: synchronous baselines: 2PC round two


@dataclass(frozen=True)
class MSet:
    """A replica maintenance message.

    Attributes:
        tid: the update ET this MSet belongs to.
        kind: one of :class:`MSetKind`.
        ops: the write operations to apply (empty for control messages).
        origin: site that generated the MSet.
        order: total-order token (ORDUP) or origin timestamp (RITU);
            ``None`` for methods that do not sort.
        txn_number: global transaction number (RITU multiversion VTNC).
        info: method-specific extras (saga id, vote payloads, ...).
    """

    tid: TransactionID
    kind: str = MSetKind.UPDATE
    ops: Tuple[Operation, ...] = ()
    origin: str = ""
    order: Optional[GlobalOrder] = None
    txn_number: Optional[int] = None
    info: Tuple[Tuple[str, Any], ...] = ()

    def get_info(self, key: str, default: Any = None) -> Any:
        for k, v in self.info:
            if k == key:
                return v
        return default

    @cached_property
    def keys(self) -> Tuple[str, ...]:
        """Distinct written keys in first-write order.  Computed once:
        the cache lives in the instance ``__dict__``, outside the
        dataclass fields, so equality, hash and repr do not see it."""
        return tuple(dict.fromkeys(op.key for op in self.ops))
