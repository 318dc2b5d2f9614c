"""The live-only engines — ROWA and COMPE — and :data:`ENGINES`, every
engine the live server runs.

The engine base and the COMMU, RITU and ORDUP engines are in
:mod:`repro.replica.engine`, shared with the simulator (re-exported
here); ROWA and COMPE subclass COMMU's.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..core.operations import Operation
from ..replica.engine import (
    _UNBOUND,
    CommuLiveEngine,
    LiveEngine,
    OrdupLiveEngine,
    QueryOutcome,
    QueryTimeout,
    RituLiveEngine,
    RituMvLiveEngine,
)
from ..replica.mset import MSet, MSetKind, decode_ops, encode_ops

__all__ = [
    "LiveEngine",
    "CommuLiveEngine",
    "OrdupLiveEngine",
    "RowaLiveEngine",
    "RituLiveEngine",
    "RituMvLiveEngine",
    "CompeLiveEngine",
    "QueryOutcome",
    "QueryTimeout",
    "make_engine",
    "ENGINES",
]


class RowaLiveEngine(CommuLiveEngine):
    """Synchronous write-all baseline (ROWA-style commit).

    Identical MSet processing to COMMU, but the origin's commit
    acknowledgement waits until every peer has durably received the
    MSet — the read-one-write-all coordination cost the asynchronous
    methods avoid.  Used by the live benchmark as the sync baseline.
    """

    method_name = "ROWA"
    sync_commit = True

    def validate_update(self, ops: Sequence[Operation]) -> None:
        # ROWA has no operation-semantics restriction; convergence for
        # non-commutative mixes is the application's concern here.
        pass


class CompeLiveEngine(CommuLiveEngine):
    """COMPE over real sockets: optimistic apply + backward recovery.

    Every update applies (and propagates) *before* its global
    decision.  A COMMIT decision merely retires the obligation; an
    ABORT decision runs **backward recovery** — the update's inverse
    operations apply as a compensating step, and the update is
    reported ``COMPENSATED`` to its client.  At live scale this is the
    saga pattern: a saga's steps are decision-deferred updates, and
    aborting the saga compensates its committed steps in reverse
    submission order.

    The engine keeps no file of its own.  An undo step is derived from
    the update MSet when it is accepted and held until the decision;
    the durable record is the update itself (in the replication log or
    an inbox), and the steps still undecided at a snapshot cut travel
    in the checkpoint (``compe.undo``).  Recovery — checkpoint, then
    the replayed log suffix — rebuilds exactly the same tables.

    Operation restriction (stricter than the simulator's, by design):
    admitted operations must commute *and* have prior-value-
    independent inverses (increment/decrement, multiply/divide,
    append).  That combination makes direct compensation exact in any
    interleaving at every replica — the rollback-and-replay path the
    simulator keeps for the general case is never needed — and makes
    re-deriving an undo step on replay deterministic.

    Queries charge one unit per *undecided* update observed (its
    effects may yet be compensated away), on top of the COMMU
    in-flight accounting.
    """

    method_name = "COMPE"

    def __init__(self, site, clock=time.monotonic) -> None:
        super().__init__(site, clock)
        #: tid -> encoded inverse ops (reverse op order), until decided.
        self._undo: Dict[Any, List[Any]] = {}
        #: optimistically applied updates awaiting their decision.
        self._undecided: Dict[Any, Tuple[str, ...]] = {}
        self._undecided_by_key: Dict[str, Set[Any]] = {}
        #: tid -> "commit" | "abort"; the first decision is final.
        self._decided: Dict[Any, str] = {}
        #: tids undone by backward recovery (COMPENSATED reporting).
        self._compensated: Set[Any] = set()
        #: saga bookkeeping: member tid -> saga id, saga id -> members
        #: in submission order (compensated in reverse).
        self._saga_members: Dict[Any, str] = {}
        self._sagas: Dict[str, List[Any]] = {}
        self.compensation_count = 0
        self.operations_undone = 0

    _compensations_counter = _undecided_gauge = _UNBOUND

    def bind_observability(self, registry: Any, trace: Any) -> None:
        super().bind_observability(registry, trace)
        self._compensations_counter = registry.counter(
            "compensations_total",
            "updates undone by COMPE backward recovery",
        )
        self._undecided_gauge = registry.gauge(
            "compe_undecided_updates",
            "optimistically applied updates awaiting a decision",
        )

    def validate_update(self, ops: Sequence[Operation]) -> None:
        super().validate_update(ops)  # COMMU commutativity restriction
        for op in ops:
            if op.is_read_op:
                raise ValueError(
                    "COMPE updates cannot read: observations cannot be "
                    "compensated — use ORDUP for read-modify-write"
                )
            # Probe with two different priors: an inverse that depends
            # on the overwritten value (WriteOp, multiply-by-zero)
            # would compensate to *different* values at different
            # replicas, so direct compensation would diverge.
            if (
                op.inverse(prior_value=None) is None
                or op.inverse(prior_value=0) != op.inverse(prior_value=1)
            ):
                raise ValueError(
                    "operation %r has no replica-independent "
                    "compensation; COMPE over TCP admits only "
                    "prior-value-independent inverses" % (op,)
                )

    def saga_members(self, saga: str) -> List[Any]:
        """Member tids of one saga, in submission order."""
        return list(self._sagas.get(saga, ()))

    def decision_of(self, tid: Any) -> Optional[str]:
        return self._decided.get(tid)

    def compensated_tids(self) -> List[Any]:
        return sorted(self._compensated)

    # One MSet at a time: an update's undo step and a decision follow
    # each apply.
    _accept_msets = LiveEngine._accept_msets

    def _accept_one(self, mset: MSet, local: bool) -> List[MSet]:
        if mset.kind == MSetKind.UPDATE:
            return self._accept_update(mset, local)
        if mset.kind in (MSetKind.COMMIT, MSetKind.ABORT):
            return self._accept_decision(mset, local)
        return super()._accept_one(mset, local)

    def _accept_update(self, mset: MSet, local: bool) -> List[MSet]:
        applied = super()._accept_one(mset, local)
        tid = mset.tid
        saga = mset.get_info("saga")
        # Derive the undo step BEFORE any decision can arrive: inverse
        # ops in reverse op order.  Inverses of the admitted algebra are
        # prior-value-independent, so recovery replay re-derives the
        # same step from the logged update; the checkpoint carries the
        # steps of updates still undecided at the snapshot cut.
        inverses = [
            op.inverse(prior_value=None) for op in reversed(mset.ops)
        ]
        encoded = encode_ops([op for op in inverses if op is not None])
        self._undo[tid] = encoded
        if saga is not None:
            self._saga_members[tid] = saga
            members = self._sagas.setdefault(saga, [])
            if tid not in members:
                members.append(tid)
        if tid not in self._decided:
            if tid not in self._undecided:
                self._note_drift(mset)  # chargeable until decided
            self._undecided[tid] = mset.keys
            for key in mset.keys:
                self._undecided_by_key.setdefault(key, set()).add(tid)
        elif (
            self._decided[tid] == "abort"
            and tid not in self._compensated
        ):
            # The ABORT decision outran this update: decisions are
            # emitted by whichever site decides the saga, so a third
            # replica can hear the verdict (on the decider's channel)
            # before the update itself (on its origin's channel).
            # Compensate on delivery — the net effect is zero and the
            # tables end exactly as if the update had arrived first.
            self._compensate(tid, encoded, late=True)
            self._undo.pop(tid, None)
        self._undecided_gauge.set(len(self._undecided))
        return applied

    def _compensate(self, tid: Any, encoded: List[Any], **how: Any) -> None:
        """Backward recovery: apply ``tid``'s recorded inverse ops."""
        ops = decode_ops(encoded)
        self.store.apply_many(ops)
        self._compensated.add(tid)
        self.compensation_count += 1
        self.operations_undone += len(ops)
        self._compensations_counter.inc()
        self.trace.event("compensate", tid=tid, ops=len(ops), **how)

    def _accept_decision(self, mset: MSet, local: bool) -> List[MSet]:
        target = mset.get_info("decides", mset.tid)
        outcome = "abort" if mset.kind == MSetKind.ABORT else "commit"
        if target in self._decided:
            # Duplicate (recovery replay, or a second decider): the
            # first decision a tid sees is final everywhere, so state
            # is untouched — replaying decisions is idempotent.
            return []
        self._decided[target] = outcome
        if target in self._undecided:
            self._unpin(target)
        keys = self._undecided.pop(target, ())
        for key in keys:
            holders = self._undecided_by_key.get(key)
            if holders is not None:
                holders.discard(target)
                if not holders:
                    del self._undecided_by_key[key]
        self._wake(keys)  # decided: no longer a source on its keys
        if outcome == "abort":
            encoded = self._undo.get(target)
            if encoded is None:
                # The decision outran its update (they may travel on
                # different channels when a third site decided the
                # saga).  Only the verdict is recorded here; the
                # update's own delivery sees it and compensates then.
                self.trace.event("compensate-pending", tid=target)
            else:
                self._compensate(target, encoded)
                # The compensation is itself a state change queries
                # may observe mid-flight: charge it like any applied
                # update.
                if self._query_starts:
                    self._pin(mset.tid)
                    self.state.note_applied(self.clock(), mset.tid, keys)
        # Decided tids never need their undo step again (duplicates
        # are dropped above), so the tables stay bounded.
        self._undo.pop(target, None)
        self.applied_count += 1
        self.last_applied_at = self.clock()
        self._undecided_gauge.set(len(self._undecided))
        return [mset]

    def _query_sources(self, key: str, start: float) -> Set[Any]:
        sources = super()._query_sources(key, start)
        undecided = self._undecided_by_key.get(key)
        if undecided:
            sources = sources | undecided
        return sources

    def _method_checkpoint(self) -> Dict[str, Any]:
        return {
            "compe": {
                "undo": dict(self._undo),
                "undecided": {
                    tid: list(keys)
                    for tid, keys in self._undecided.items()
                },
                "decided": dict(self._decided),
                "compensated": sorted(self._compensated),
                "sagas": {s: list(t) for s, t in self._sagas.items()},
                "members": dict(self._saga_members),
                "compensations": self.compensation_count,
                "operations_undone": self.operations_undone,
            }
        }

    def _method_restore(self, state: Dict[str, Any]) -> None:
        super()._method_restore(state)
        compe = state.get("compe", {})
        self._undo = dict(compe.get("undo", {}))
        self._undecided = {
            tid: tuple(keys)
            for tid, keys in dict(compe.get("undecided", {})).items()
        }
        self._undecided_by_key = {}
        for tid, keys in self._undecided.items():
            self._restore_pin(state, tid)
            for key in keys:
                self._undecided_by_key.setdefault(key, set()).add(tid)
        self._decided = dict(compe.get("decided", {}))
        self._compensated = set(compe.get("compensated", ()))
        self._sagas = {
            s: list(t) for s, t in dict(compe.get("sagas", {})).items()
        }
        self._saga_members = dict(compe.get("members", {}))
        self.compensation_count = int(compe.get("compensations", 0))
        self.operations_undone = int(compe.get("operations_undone", 0))
        self._undecided_gauge.set(len(self._undecided))

    def stats(self) -> Dict[str, Any]:
        out = super().stats()
        out["undecided"] = len(self._undecided)
        out["compensations"] = self.compensation_count
        out["operations_undone"] = self.operations_undone
        return out


ENGINES = {
    "commu": CommuLiveEngine,
    "ordup": OrdupLiveEngine,
    "rowa": RowaLiveEngine,
    "ritu": RituLiveEngine,
    "ritu-mv": RituMvLiveEngine,
    "compe": CompeLiveEngine,
}


def make_engine(method: str, site: str) -> LiveEngine:
    try:
        factory = ENGINES[method.lower()]
    except KeyError:
        raise ValueError(
            "unknown live method %r (have: %s)"
            % (method, ", ".join(sorted(ENGINES)))
        ) from None
    return factory(site)
