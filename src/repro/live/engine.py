"""The live-only engines — ORDUP, ROWA and COMPE — and :data:`ENGINES`,
every engine the live server runs.

The engine base and the COMMU and RITU engines are in
:mod:`repro.replica.engine`, shared with the simulator; these subclass
that base and need the live MSet codec for their checkpoints.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..core.operations import Operation
from ..core.transactions import EpsilonSpec
from ..replica.base import OrderedApplyBuffer
from ..replica.engine import (
    _UNBOUND,
    CommuLiveEngine,
    LiveEngine,
    QueryOutcome,
    QueryTimeout,
    RituLiveEngine,
    RituMvLiveEngine,
    _QueryBudget,
)
from ..replica.mset import MSet, MSetKind
from .protocol import decode_mset, decode_ops, encode_mset, encode_ops

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


class OrdupLiveEngine(LiveEngine):
    """ORDUP over real sockets (central ordering).

    Every update acquires a gap-free sequence token from the cluster's
    order server; each site feeds delivered MSets through the shared
    :class:`OrderedApplyBuffer` and applies them in token order.  Free
    queries charge their counter for writers applied beyond the
    query's start frontier; an exhausted counter converts the query to
    ordered mode — an atomic prefix-consistent snapshot read.
    """

    method_name = "ORDUP"
    needs_order = True

    def __init__(self, site, clock=time.monotonic) -> None:
        super().__init__(site, clock)
        self.buffer = OrderedApplyBuffer()
        #: key -> (order token, tid) of the last applied writer.
        self.last_writer: Dict[str, Tuple[Tuple[int, int], Any]] = {}
        #: highest order token applied, gap-free.
        self.frontier: Tuple[int, int] = (0, 0)
        #: highest leadership epoch this engine has adopted; tokens
        #: from older epochs are fenced unless they predate every
        #: newer epoch's handover base.
        self._current_epoch = 0
        #: epoch -> base sequence the epoch's leader resumed from.
        self._epoch_bases: Dict[int, int] = {0: 0}
        #: stale-epoch tokens refused (observability).
        self.fenced_count = 0

    def adopt_epoch(self, epoch: int, base: int) -> None:
        """Record a leadership handover: ``epoch``'s leader resumed at ``base``.

        A plain method like ``accept``: the server adopts an epoch in
        one step, between applies.  Epochs may arrive in any order — a
        restore merges the election record's table into the
        checkpoint's — and an epoch already recorded keeps its base, so
        a merge never loosens the fence.  Purges held-back MSets that the
        handover fences:
        entries above ``base`` carrying an older epoch were granted by
        a deposed leader after the handover point and can never become
        applicable.
        """
        epoch = int(epoch)
        if epoch in self._epoch_bases:
            return
        self._current_epoch = max(self._current_epoch, epoch)
        self._epoch_bases[epoch] = int(base)
        stale = [
            seqno
            for seqno, held in self.buffer._holdback.items()
            if not self._epoch_admits(held.order[1], seqno)
        ]
        for seqno in stale:
            del self.buffer._holdback[seqno]
            self.fenced_count += 1

    def _epoch_admits(self, epoch: int, seq: int) -> bool:
        """Is a ``(seq, epoch)`` token admissible under the fence?

        Current/newer epochs always admit (a newer epoch implies a
        majority elected it; adoption follows via gossip).  An older
        epoch admits only tokens at or below the base of every adopted
        newer epoch — i.e. grants that predate the handover and are
        merely arriving late.
        """
        if epoch >= self._current_epoch:
            return True
        floor = min(
            b for e, b in self._epoch_bases.items() if e > epoch
        )
        return seq <= floor

    def order_admissible(self, order: Tuple[int, int]) -> bool:
        return self._epoch_admits(int(order[1]), int(order[0]))

    def max_order_seen(self) -> int:
        """Highest sequence number durably known here, held-back included.

        A new leader resumes from the max of this across the electing
        majority, so every grant any replica has seen is covered.
        """
        seen = self.frontier[0]
        if self.buffer._holdback:
            seen = max(seen, max(self.buffer._holdback))
        return seen

    def _accept_one(self, mset: MSet, local: bool) -> List[MSet]:
        assert mset.order is not None, "ORDUP MSets carry an order token"
        if not self._epoch_admits(mset.order[1], mset.order[0]):
            # Fenced: granted by a deposed leader past the handover
            # point.  Return no applies; the channel still acks so the
            # sender's queue drains (the update was never client-acked).
            self.fenced_count += 1
            return []
        applied: List[MSet] = []
        for ready in self.buffer.offer(mset.order[0], mset):
            self._apply_ops(ready)
            self.frontier = max(self.frontier, ready.order)
            if ready.keys:
                # Chargeable while it is some key's last writer.
                self._note_drift(ready, pins=len(ready.keys))
            for key in ready.keys:
                displaced = self.last_writer.get(key)
                self.last_writer[key] = (ready.order, ready.tid)
                if displaced is not None:
                    self._unpin(displaced[1])
            applied.append(ready)
        return applied

    def read_now(
        self, keys: Sequence[str], spec: EpsilonSpec
    ) -> Optional[QueryOutcome]:
        # Ordered mode (strict): one atomic snapshot is a prefix of the
        # global update order, hence serializable ("the query ET is
        # allowed to proceed only when it is running in the global
        # order").  A free one-key read cannot see a writer beyond the
        # frontier it starts at.
        if not spec.is_strict and len(keys) != 1:
            return None
        return QueryOutcome({key: self.store.get(key, 0) for key in keys})

    async def query(
        self,
        keys: Sequence[str],
        spec: EpsilonSpec,
        timeout: float = 30.0,
    ) -> QueryOutcome:
        answered = self.read_now(keys, spec)
        if answered is not None:
            return answered
        budget = _QueryBudget(spec)
        values: Dict[str, Any] = {}
        start_frontier = self.frontier
        for index, key in enumerate(keys):
            if index:
                await asyncio.sleep(0)  # let applies interleave
            # An applied writer beyond the query's start frontier is an
            # out-of-order observation.
            writer = self.last_writer.get(key)
            sources: Set[Any] = set()
            if writer is not None and writer[0] > start_frontier:
                sources = {writer[1]}
            if not budget.try_charge(sources, self._drift.get):
                # Counter exhausted: convert to ordered mode, the
                # atomic snapshot of :meth:`read_now`.
                snapshot = {key: self.store.get(key, 0) for key in keys}
                return budget.outcome(snapshot, waits=1)
            values[key] = self.store.get(key, 0)
        return budget.outcome(values)

    def quiescent(self) -> bool:
        return self.buffer.drained()

    def history_entries(self) -> int:
        return len(self.last_writer)

    def _method_checkpoint(self) -> Dict[str, Any]:
        # The apply-buffer position *is* ORDUP's recovery state: the
        # next order token the site may apply, the gap-free frontier,
        # the last writer per key (free-query accounting), and any
        # held-back MSets waiting for an earlier token.
        return {
            "ordup": {
                "expected": self.buffer.expected,
                "frontier": list(self.frontier),
                "last_writer": {
                    key: [list(order), tid]
                    for key, (order, tid) in self.last_writer.items()
                },
                "held": [
                    [seqno, encode_mset(mset)]
                    for seqno, mset in sorted(
                        self.buffer._holdback.items()
                    )
                ],
                "epoch": self._current_epoch,
                "bases": {
                    str(e): b for e, b in self._epoch_bases.items()
                },
            }
        }

    def _method_restore(self, state: Dict[str, Any]) -> None:
        ordup = state.get("ordup", {})
        self.buffer = OrderedApplyBuffer(
            expected=int(ordup.get("expected", 1))
        )
        for seqno, encoded in ordup.get("held", ()):
            self.buffer._holdback[int(seqno)] = decode_mset(encoded)
        frontier = ordup.get("frontier", (0, 0))
        self.frontier = (int(frontier[0]), int(frontier[1]))
        self.last_writer = {
            key: ((int(order[0]), int(order[1])), tid)
            for key, (order, tid) in ordup.get(
                "last_writer", {}
            ).items()
        }
        for _, tid in self.last_writer.values():
            self._restore_pin(state, tid)
        self._current_epoch = int(ordup.get("epoch", 0))
        self._epoch_bases = {
            int(e): int(b)
            for e, b in ordup.get("bases", {"0": 0}).items()
        }
        self._epoch_bases.setdefault(0, 0)

    def stats(self) -> Dict[str, Any]:
        out = super().stats()
        out["frontier"] = list(self.frontier)
        out["held_back"] = self.buffer.held
        out["epoch"] = self._current_epoch
        out["fenced"] = self.fenced_count
        return out


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
