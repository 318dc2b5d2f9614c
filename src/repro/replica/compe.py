"""COMPE — Compensation-based backward replica control (paper section 4).

Forward methods assume the update ET has committed before propagation.
COMPE instead lets sites run MSets *before* the global update commits
("for performance reasons, the system may start running MSets before
the global update is committed") and repairs with compensation when the
global update aborts.  Only operations that publish an inverse may run
under COMPE.

**MSet processing** — optimistic: a site applies an update MSet through
its operation log as soon as it arrives, recording undo information
(including overwritten values, section 4.2).  The site "must remember
the executed MSets until there is no risk of rollback" — the log is
truncated only after the global decision arrives.

**Compensation MSet delivery** — on a global abort each site compensates:

* if the log suffix after the aborted update commutes with its undo,
  the compensation applies directly (COMMU/RITU-style logs);
* otherwise the site performs the general Time-Warp-style
  rollback-and-replay of section 4.1 (the ``Inc/Mul`` worked example).

**Divergence bounding** — queries are charged conservatively for every
*undecided* update touching the keys they read (its compensation is
still possible: the paper's "take into account the number of potential
compensations when running query ETs"), plus COMMU-style mixed-read
charges for decided updates.  Because charging is conservative, an
actual compensation never surprises an active query.  Queries that
already finished cannot be re-charged ("they have left the system");
the method records them as *post-hoc inconsistent* — the quantity that
grows without bound when compensations are unlimited, reproduced by
benchmark E8.

A compensation budget (``max_compensations``) implements the paper's
first bounding strategy: once exhausted, new updates run pessimistically
(the site waits for the global decision before applying), so no further
after-the-fact inconsistency can be created.

Sagas (section 4.2): steps submitted through :meth:`submit_saga` keep
their "potential compensation" charge raised until the whole saga ends,
giving queries the conservative upper bound the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..core.operations import ReadOp
from ..core.transactions import (
    EpsilonTransaction,
    ETResult,
    ETStatus,
    TransactionID,
)
from ..sim.site import Site
from .base import (
    DoneCallback,
    MethodTraits,
    OrderedApplyBuffer,
    QueryRunner,
    ReplicaControlMethod,
    ReplicatedSystem,
)
from .common import MethodRuntime
from .mset import MSet, MSetKind

__all__ = ["CompensationBased", "CompensationStats"]


@dataclass
class CompensationStats:
    """Counters reported by benchmark E8."""

    commits: int = 0
    aborts: int = 0
    direct_compensations: int = 0
    rollback_replays: int = 0
    operations_undone: int = 0
    operations_replayed: int = 0
    #: finished queries later found to have imported aborted updates.
    post_hoc_inconsistent_queries: int = 0
    pessimistic_updates: int = 0
    #: log records reclaimed once rollback risk expired (§4: "remember
    #: the executed MSets until there is no risk of rollback").
    log_records_reclaimed: int = 0


@dataclass
class _SiteState:
    """Per-site COMPE bookkeeping."""

    #: key -> undecided update tids applied (or arriving) here.
    undecided: Dict[str, Set[TransactionID]] = field(default_factory=dict)
    #: decided-update mixed-read history (COMMU-style).
    applied: Dict[str, List[Tuple[float, TransactionID]]] = field(
        default_factory=dict
    )
    #: aborts processed before their update MSet arrived: when the
    #: update finally shows up it must be discarded, not applied.
    dropped: Set[TransactionID] = field(default_factory=set)
    #: commits processed before their update MSet arrived (settled once
    #: the update applies).
    pending_commits: Set[TransactionID] = field(default_factory=set)
    #: ordered mode: the hold-back buffer.
    buffer: OrderedApplyBuffer = field(default_factory=OrderedApplyBuffer)

    def mark_undecided(self, tid: TransactionID, keys: Tuple[str, ...]) -> None:
        for key in keys:
            self.undecided.setdefault(key, set()).add(tid)

    def mark_decided(self, tid: TransactionID, keys: Tuple[str, ...]) -> None:
        for key in keys:
            held = self.undecided.get(key)
            if held is not None:
                held.discard(tid)
                if not held:
                    self.undecided.pop(key, None)

    def undecided_on(self, key: str) -> Set[TransactionID]:
        return set(self.undecided.get(key, ()))

    def note_applied(
        self, time: float, tid: TransactionID, keys: Tuple[str, ...]
    ) -> None:
        for key in keys:
            self.applied.setdefault(key, []).append((time, tid))

    def applied_since(self, key: str, start: float) -> Set[TransactionID]:
        return {tid for t, tid in self.applied.get(key, ()) if t > start}


class CompensationBased(ReplicaControlMethod):
    """COMPE replica control."""

    traits = MethodTraits(
        name="COMPE",
        restriction="operation value",
        direction="backward",
        async_update_propagation=True,
        async_query_processing=True,
        sorting_time="N/A",
    )

    def __init__(
        self,
        decision_delay: float = 10.0,
        max_compensations: Optional[int] = None,
        ordered: bool = False,
    ) -> None:
        """Args:
            decision_delay: simulated time between optimistic submission
                and the global commit/abort decision.
            max_compensations: the paper's compensation budget; ``None``
                means unlimited (and unbounded post-hoc inconsistency).
            ordered: process update MSets in one global order (COMPE
                over ORDUP).  Required when update operations are not
                mutually commutative — section 4.2: unconstrained MSet
                processing with rollback of the whole log "is the case
                with ORDUP operations"; without an order, optimistic
                application of non-commutative MSets would itself
                diverge, aborts or not.
        """
        self.decision_delay = decision_delay
        self.max_compensations = max_compensations
        self.ordered = ordered
        self._order_counter = 0

    def attach(self, system: ReplicatedSystem) -> None:
        super().attach(system)
        self.runtime = MethodRuntime(len(system.sites))
        self.states: Dict[str, _SiteState] = {
            name: _SiteState() for name in system.sites
        }
        self.stats = CompensationStats()
        self._ets: Dict[TransactionID, EpsilonTransaction] = {}
        self._aborted: Set[TransactionID] = set()
        self._decided: Set[TransactionID] = set()
        #: finished queries' imported-update sets, for the post-hoc
        #: inconsistency statistic ("they have left the system").
        self._finished_imports: Dict[TransactionID, Set[TransactionID]] = {}
        self._post_hoc_counted: Set[TransactionID] = set()
        #: tids whose decision is deferred to a saga's end.
        self._saga_members: Dict[TransactionID, str] = {}
        self._undecided_count = 0

    # ------------------------------------------------------------------
    # Update path
    # ------------------------------------------------------------------

    def _check_compensatable(self, et: EpsilonTransaction) -> None:
        if any(True for _ in et.reads()):
            raise ValueError(
                "ET %s reads inside a COMPE update; observations cannot "
                "be compensated — use ORDUP for read-modify-write" % et.tid
            )
        for op in et.writes():
            probe = op.inverse(prior_value=None)
            if probe is None:
                raise ValueError(
                    "operation %r of ET %s has no compensation" % (op, et.tid)
                )

    def submit_update(
        self,
        et: EpsilonTransaction,
        origin: str,
        on_done: DoneCallback,
        will_abort: bool = False,
    ) -> None:
        """Optimistically run ``et``; ``will_abort`` forces a global abort.

        ``will_abort`` stands in for whatever application/validation
        logic dooms the global update; the workload generator sets it
        according to its abort rate.
        """
        self._check_compensatable(et)
        self._ets[et.tid] = et
        start = self.system.sim.now
        if self._budget_exhausted():
            self._submit_pessimistic(et, origin, on_done, will_abort, start)
            return
        # Lifetime spans one application *and* one decision settlement
        # per replica: a site keeps charging queries for this update
        # until its local settle runs, so the update must stay in query
        # overlaps until the last settle — otherwise the overlap bound
        # (error <= overlap) would not hold for the counters.
        self.runtime.update_submitted(et, copies=2 * len(self.system.sites))
        self._undecided_count += 1
        order = None
        if self.ordered:
            self._order_counter += 1
            order = (self._order_counter, 0)
        mset = MSet(et.tid, MSetKind.UPDATE, tuple(et.writes()), origin, order)
        for state in self.states.values():
            # Conservative potential-compensation charge is visible at
            # every site as soon as the update is in flight.
            state.mark_undecided(et.tid, et.write_set)
        self._apply_at(self.system.sites[origin], mset)
        self.system.broadcast_mset(origin, mset)

        def decide() -> None:
            self._decide(et, origin, will_abort, on_done, start)

        if et.tid not in self._saga_members:
            self.system.sim.schedule(self.decision_delay, decide)

    def _note_abort(self, tid: TransactionID) -> None:
        """Record a compensation-causing abort and its fallout.

        Finished queries that imported this update become post-hoc
        inconsistent — the paper's "much harder" case, since those
        queries have already left the system.
        """
        self._aborted.add(tid)
        self.stats.aborts += 1
        for qtid, imported in self._finished_imports.items():
            if tid in imported and qtid not in self._post_hoc_counted:
                self._post_hoc_counted.add(qtid)
                self.stats.post_hoc_inconsistent_queries += 1

    def _budget_exhausted(self) -> bool:
        return (
            self.max_compensations is not None
            and self.stats.aborts >= self.max_compensations
        )

    def _submit_pessimistic(
        self,
        et: EpsilonTransaction,
        origin: str,
        on_done: DoneCallback,
        will_abort: bool,
        start: float,
    ) -> None:
        """Compensation budget exhausted: wait for the decision first."""
        self.stats.pessimistic_updates += 1

        def decide() -> None:
            if will_abort:
                self.stats.commits += 0  # aborted before any effect
                self._decided.add(et.tid)
                self._aborted.add(et.tid)
                on_done(
                    ETResult(
                        et,
                        status=ETStatus.ABORTED,
                        start_time=start,
                        finish_time=self.system.sim.now,
                        site=origin,
                    )
                )
                return
            self.runtime.update_submitted(et)
            self._decided.add(et.tid)
            self.stats.commits += 1
            order = None
            if self.ordered:
                self._order_counter += 1
                order = (self._order_counter, 0)
            mset = MSet(
                et.tid, MSetKind.UPDATE, tuple(et.writes()), origin, order
            )
            self._apply_at(self.system.sites[origin], mset)
            self.system.broadcast_mset(origin, mset)
            on_done(
                ETResult(
                    et,
                    status=ETStatus.COMMITTED,
                    start_time=start,
                    finish_time=self.system.sim.now,
                    site=origin,
                )
            )

        self.system.sim.schedule(self.decision_delay, decide)

    def _decide(
        self,
        et: EpsilonTransaction,
        origin: str,
        will_abort: bool,
        on_done: DoneCallback,
        start: float,
    ) -> None:
        """The global outcome arrives; broadcast it to every replica."""
        self._undecided_count -= 1
        self._decided.add(et.tid)
        kind = MSetKind.ABORT if will_abort else MSetKind.COMMIT
        if will_abort:
            self._note_abort(et.tid)
        else:
            self.stats.commits += 1
        decision = MSet(et.tid, kind, (), origin)
        self._handle_decision(self.system.sites[origin], decision)
        self.system.broadcast_mset(origin, decision)
        on_done(
            ETResult(
                et,
                status=(
                    ETStatus.COMPENSATED if will_abort else ETStatus.COMMITTED
                ),
                start_time=start,
                finish_time=self.system.sim.now,
                site=origin,
            )
        )

    # -- message handling ---------------------------------------------------

    def handle_message(self, site: Site, mset: MSet) -> None:
        if mset.kind == MSetKind.UPDATE:
            self._apply_at(site, mset)
        elif mset.kind in (MSetKind.COMMIT, MSetKind.ABORT):
            self._handle_decision(site, mset)
        else:
            raise ValueError("COMPE cannot handle %r" % mset.kind)

    def _apply_at(self, site: Site, mset: MSet) -> None:
        state = self.states[site.name]
        if self.ordered and mset.order is not None:
            # COMPE over ORDUP: hold back until the MSet's turn.
            for ready in state.buffer.offer(mset.order[0], mset):
                self._schedule_apply(site, ready)
            return
        self._schedule_apply(site, mset)

    def _schedule_apply(self, site: Site, mset: MSet) -> None:
        executor = self.system.executors[site.name]
        state = self.states[site.name]
        duration = site.config.apply_time * max(len(mset.ops), 1)

        def apply() -> None:
            if mset.tid in state.dropped:
                # The global abort overtook this MSet; discard it.
                state.dropped.discard(mset.tid)
                self.runtime.update_applied_at_site(mset.tid)
                return
            et = self._ets.get(mset.tid)
            for op in mset.ops:
                # logged=True records undo info for compensation.
                site.apply_op(mset.tid, op, et, logged=True)
            self.runtime.update_applied_at_site(mset.tid)
            if mset.tid in state.pending_commits:
                # The commit decision overtook the update; settle now.
                state.pending_commits.discard(mset.tid)
                keys = et.write_set if et is not None else ()
                state.note_applied(self.system.sim.now, mset.tid, keys)
                if mset.tid not in self._saga_members:
                    state.mark_decided(mset.tid, keys)
                self.runtime.update_applied_at_site(mset.tid)

        executor.submit(duration, apply, label="compe-%s" % (mset.tid,))

    def _handle_decision(self, site: Site, mset: MSet) -> None:
        executor = self.system.executors[site.name]
        state = self.states[site.name]
        et = self._ets.get(mset.tid)
        keys = et.write_set if et is not None else ()

        def settle() -> None:
            if mset.kind == MSetKind.COMMIT:
                if not site.oplog.records_of(mset.tid):
                    # Commit decision overtook the update MSet; settle
                    # once the update actually applies here.
                    state.pending_commits.add(mset.tid)
                    return
                state.note_applied(self.system.sim.now, mset.tid, keys)
                if mset.tid not in self._saga_members:
                    # Saga steps keep their potential-compensation
                    # charge raised until the whole saga ends (§4.2).
                    state.mark_decided(mset.tid, keys)
                self.runtime.update_applied_at_site(mset.tid)
                return
            # Abort: compensate.  The executor serializes this with MSet
            # application, so the log is stable while we repair it.
            if not site.oplog.records_of(mset.tid):
                # The update MSet has not been applied here yet (it is
                # still in flight); drop it on arrival instead.
                state.dropped.add(mset.tid)
                self._aborted.add(mset.tid)
                state.mark_decided(mset.tid, keys)
                self.runtime.update_applied_at_site(mset.tid)
                return
            if site.oplog.can_compensate_directly(mset.tid):
                applied = site.oplog.compensate_directly(mset.tid)
                self.stats.direct_compensations += 1
                self.stats.operations_undone += applied
            else:
                undone, replayed = site.oplog.rollback_and_replay(mset.tid)
                self.stats.rollback_replays += 1
                self.stats.operations_undone += undone
                self.stats.operations_replayed += replayed
            state.mark_decided(mset.tid, keys)
            self.runtime.update_applied_at_site(mset.tid)

        def settle_and_gc() -> None:
            settle()
            self._gc_log(site)

        # Decisions queue behind pending applications so an abort never
        # races ahead of its own update MSet within one site.
        executor.submit(
            site.config.apply_time, settle_and_gc, label="compe-dec"
        )

    def _gc_log(self, site: Site) -> None:
        """Reclaim log records no undecided update could roll back.

        Rollback-and-replay of T undoes everything from T's first
        record onward, so records below the low-water mark of the
        updates still *locally unsettled* can never be touched again
        and are dropped.  The at-risk set must be per-site (the local
        ``undecided`` marks), not the global decided set: a decision
        exists globally the instant the coordinator makes it, but this
        site's log must keep the records until the decision's settle
        action actually runs here.  Saga steps stay watch-listed until
        their saga concludes.
        """
        state = self.states[site.name]
        at_risk: Set[TransactionID] = set()
        for holders in state.undecided.values():
            at_risk.update(holders)
        at_risk.update(state.pending_commits)
        at_risk.update(self._saga_members)
        mark = site.oplog.low_water_mark(at_risk)
        self.stats.log_records_reclaimed += site.oplog.truncate_before(mark)

    # ------------------------------------------------------------------
    # Saga support
    # ------------------------------------------------------------------

    def submit_saga(
        self,
        saga_id: str,
        steps: Sequence[Tuple[EpsilonTransaction, bool]],
        origin: str,
        on_done: Callable[[List[ETResult]], None],
    ) -> None:
        """Run ``steps`` (ET, will_abort) sequentially as one saga.

        Each step's potential-compensation charge stays raised until the
        saga finishes; a failing step compensates all earlier steps (the
        classic saga pattern) and ends the saga.
        """
        results: List[ETResult] = []
        committed: List[EpsilonTransaction] = []
        for et, _ in steps:
            self._saga_members[et.tid] = saga_id

        def run(index: int) -> None:
            if index >= len(steps):
                conclude(aborting=False)
                return
            et, will_abort = steps[index]

            def step_done(result: ETResult) -> None:
                results.append(result)
                if result.status == ETStatus.COMMITTED:
                    committed.append(et)
                    run(index + 1)
                else:
                    backward(len(committed) - 1)

            self.submit_update(et, origin, step_done, will_abort=False)
            # Saga steps are decided by the saga, not a timer; decide
            # this step now-ish to keep the pipeline moving.
            self.system.sim.schedule(
                self.decision_delay,
                lambda: self._decide(
                    et, origin, will_abort, step_done, self.system.sim.now
                ),
            )

        def backward(index: int) -> None:
            if index < 0:
                conclude(aborting=True)
                return
            et = committed[index]
            decision = MSet(et.tid, MSetKind.ABORT, (), origin)
            self._note_abort(et.tid)
            self._handle_decision(self.system.sites[origin], decision)
            self.system.broadcast_mset(origin, decision)
            self.system.sim.schedule(
                self.system.config.site.apply_time,
                lambda: backward(index - 1),
            )

        def conclude(aborting: bool) -> None:
            # Saga over: release every step's retained charge at every
            # site (the paper's 'clearing the lock-counters only at the
            # end of the entire saga').  Aborted steps are left alone —
            # their in-flight ABORT settles clear the marks per site,
            # and clearing early would let the log GC reclaim records
            # the compensation still needs.
            for et, _ in steps:
                self._saga_members.pop(et.tid, None)
                if et.tid in self._aborted:
                    continue
                for state in self.states.values():
                    state.mark_decided(et.tid, et.write_set)
            on_done(results)

        run(0)

    # ------------------------------------------------------------------
    # Query path
    # ------------------------------------------------------------------

    def submit_query(
        self, et: EpsilonTransaction, site_name: str, on_done: DoneCallback
    ) -> None:
        site = self.system.sites[site_name]
        state = self.states[site_name]
        counter = self.runtime.query_started(et)
        query_start = [self.system.sim.now]

        def admit(key: str):
            sources = state.undecided_on(key) | state.applied_since(
                key, query_start[0]
            )
            if not self.runtime.try_charge(et.tid, sources):
                return False, None
            site.history.record(
                et.tid, ReadOp(key), site_name, site.sim.now, et
            )
            return True, site.read(et.tid, key)

        def start() -> None:
            query_start[0] = self.system.sim.now

        def done(result: ETResult) -> None:
            self.runtime.query_finished(et)
            if counter.imported:
                self._finished_imports[et.tid] = set(counter.imported)
                if counter.imported & self._aborted:
                    self._post_hoc_counted.add(et.tid)
                    self.stats.post_hoc_inconsistent_queries += 1
            on_done(result)

        QueryRunner(
            self.system,
            et,
            site,
            admit,
            done,
            inconsistency_of=lambda: counter.value,
            overlap_of=lambda: tuple(
                self.runtime.tracker.overlap_members(et.tid)
            ),
            on_start=start,
        ).start()

    # ------------------------------------------------------------------

    def quiescent(self) -> bool:
        if self.runtime.in_flight_updates():
            return False
        if any(state.buffer.held for state in self.states.values()):
            return False
        return self._undecided_count == 0
