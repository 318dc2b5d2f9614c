"""The simulator's host for the replica-control engines: COMMU, RITU,
ORDUP and COMPE.

:class:`EngineHost` runs one engine (:mod:`repro.replica.engine`) per
site — the classes the live server runs — on the simulated clock.  Each
engine shares its site's store and reads the simulator's clock.  A site
that receives an update MSet (the origin at submission, a peer on
delivery) holds its lock-counters, applies it through the site's
:class:`~repro.replica.base.SiteExecutor` and records every operation
the engine applies in its history; a peer releases the counters after
the apply (the live runtime applies on receipt, so that window is the
simulator's alone).  Once :class:`~repro.replica.common.MethodRuntime`
reports an update applied at every site, every engine hears
``fully_acked_many``.  A query reads one key per
:class:`~repro.replica.base.QueryRunner` step through the engine's
``read_key``, the step its async ``query`` drives too.  An update that
reads (ORDUP's read-modify-report) commits at its origin's apply.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field, replace
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
)

from ..core.operations import ReadOp
from ..core.transactions import (
    EpsilonTransaction,
    ETResult,
    ETStatus,
    TransactionID,
    UNLIMITED,
)
from ..sim.clocks import GlobalOrder, LamportClock
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
from .engine import (
    CommuLiveEngine,
    CompeLiveEngine,
    LiveEngine,
    NonCommutativeError,
    NotReadIndependentError,
    OrdupLiveEngine,
    RituLiveEngine,
    RituMvLiveEngine,
    check_ops_commutative,
    check_ops_read_independent,
)
from .mset import MSet, MSetKind
from .sequencer import Sequencer

__all__ = [
    "EngineHost",
    "CommutativeOperations",
    "ReadIndependentUpdates",
    "OrderedUpdates",
    "CompensationBased",
    "CompensationStats",
    "NonCommutativeError",
    "NotReadIndependentError",
]


class EngineHost(ReplicaControlMethod):
    """One ``engine_class`` engine per site.

    An update may wait at its origin (:meth:`_should_throttle`) and is
    launched once it may go; its latency counts from its submission.
    """

    #: MSets of each update that apply at every site: the update, and
    #: for COMPE its decision.
    copies = 1

    def __init__(self, engine_class: Type[LiveEngine]) -> None:
        self.engine_class = engine_class

    def check(self, et: EpsilonTransaction) -> None:
        """Raise when ``et`` breaks the method's operation restriction
        (ORDUP has none)."""

    def attach(self, system: ReplicatedSystem) -> None:
        super().attach(system)
        self.runtime = MethodRuntime(len(system.sites))
        self.engines: Dict[str, LiveEngine] = {}
        for name, site in system.sites.items():
            engine = self.engine_class(name, clock=lambda: system.sim.now)
            engine.store = site.store
            if isinstance(engine, RituMvLiveEngine):
                # The initial values are transaction 0's versions.
                engine.mvstore = site.mvstore
                for key, value in system.config.initial:
                    site.mvstore.install(key, value, 0)
            self.engines[name] = engine
        #: order tokens, for engines that need one.
        self._order = Sequencer()
        #: the ETs of updates not yet applied at every site.
        self._ets: Dict[TransactionID, EpsilonTransaction] = {}
        #: (et, origin, on_done, submitted at) of each waiting update.
        self._throttled: List[
            Tuple[EpsilonTransaction, str, DoneCallback, float]
        ] = []
        #: (tid, origin) -> (on_done, submitted at) of each update that
        #: reads, until it applies at its origin.
        self._awaiting_reads: Dict[
            Tuple[TransactionID, str], Tuple[DoneCallback, float]
        ] = {}

    # -- update path ---------------------------------------------------------

    def submit_update(
        self, et: EpsilonTransaction, origin: str, on_done: DoneCallback
    ) -> None:
        self.check(et)
        entry = (et, origin, on_done, self.system.sim.now)
        if self._should_throttle(et, origin):
            self._throttled.append(entry)
        else:
            self._launch(*entry)

    def _should_throttle(self, et: EpsilonTransaction, origin: str) -> bool:
        """Must ``et`` wait at ``origin`` for now?  Never, by default."""
        return False

    def _release_throttled(self) -> None:
        """Launch the waiting updates that may go now, oldest first;
        each launch raises counters the next one's check sees."""
        waiting, self._throttled = self._throttled, []
        for entry in waiting:
            if self._should_throttle(entry[0], entry[1]):
                self._throttled.append(entry)
            else:
                self._launch(*entry)

    def _launch(
        self,
        et: EpsilonTransaction,
        origin: str,
        on_done: DoneCallback,
        submitted: float,
    ) -> None:
        def start(order: Optional[GlobalOrder]) -> None:
            reads = tuple(op.key for op in et.reads())
            mset = self._register(
                et, origin, order, info=(("reads", reads),) if reads else ()
            )
            if reads:
                self._awaiting_reads[et.tid, origin] = (on_done, submitted)
            self._send(origin, mset)
            if not reads:
                # Committed at once, timed from submission.
                now = self.system.sim.now
                on_done(ETResult(
                    et, start_time=submitted, finish_time=now, site=origin
                ))

        self._acquire_order(origin, start)

    def _register(
        self,
        et: EpsilonTransaction,
        origin: str,
        order: Optional[GlobalOrder],
        info: Tuple[Tuple[str, Any], ...] = (),
    ) -> MSet:
        """``et``'s update MSet, built by ``origin``'s engine, tracked
        until its :attr:`copies` have applied at every site."""
        self._ets[et.tid] = et
        self.runtime.update_submitted(
            et, copies=self.copies * len(self.system.sites)
        )
        mset = self.engines[origin].make_mset(
            et.tid, et.writes(), order=order, info=info
        )
        self.runtime.when_update_complete(
            et.tid, lambda: self._fully_applied(mset)
        )
        return mset

    def _acquire_order(
        self, origin: str, then: Callable[[Optional[GlobalOrder]], None]
    ) -> None:
        """Hand ``then`` an update's order token (None if its engine
        needs none)."""
        needs = self.engines[origin].needs_order
        then(self._order.next_order() if needs else None)

    def _send(self, origin: str, mset: MSet) -> None:
        """Apply ``mset`` at its origin and queue it to every peer."""
        self._receive(self.system.sites[origin], mset, local=True)
        self.system.broadcast_mset(origin, mset)

    def handle_message(self, site: Site, mset: MSet) -> None:
        if mset.kind != MSetKind.UPDATE:
            raise ValueError(
                "%s cannot handle %r" % (self.traits.name, mset.kind)
            )
        self._receive(site, mset, local=False)

    def _receive(self, site: Site, mset: MSet, local: bool) -> None:
        engine = self.engines[site.name]
        engine.hold_counters(mset)
        held = [(mset.tid, mset.keys)]

        def apply() -> None:
            applied = engine.accept(mset, local=local)
            for each in applied:
                self._record(site, each)
            if not local:
                engine.release_counters(held)
            for each in applied:
                self.runtime.update_applied_at_site(each.tid)
            self._release_throttled()

        duration = site.config.apply_time * max(len(mset.ops), 1)
        self.system.executors[site.name].submit(
            duration, apply, label="apply-%s" % (mset.tid,)
        )

    def _record(self, site: Site, mset: MSet) -> None:
        """Record the apply of ``mset`` in ``site``'s history; at its
        origin an update's reads come first, and it commits."""
        now = self.system.sim.now
        et = self._ets.get(mset.tid)
        waiting = self._awaiting_reads.pop((mset.tid, site.name), None)
        ops = mset.ops if waiting is None else (*et.reads(), *mset.ops)
        for op in ops:
            site.history.record(mset.tid, op, site.name, now, et)
        if waiting is not None:
            on_done, submitted = waiting
            values = self.engines[site.name].pop_read_results(mset.tid)
            on_done(ETResult(
                et, values=values, start_time=submitted,
                finish_time=now, site=site.name,
            ))

    def _fully_applied(self, mset: MSet) -> None:
        held = [(mset.tid, mset.keys)]
        for engine in self.engines.values():
            engine.fully_acked_many(held)
        del self._ets[mset.tid]
        self._release_throttled()

    # -- query path ----------------------------------------------------------

    def submit_query(
        self, et: EpsilonTransaction, site_name: str, on_done: DoneCallback
    ) -> None:
        self._query(et, site_name, on_done).start()

    def _query(
        self,
        et: EpsilonTransaction,
        site_name: str,
        on_done: DoneCallback,
        on_refused: Optional[Callable[[], None]] = None,
    ) -> QueryRunner:
        """A runner for query ``et``, reading through the engine."""

        def done(result: ETResult) -> None:
            # A finished query may unblock export-limited updates.
            self._release_throttled()
            on_done(result)

        site, engine = self.system.sites[site_name], self.engines[site_name]
        tracker = self.runtime.tracker
        return QueryRunner(
            self.system, et, site, engine, tracker, done, on_refused
        )

    def quiescent(self) -> bool:
        return not self.runtime.in_flight_updates() and not self._throttled


class CommutativeOperations(EngineHost):
    """COMMU (§3.2) over :class:`~repro.replica.engine.CommuLiveEngine`.

    Update throttling (§3.2): an update waits at its origin while more
    than its spec's ``export_limit`` running queries touch its write
    set, or while one of its keys' lock-counters there would pass
    ``update_limit``.  By default updates run freely and queries watch
    the lock-counters ("the query ETs are responsible for determining
    their own inconsistency").
    """

    traits = MethodTraits(
        name="COMMU",
        restriction="operation semantics",
        direction="forward",
        async_update_propagation=True,
        async_query_processing=True,
        sorting_time="doesn't matter",
    )
    check_ops_commutative = staticmethod(check_ops_commutative)

    def __init__(self, update_limit: float = UNLIMITED) -> None:
        super().__init__(CommuLiveEngine)
        self.update_limit = update_limit

    def _should_throttle(self, et: EpsilonTransaction, origin: str) -> bool:
        limit = et.spec.export_limit
        if limit != UNLIMITED:
            exposed = self.runtime.tracker.queries_touching(et.write_set)
            if len(exposed) > limit:
                return True
        if self.update_limit == UNLIMITED:
            return False
        state = self.engines[origin].state
        return any(
            state.count(key) + 1 > self.update_limit for key in et.write_set
        )

    @staticmethod
    def check_commutative(et: EpsilonTransaction) -> None:
        """:func:`check_ops_commutative` over an ET's operations."""
        check_ops_commutative(et.operations, "ET %s" % et.tid)

    check = check_commutative


class ReadIndependentUpdates(EngineHost):
    """RITU (§3.3) over :class:`~repro.replica.engine.RituLiveEngine`
    (``versioning="overwrite"``, the Thomas write rule, charged like
    COMMU) or :class:`~repro.replica.engine.RituMvLiveEngine`
    (``"multiversion"``: VTNC-bounded version reads)."""

    traits = MethodTraits(
        name="RITU",
        restriction="operation semantics",
        direction="forward",
        async_update_propagation=True,
        async_query_processing=True,
        sorting_time="at read",
    )
    check_ops_read_independent = staticmethod(check_ops_read_independent)

    def __init__(self, versioning: str = "multiversion") -> None:
        if versioning not in ("overwrite", "multiversion"):
            raise ValueError("versioning must be 'overwrite' or 'multiversion'")
        self.versioning = versioning
        super().__init__(
            RituMvLiveEngine if versioning == "multiversion"
            else RituLiveEngine
        )

    @staticmethod
    def check_read_independent(et: EpsilonTransaction) -> None:
        """:func:`check_ops_read_independent` over an ET's operations."""
        check_ops_read_independent(et.operations, "ET %s" % et.tid)

    check = check_read_independent


_FLUSH_REQ = "ordup-flush-req"
_FLUSH_ACK = "ordup-flush-ack"


@dataclass
class _LamportSite:
    """One site's Lamport delivery layer."""

    clock: LamportClock
    #: peer -> highest clock time witnessed from that peer.
    peer_clocks: Dict[str, int]
    #: delivered update MSets not yet stable, in stamp order.
    held: List[MSet] = field(default_factory=list)
    flush_outstanding: bool = False
    released: int = 0


class OrderedUpdates(EngineHost):
    """ORDUP (§3.1) over :class:`~repro.replica.engine.OrdupLiveEngine`.

    Each update carries an execution-order token.  With
    ``ordering="central"`` the first site's
    :class:`~repro.replica.sequencer.Sequencer` issues gap-free
    numbers, a round trip away (retried until it gets through:
    a partition blocks ordering, E9), and each engine holds an MSet
    back until every earlier one has arrived.  With ``"lamport"`` the
    token is a Lamport stamp and the host delivers over FIFO channels:
    a site holding an unstable MSet asks every peer for its clock (a
    flush), and releases MSets stable at every peer in stamp order, the
    ``k``-th as ``order=(k, 0)``, so an engine never sees a raw stamp
    (it reads ``order[1]`` as the leadership epoch).  A strict query,
    or one whose budget cannot take a read, re-runs in ordered mode:
    one executor task, counted as one wait.
    """

    traits = MethodTraits(
        name="ORDUP",
        restriction="message delivery",
        direction="forward",
        async_update_propagation=False,  # execution order is constrained
        async_query_processing=True,
        sorting_time="at update",
    )

    def __init__(self, ordering: str = "central") -> None:
        if ordering not in ("central", "lamport"):
            raise ValueError("ordering must be 'central' or 'lamport'")
        super().__init__(OrdupLiveEngine)
        self.ordering = ordering

    def attach(self, system: ReplicatedSystem) -> None:
        super().attach(system)
        names = sorted(system.sites)
        self.server_site = names[0]
        self._lamport: Dict[str, _LamportSite] = {}
        if self.ordering == "lamport":
            # Stability needs FIFO: no clock may overtake an older MSet.
            for queue in system.queues.values():
                queue.fifo = True
            self._lamport = {
                name: _LamportSite(
                    LamportClock(i), {p: 0 for p in names if p != name}
                )
                for i, name in enumerate(names)
            }

    def _acquire_order(
        self, origin: str, then: Callable[[Optional[GlobalOrder]], None]
    ) -> None:
        if self.ordering == "lamport":
            then(self._lamport[origin].clock.tick())
            return
        grant, server = super()._acquire_order, self.server_site
        if origin == server:
            return grant(origin, then)
        network, schedule = self.system.network, self.system.sim.schedule
        retry = self.system.config.retry_interval

        def request() -> None:
            network.send(
                origin, server, None,
                on_deliver=lambda _: grant(server, reply),
                on_drop=lambda _: schedule(retry, request),
            )

        def reply(order: Optional[GlobalOrder]) -> None:
            # A token once granted is resent until it gets through.
            network.send(
                server, origin, order,
                on_deliver=then,
                on_drop=lambda _: schedule(retry, lambda: reply(order)),
            )

        request()

    def _send(self, origin: str, mset: MSet) -> None:
        # Remote copies first: FIFO channels carry stamps in order, and
        # a Lamport delivery may emit a flush request at once.
        self.system.broadcast_mset(origin, mset)
        self._deliver(self.system.sites[origin], mset)

    def handle_message(self, site: Site, mset: MSet) -> None:
        if mset.kind == MSetKind.UPDATE:
            self._deliver(site, mset)
        elif mset.kind == _FLUSH_REQ:
            stamp = self._witness(site, mset)
            # Ack before draining, which may emit a higher stamp.
            ack = MSet(0, _FLUSH_ACK, (), site.name, stamp)
            self.system.send_mset(site.name, mset.origin, ack)
            self._drain(site)
        elif mset.kind == _FLUSH_ACK:
            self._witness(site, mset)
            self._lamport[site.name].flush_outstanding = False
            self._drain(site)
        else:
            raise ValueError("ORDUP cannot handle %r" % mset.kind)

    # -- Lamport delivery ----------------------------------------------------

    def _deliver(self, site: Site, mset: MSet) -> None:
        if self.ordering == "central":
            self._receive(site, mset, local=mset.origin == site.name)
            return
        self._witness(site, mset)
        insort(self._lamport[site.name].held, mset, key=lambda m: m.order)
        self._drain(site)

    def _witness(self, site: Site, mset: MSet) -> GlobalOrder:
        """Merge ``mset``'s stamp into ``site``'s clock and its peer's."""
        lamport = self._lamport[site.name]
        stamp = lamport.clock.witness(mset.order)
        if mset.origin != site.name:
            peer = lamport.peer_clocks
            peer[mset.origin] = max(peer[mset.origin], mset.order[0])
        return stamp

    def _drain(self, site: Site) -> None:
        """Release stable MSets; flush while an unstable one is held."""
        lamport = self._lamport[site.name]
        held = lamport.held
        stable = min(lamport.peer_clocks.values(), default=0)
        while held and held[0].order[0] <= stable:
            lamport.released += 1
            mset = replace(held.pop(0), order=(lamport.released, 0))
            self._receive(site, mset, local=mset.origin == site.name)
        if held and not lamport.flush_outstanding:
            lamport.flush_outstanding = True
            stamp = lamport.clock.tick()
            request = MSet(0, _FLUSH_REQ, (), site.name, stamp)
            self.system.broadcast_mset(site.name, request)

    # -- query path ----------------------------------------------------------

    def submit_query(
        self, et: EpsilonTransaction, site_name: str, on_done: DoneCallback
    ) -> None:
        site = self.system.sites[site_name]
        engine = self.engines[site_name]

        def ordered() -> None:
            runner.result.waits += 1
            keys = runner.keys

            def read_all() -> None:
                runner.result.values.update(engine.read_ordered(keys))
                now, record = self.system.sim.now, site.history.record
                for key in keys:
                    record(et.tid, ReadOp(key), site_name, now, et)
                runner.finish(ETStatus.COMMITTED)

            executor = self.system.executors[site_name]
            duration = site.config.read_time * len(keys)
            executor.submit(duration, read_all, "ordup-q%s" % et.tid)

        runner = self._query(et, site_name, on_done, on_refused=ordered)
        if et.spec.is_strict:
            ordered()
        else:
            runner.start()


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


class CompensationBased(EngineHost):
    """COMPE (§4) over :class:`~repro.replica.engine.CompeLiveEngine`.

    An update applies at its origin at once and propagates; its global
    decision follows ``decision_delay`` later as a COMMIT or ABORT MSet,
    sent like any other, on which every engine settles or compensates
    (``will_abort`` stands in for whatever application logic dooms the
    update).  The update stays in query overlaps until its decision has
    settled at every site: each site applies two of its MSets.  Queries
    that finished before an abort cannot be re-charged ("they have left
    the system"): they are counted as *post-hoc inconsistent*, the
    quantity that grows without bound when compensations are unlimited
    (E8).

    Once ``max_compensations`` aborts have happened — the paper's first
    bounding strategy — new updates run pessimistically: they wait for
    their decision, and only a committed one applies, its COMMIT right
    behind it.  ``ordered=True`` runs COMPE over ORDUP (§4.2): updates
    take central order tokens and each site holds an update back until
    every earlier one has arrived.  Saga steps (:meth:`submit_saga`)
    stay undecided, and so chargeable, until the whole saga ends.
    """

    traits = MethodTraits(
        name="COMPE",
        restriction="operation value",
        direction="backward",
        async_update_propagation=True,
        async_query_processing=True,
        sorting_time="N/A",
    )
    copies = 2

    def __init__(
        self,
        decision_delay: float = 10.0,
        max_compensations: Optional[int] = None,
        ordered: bool = False,
    ) -> None:
        """``max_compensations=None`` means no budget (and unbounded
        post-hoc inconsistency).  ``ordered`` is required when updates
        do not commute (§4.2: rollback of the whole log "is the case
        with ORDUP operations"): without an order, optimistic
        application of non-commutative MSets would itself diverge,
        aborts or not."""
        super().__init__(CompeLiveEngine)
        self.decision_delay = decision_delay
        self.max_compensations = max_compensations
        self.ordered = ordered

    def attach(self, system: ReplicatedSystem) -> None:
        super().attach(system)
        #: the host's counters; the compensation ones are the engines'.
        self._counts = CompensationStats()
        self._buffers = {name: OrderedApplyBuffer() for name in system.sites}
        #: updates applied optimistically and not yet decided.
        self._undecided: Set[TransactionID] = set()
        self._aborted: Set[TransactionID] = set()
        #: undecided update -> finished queries that imported it.
        self._importers: Dict[TransactionID, Set[TransactionID]] = {}
        self._post_hoc: Set[TransactionID] = set()

    @property
    def stats(self) -> CompensationStats:
        def total(counter: str) -> int:
            return sum(getattr(e, counter) for e in self.engines.values())

        return replace(
            self._counts,
            direct_compensations=(
                total("compensation_count") - total("rollback_replays")
            ),
            rollback_replays=total("rollback_replays"),
            operations_undone=total("operations_undone"),
            operations_replayed=total("operations_replayed"),
            post_hoc_inconsistent_queries=len(self._post_hoc),
            log_records_reclaimed=total("log_records_reclaimed"),
        )

    def check(self, et: EpsilonTransaction) -> None:
        if any(True for _ in et.reads()):
            raise ValueError(
                "ET %s reads inside a COMPE update; observations cannot "
                "be compensated — use ORDUP for read-modify-write" % et.tid
            )
        for op in et.writes():
            if op.inverse(prior_value=None) is None:
                raise ValueError(
                    "operation %r of ET %s has no compensation" % (op, et.tid)
                )

    # -- update path ---------------------------------------------------------

    def submit_update(
        self,
        et: EpsilonTransaction,
        origin: str,
        on_done: DoneCallback,
        will_abort: bool = False,
    ) -> None:
        """Optimistically run ``et``; ``will_abort`` forces a global
        abort (the workload generator sets it by its abort rate).  With
        the compensation budget spent, the decision comes first, and
        only a committed update runs."""
        self.check(et)
        start = self.system.sim.now
        pessimistic = (
            self.max_compensations is not None
            and self._counts.aborts >= self.max_compensations
        )
        if pessimistic:
            self._counts.pessimistic_updates += 1
        else:
            self._originate(et, origin)

        def decide() -> None:
            if pessimistic and will_abort:
                status = ETStatus.ABORTED  # it never ran anywhere
            else:
                if pessimistic:
                    self._originate(et, origin)
                self._settle(et.tid, origin, will_abort)
                status = (
                    ETStatus.COMPENSATED if will_abort else ETStatus.COMMITTED
                )
            on_done(self._result(et, origin, status, start))

        self.system.sim.schedule(self.decision_delay, decide)

    def _originate(self, et: EpsilonTransaction, origin: str) -> None:
        """Apply ``et`` at ``origin`` and send it, undecided."""
        order = self._order.next_order() if self.ordered else None
        self._undecided.add(et.tid)
        self._send(origin, self._register(et, origin, order))

    def _settle(self, tid: TransactionID, origin: str, abort: bool) -> None:
        """Send ``tid``'s global decision from ``origin`` to every site."""
        self._undecided.discard(tid)
        importers = self._importers.pop(tid, ())
        if abort:
            self._aborted.add(tid)
            self._counts.aborts += 1
            self._post_hoc.update(importers)
        else:
            self._counts.commits += 1
        kind = MSetKind.ABORT if abort else MSetKind.COMMIT
        self._send(origin, MSet(tid, kind, (), origin))

    def _result(
        self, et: EpsilonTransaction, origin: str, status: str, start: float
    ) -> ETResult:
        return ETResult(
            et, status=status, start_time=start,
            finish_time=self.system.sim.now, site=origin,
        )

    def _send(self, origin: str, mset: MSet) -> None:
        self._deliver(self.system.sites[origin], mset)
        self.system.broadcast_mset(origin, mset)

    def handle_message(self, site: Site, mset: MSet) -> None:
        if mset.kind not in (MSetKind.UPDATE, MSetKind.COMMIT, MSetKind.ABORT):
            raise ValueError("COMPE cannot handle %r" % mset.kind)
        self._deliver(site, mset)

    def _deliver(self, site: Site, mset: MSet) -> None:
        """Hand ``mset`` to ``site``'s engine; in ordered mode an update
        waits for every earlier one."""
        ready: Sequence[MSet] = (mset,)
        if mset.order is not None:
            ready = self._buffers[site.name].offer(mset.order[0], mset)
        for each in ready:
            self._receive(site, each, local=each.origin == site.name)

    # -- sagas ---------------------------------------------------------------

    def submit_saga(
        self,
        saga_id: str,
        steps: Sequence[Tuple[EpsilonTransaction, bool]],
        origin: str,
        on_done: Callable[[List[ETResult]], None],
    ) -> None:
        """Run ``steps`` (ET, will_abort) one after another as one saga.

        A step's outcome is known ``decision_delay`` after it starts; a
        step that succeeds stays undecided at every site — its
        potential-compensation charge raised (the paper's 'clearing the
        lock-counters only at the end of the entire saga') — until the
        saga ends, when every step commits.  A failing step aborts, and
        so does every earlier step, newest first (the saga pattern's
        backward recovery), which ends the saga.
        """
        for et, _ in steps:
            self.check(et)
        results: List[ETResult] = []
        succeeded: List[EpsilonTransaction] = []
        schedule = self.system.sim.schedule

        def run(index: int) -> None:
            if index == len(steps):
                for et in succeeded:
                    self._settle(et.tid, origin, abort=False)
                on_done(results)
                return
            et, will_abort = steps[index]
            start = self.system.sim.now
            self._originate(et, origin)

            def outcome() -> None:
                status = (
                    ETStatus.COMPENSATED if will_abort else ETStatus.COMMITTED
                )
                results.append(self._result(et, origin, status, start))
                if will_abort:
                    self._settle(et.tid, origin, abort=True)
                    backward(len(succeeded) - 1)
                else:
                    succeeded.append(et)
                    run(index + 1)

            schedule(self.decision_delay, outcome)

        def backward(index: int) -> None:
            if index < 0:
                on_done(results)
                return
            self._settle(succeeded[index].tid, origin, abort=True)
            apply_time = self.system.config.site.apply_time
            schedule(apply_time, lambda: backward(index - 1))

        run(0)

    # -- query path ----------------------------------------------------------

    def submit_query(
        self, et: EpsilonTransaction, site_name: str, on_done: DoneCallback
    ) -> None:
        def done(result: ETResult) -> None:
            for tid in runner.budget.imported:
                if tid in self._aborted:
                    self._post_hoc.add(et.tid)
                elif tid in self._undecided:
                    self._importers.setdefault(tid, set()).add(et.tid)
            on_done(result)

        runner = self._query(et, site_name, done)
        runner.start()
