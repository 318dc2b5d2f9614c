"""The simulator's host for the replica-control engines: COMMU, RITU
and ORDUP.

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
from typing import Callable, Dict, List, Optional, Tuple, Type

from ..core.operations import ReadOp
from ..core.transactions import (
    EpsilonTransaction,
    ETResult,
    ETStatus,
    TransactionID,
    UNLIMITED,
)
from ..sim.clocks import CentralOrderServer, GlobalOrder, LamportClock
from ..sim.site import Site
from .base import (
    DoneCallback,
    MethodTraits,
    QueryRunner,
    ReplicaControlMethod,
    ReplicatedSystem,
)
from .common import MethodRuntime
from .engine import (
    CommuLiveEngine,
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

__all__ = [
    "EngineHost",
    "CommutativeOperations",
    "ReadIndependentUpdates",
    "OrderedUpdates",
    "NonCommutativeError",
    "NotReadIndependentError",
]


class EngineHost(ReplicaControlMethod):
    """One ``engine_class`` engine per site.

    An update may wait at its origin (:meth:`_should_throttle`) and is
    launched once it may go; its latency counts from its submission.
    """

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
        self._order = CentralOrderServer()
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
            self._ets[et.tid] = et
            self.runtime.update_submitted(et)
            reads = tuple(op.key for op in et.reads())
            mset = self.engines[origin].make_mset(
                et.tid,
                et.writes(),
                order=order,
                info=(("reads", reads),) if reads else (),
            )
            self.runtime.when_update_complete(
                et.tid, lambda: self._fully_applied(mset)
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
        site = self.system.sites[site_name]
        engine = self.engines[site_name]
        tracker = self.runtime.tracker
        tracker.query_started(et)
        budget = engine.open_query(et.spec, et.keys)

        def admit(key: str):
            read, value = engine.read_key(budget, key)
            if not read:
                return False, None
            site.history.record(
                et.tid, ReadOp(key), site_name, self.system.sim.now, et
            )
            return True, value

        def done(result: ETResult) -> None:
            engine.close_query(budget)
            tracker.query_finished(et.tid)
            # A finished query may unblock export-limited updates.
            self._release_throttled()
            on_done(result)

        return QueryRunner(
            self.system,
            et,
            site,
            admit,
            done,
            inconsistency_of=lambda: len(budget.imported),
            overlap_of=lambda: tuple(tracker.overlap_members(et.tid)),
            on_start=lambda: engine.restart_query(budget),
            on_refused=on_refused,
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
    ``ordering="central"`` an order server at the first site issues
    gap-free numbers, a round trip away (retried until it gets through:
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
