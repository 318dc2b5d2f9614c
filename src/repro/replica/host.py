"""The simulator's host for the replica-control engines: COMMU and RITU.

:class:`EngineHost` runs one engine (:mod:`repro.replica.engine`) per
site — the classes the live server runs — on the simulated clock.  Each
engine shares its site's store and reads the simulator's clock.  A site
that receives an update MSet (the origin at submission, a peer on
delivery) holds its lock-counters, applies it through the site's
:class:`~repro.replica.base.SiteExecutor` and records every applied
operation in its history; a peer releases the counters after the apply
(the live runtime applies on receipt, so that window is the
simulator's alone).  Once :class:`~repro.replica.common.MethodRuntime`
reports an update applied at every site, every engine hears
``fully_acked_many``.  A query reads one key per
:class:`~repro.replica.base.QueryRunner` step through the engine's
``read_key``, the step its async ``query`` drives too.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Tuple, Type

from ..core.operations import ReadOp
from ..core.transactions import (
    EpsilonTransaction,
    ETResult,
    TransactionID,
    UNLIMITED,
)
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
    "NonCommutativeError",
    "NotReadIndependentError",
]


class EngineHost(ReplicaControlMethod):
    """One ``engine_class`` engine per site.

    An update may wait at its origin (:meth:`_should_throttle`) and is
    launched once it may go; its latency counts from its submission.
    """

    def __init__(self, engine_class: Type[CommuLiveEngine]) -> None:
        self.engine_class = engine_class

    def check(self, et: EpsilonTransaction) -> None:
        """Raise when ``et`` breaks the method's operation restriction."""
        raise NotImplementedError

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
        #: global order tokens, for engines that need one (RITU-MV's
        #: transaction numbers).
        self._order = itertools.count(1)
        self._ets: Dict[TransactionID, EpsilonTransaction] = {}
        #: (et, origin, on_done, submitted at) of each waiting update.
        self._throttled: List[
            Tuple[EpsilonTransaction, str, DoneCallback, float]
        ] = []

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
        self._ets[et.tid] = et
        self.runtime.update_submitted(et)
        engine = self.engines[origin]
        order = (next(self._order), 0) if engine.needs_order else None
        mset = engine.make_mset(et.tid, et.writes(), order=order)
        self.runtime.when_update_complete(
            et.tid, lambda: self._fully_applied(mset)
        )
        self._receive(self.system.sites[origin], mset, local=True)
        self.system.broadcast_mset(origin, mset)
        # Committed at once (the default status), timed from submission.
        now = self.system.sim.now
        on_done(ETResult(
            et, start_time=submitted, finish_time=now, site=origin
        ))

    def handle_message(self, site: Site, mset: MSet) -> None:
        if mset.kind != MSetKind.UPDATE:
            raise ValueError(
                "%s cannot handle %r" % (self.traits.name, mset.kind)
            )
        self._receive(site, mset, local=False)

    def _receive(self, site: Site, mset: MSet, local: bool) -> None:
        engine = self.engines[site.name]
        engine.hold_counters(mset)
        record = site.history.record
        held = [(mset.tid, mset.keys)]

        def apply() -> None:
            now = self.system.sim.now
            for applied in engine.accept(mset, local=local):
                et = self._ets.get(applied.tid)
                for op in applied.ops:
                    record(applied.tid, op, site.name, now, et)
            if not local:
                engine.release_counters(held)
            self.runtime.update_applied_at_site(mset.tid)
            self._release_throttled()

        duration = site.config.apply_time * max(len(mset.ops), 1)
        self.system.executors[site.name].submit(
            duration, apply, label="apply-%s" % (mset.tid,)
        )

    def _fully_applied(self, mset: MSet) -> None:
        held = [(mset.tid, mset.keys)]
        for engine in self.engines.values():
            engine.fully_acked_many(held)
        self._release_throttled()

    # -- query path ----------------------------------------------------------

    def submit_query(
        self, et: EpsilonTransaction, site_name: str, on_done: DoneCallback
    ) -> None:
        site = self.system.sites[site_name]
        engine = self.engines[site_name]
        self.runtime.query_started(et)
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
            self.runtime.query_finished(et)
            # A finished query may unblock export-limited updates.
            self._release_throttled()
            on_done(result)

        QueryRunner(
            self.system,
            et,
            site,
            admit,
            done,
            inconsistency_of=lambda: len(budget.imported),
            overlap_of=lambda: tuple(
                self.runtime.tracker.overlap_members(et.tid)
            ),
            on_start=lambda: engine.restart_query(budget),
        ).start()

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
