"""COMMU — Commutative Operations (paper section 3.2).

"The idea behind the COMMU replica control method is the use of
operation semantics.  If the final result is equivalent to some serial
execution, then the actual execution order does not matter.  In
essence, we order updates at their completion time."

**MSet delivery** — no ordering restriction at all; MSets ride the
stable queues (needed only because "lost MSets cannot be recovered").

**MSet processing** — commutative update MSets apply asynchronously in
whatever order they arrive.  Submission rejects update ETs whose write
operations are not mutually commutative — that is the method's
operation-semantics restriction (Table 1).

**Divergence bounding** — lock-counters (the paper's device): an update
ET raises the lock-counter of every object it touches at a site from
the moment the site learns of the MSet until the site has applied it;
the *origin's* counters stay raised until the update has applied at
every replica, so origin-site queries see cluster-wide in-flight
inconsistency.  A query read of an object charges its counter once per
update ET currently holding the object's lock-counter; an exhausted
counter makes the query wait for the counters to drain (``waits`` in
the result counts these stalls).

Two variants, both from the paper:

* query-side limiting (default) — updates run freely, queries watch the
  counters ("the query ETs are responsible for determining their own
  inconsistency");
* update throttling (``update_limit``) — "if the lock-counter of an
  object exceeds a specified limit, then the update ET trying to write
  must either wait or abort": origins delay new MSets for hot objects
  until the counter drops.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.operations import Operation, ReadOp, commutes, is_write
from ..core.transactions import (
    EpsilonTransaction,
    ETResult,
    ETStatus,
    TransactionID,
    UNLIMITED,
)
from ..sim.site import Site
from .base import (
    DoneCallback,
    LockCounterSiteState,
    MethodTraits,
    QueryRunner,
    ReplicaControlMethod,
    ReplicatedSystem,
)
from .common import MethodRuntime
from .mset import MSet, MSetKind

__all__ = ["CommutativeOperations", "NonCommutativeError"]


class NonCommutativeError(ValueError):
    """Raised when an update ET's writes are not mutually commutative."""


#: Per-site COMMU state lives in the transport-agnostic
#: :class:`~repro.replica.base.LockCounterSiteState`, shared with the
#: live runtime's COMMU engine.
_SiteState = LockCounterSiteState


class CommutativeOperations(ReplicaControlMethod):
    """COMMU replica control."""

    traits = MethodTraits(
        name="COMMU",
        restriction="operation semantics",
        direction="forward",
        async_update_propagation=True,
        async_query_processing=True,
        sorting_time="doesn't matter",
    )

    def __init__(self, update_limit: float = UNLIMITED) -> None:
        """``update_limit`` enables the throttling variant."""
        self.update_limit = update_limit

    def attach(self, system: ReplicatedSystem) -> None:
        super().attach(system)
        self.runtime = MethodRuntime(len(system.sites))
        self.states: Dict[str, _SiteState] = {
            name: _SiteState() for name in system.sites
        }
        self._ets: Dict[TransactionID, EpsilonTransaction] = {}
        #: origin-side queue of throttled updates per key.
        self._throttled: List[Tuple[EpsilonTransaction, str, DoneCallback]] = []

    # ------------------------------------------------------------------
    # Update path
    # ------------------------------------------------------------------

    @staticmethod
    def check_ops_commutative(
        ops: Sequence[Operation], who: str = "the update"
    ) -> None:
        """Reject operations violating the COMMU operation restriction.

        Reads inside update ETs are rejected too: a read creates R/W
        dependencies that do not commute with concurrent writes
        (Table 3's R_U/W_U cell is "Comm", and reads rarely commute
        with updates), which would break the method's premise that
        MSets can apply in any order.  Use ORDUP for read-modify-write
        updates.  ``who`` names the update in the error.
        """
        if any(op.is_read_op for op in ops):
            raise NonCommutativeError(
                "%s mixes reads into a COMMU update; read-modify-"
                "write updates need ordered execution (ORDUP)" % who
            )
        writes = [op for op in ops if is_write(op)]
        for a, b in itertools.combinations(writes, 2):
            if a.key == b.key and not commutes(a, b):
                raise NonCommutativeError(
                    "operations %r and %r of %s do not commute"
                    % (a, b, who)
                )

    @staticmethod
    def check_commutative(et: EpsilonTransaction) -> None:
        """:meth:`check_ops_commutative` over an ET's operations."""
        CommutativeOperations.check_ops_commutative(
            et.operations, "ET %s" % et.tid
        )

    def submit_update(
        self, et: EpsilonTransaction, origin: str, on_done: DoneCallback
    ) -> None:
        self.check_commutative(et)
        if self._should_throttle(origin, et):
            # Update throttling variant: wait for counters to drop.
            self._throttled.append((et, origin, on_done))
            return
        self._launch_update(et, origin, on_done)

    def _should_throttle(self, origin: str, et: EpsilonTransaction) -> bool:
        if self._exceeds_export_limit(et):
            return True
        if self.update_limit == UNLIMITED:
            return False
        state = self.states[origin]
        return any(
            state.count(key) + 1 > self.update_limit for key in et.write_set
        )

    def _exceeds_export_limit(self, et: EpsilonTransaction) -> bool:
        """Update-side export bounding: defer while too many live
        queries would import this update's intermediate state."""
        limit = et.spec.export_limit
        if limit == UNLIMITED:
            return False
        exposed = self.runtime.tracker.queries_touching(et.write_set)
        return len(exposed) > limit

    def _launch_update(
        self, et: EpsilonTransaction, origin: str, on_done: DoneCallback
    ) -> None:
        self._ets[et.tid] = et
        start = self.system.sim.now
        self.runtime.update_submitted(et)
        keys = tuple(et.write_set)
        # The origin raises lock-counters for the whole propagation span
        # (it is the one site that knows the update is in flight
        # cluster-wide); remote sites raise on MSet receipt.
        self.states[origin].raise_counters(et.tid, keys)
        self.runtime.when_update_complete(
            et.tid, lambda: self._fully_applied(et.tid, origin, keys)
        )
        mset = MSet(et.tid, MSetKind.UPDATE, tuple(et.writes()), origin)
        self._apply_at(self.system.sites[origin], mset, remote=False)
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

    def _fully_applied(
        self, tid: TransactionID, origin: str, keys: Tuple[str, ...]
    ) -> None:
        self.states[origin].release_counters(tid, keys)
        self._release_throttled()

    def _release_throttled(self) -> None:
        if not self._throttled:
            return
        ready = []
        still = []
        for entry in self._throttled:
            et, origin, on_done = entry
            if self._should_throttle(origin, et):
                still.append(entry)
            else:
                ready.append(entry)
        self._throttled = still
        for et, origin, on_done in ready:
            self._launch_update(et, origin, on_done)

    # -- message handling ---------------------------------------------------

    def handle_message(self, site: Site, mset: MSet) -> None:
        if mset.kind != MSetKind.UPDATE:
            raise ValueError("COMMU cannot handle %r" % mset.kind)
        self._apply_at(site, mset, remote=True)

    def _apply_at(self, site: Site, mset: MSet, remote: bool) -> None:
        state = self.states[site.name]
        if remote:
            state.raise_counters(mset.tid, mset.keys)
        executor = self.system.executors[site.name]
        duration = site.config.apply_time * max(len(mset.ops), 1)

        def apply() -> None:
            et = self._ets.get(mset.tid)
            for op in mset.ops:
                site.apply_op(mset.tid, op, et)
            state.note_applied(self.system.sim.now, mset.tid, mset.keys)
            if remote:
                state.release_counters(mset.tid, mset.keys)
            self.runtime.update_applied_at_site(mset.tid)
            self._release_throttled()

        executor.submit(duration, apply, label="commu-%s" % (mset.tid,))

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
            # Inconsistency sources: updates currently holding the
            # key's lock-counter here, plus concurrent updates already
            # applied to the key since the query began (mixed reads).
            sources = state.holders_of(key) | state.applied_since(
                key, query_start[0]
            )
            if not self.runtime.try_charge(et.tid, sources):
                return False, None  # restart after the blockers

            def read():
                value = site.read(et.tid, key)
                site.history.record(
                    et.tid, ReadOp(key), site_name, site.sim.now, et
                )
                return value

            return True, read

        def restart() -> None:
            # Re-serialize the query after the updates that blocked it:
            # a fresh start point clears the mixed-read history.
            query_start[0] = self.system.sim.now

        def done(result: ETResult) -> None:
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
            inconsistency_of=lambda: counter.value,
            overlap_of=lambda: tuple(
                self.runtime.tracker.overlap_members(et.tid)
            ),
            restart_on_block=True,
            on_restart=restart,
        ).start()

    # ------------------------------------------------------------------

    def quiescent(self) -> bool:
        return not self.runtime.in_flight_updates() and not self._throttled
