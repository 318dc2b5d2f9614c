"""RITU — Read-Independent Timestamped Updates (paper section 3.3).

"The RITU replica control method also uses update operation semantics,
but postpones access ordering to subsequent read time.  If updates do
not have R/W dependencies, they can be executed asynchronously."

Updates must be **read-independent** (blind writes): each write carries
an origin timestamp (a Lamport stamp), so replicas can apply MSets in
any arrival order and still converge:

* ``versioning="overwrite"`` (single version) — the Thomas write rule:
  a write older than the installed version is ignored.  "There is no
  divergence since by definition all the reads request the latest
  version. RITU reduces to COMMU" — queries are charged like COMMU.

* ``versioning="multiversion"`` — every update installs an immutable
  version tagged with a global transaction number; a per-site **VTNC**
  (visible transaction number counter, the Modular Synchronization
  Method) marks the highest number below which all versions have
  arrived.  Reads at or below the VTNC are SR and free; reading a newer
  version charges the query's inconsistency counter once per version's
  writer, and an exhausted counter silently degrades the read to the
  newest *visible* version ("not allowing reading versions that are
  newer than VTNC, when its inconsistency counter has reached a
  specified limit").
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.operations import Operation, ReadOp, TimestampedWriteOp, is_write
from ..core.transactions import (
    EpsilonTransaction,
    ETResult,
    ETStatus,
    TransactionID,
)
from ..sim.clocks import LamportClock
from ..sim.site import Site
from ..storage.mvstore import NoVisibleVersion
from .base import (
    DoneCallback,
    MethodTraits,
    QueryRunner,
    ReplicaControlMethod,
    ReplicatedSystem,
)
from .common import MethodRuntime
from .mset import MSet, MSetKind

__all__ = ["ReadIndependentUpdates", "NotReadIndependentError"]


class NotReadIndependentError(ValueError):
    """Raised when an update ET contains non-blind writes."""


@dataclass
class _SiteState:
    """Per-site RITU state (multiversion watermarking)."""

    #: transaction numbers applied at this site.
    applied_numbers: Set[int] = field(default_factory=set)
    #: contiguous frontier: all numbers <= vtnc have been applied.
    vtnc: int = 0
    #: overwrite mode: COMMU-style applied history for mixed reads.
    applied: Dict[str, List[Tuple[float, TransactionID]]] = field(
        default_factory=dict
    )

    def note_number(self, txn_number: int) -> None:
        self.applied_numbers.add(txn_number)
        while (self.vtnc + 1) in self.applied_numbers:
            self.vtnc += 1
            self.applied_numbers.discard(self.vtnc)

    def note_applied(
        self, time: float, tid: TransactionID, keys: Tuple[str, ...]
    ) -> None:
        for key in keys:
            self.applied.setdefault(key, []).append((time, tid))

    def applied_since(self, key: str, start: float) -> Set[TransactionID]:
        return {tid for t, tid in self.applied.get(key, ()) if t > start}


class ReadIndependentUpdates(ReplicaControlMethod):
    """RITU replica control."""

    traits = MethodTraits(
        name="RITU",
        restriction="operation semantics",
        direction="forward",
        async_update_propagation=True,
        async_query_processing=True,
        sorting_time="at read",
    )

    def __init__(self, versioning: str = "multiversion") -> None:
        if versioning not in ("overwrite", "multiversion"):
            raise ValueError("versioning must be 'overwrite' or 'multiversion'")
        self.versioning = versioning

    def attach(self, system: ReplicatedSystem) -> None:
        super().attach(system)
        names = sorted(system.sites)
        self.runtime = MethodRuntime(len(names))
        self.clocks = {name: LamportClock(i) for i, name in enumerate(names)}
        self.states: Dict[str, _SiteState] = {
            name: _SiteState() for name in names
        }
        #: global transaction numbers (Modular Synchronization Method).
        self._txn_numbers = itertools.count(1)
        self._ets: Dict[TransactionID, EpsilonTransaction] = {}
        # Preload initial values as transaction number 0 versions.
        if self.versioning == "multiversion":
            for name, site in system.sites.items():
                for key, value in system.config.initial:
                    site.mvstore.install(key, value, 0)

    # ------------------------------------------------------------------
    # Update path
    # ------------------------------------------------------------------

    @staticmethod
    def check_ops_read_independent(
        ops: Sequence[Operation], who: str = "the update"
    ) -> None:
        """Reject operations whose writes depend on reads (non-blind).

        Reads inside update ETs are rejected outright: RITU's whole
        premise is that updates have no R/W dependencies ("blind
        writes"); an update that reads is not read-independent.
        ``who`` names the update in the error.
        """
        if any(op.is_read_op for op in ops):
            raise NotReadIndependentError(
                "%s reads inside a RITU update; RITU updates must "
                "be blind (read-independent)" % who
            )
        for op in ops:
            if is_write(op) and not op.read_independent:
                raise NotReadIndependentError(
                    "operation %r of %s is not read-independent"
                    % (op, who)
                )

    @staticmethod
    def check_read_independent(et: EpsilonTransaction) -> None:
        """:meth:`check_ops_read_independent` over an ET's operations."""
        ReadIndependentUpdates.check_ops_read_independent(
            et.operations, "ET %s" % et.tid
        )

    def submit_update(
        self, et: EpsilonTransaction, origin: str, on_done: DoneCallback
    ) -> None:
        self.check_read_independent(et)
        self._ets[et.tid] = et
        start = self.system.sim.now
        self.runtime.update_submitted(et)
        stamp = self.clocks[origin].tick()
        txn_number = next(self._txn_numbers)
        ops = tuple(
            self._stamp(op, stamp) for op in et.operations if is_write(op)
        )
        mset = MSet(
            et.tid, MSetKind.UPDATE, ops, origin, stamp, txn_number
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

    @staticmethod
    def _stamp(op: Operation, stamp: Tuple[int, int]) -> TimestampedWriteOp:
        """Normalize a blind write into a timestamped write."""
        if isinstance(op, TimestampedWriteOp):
            return TimestampedWriteOp(op.key, op.value, stamp)
        # WriteOp and other read-independent writes carry their value.
        value = getattr(op, "value", None)
        return TimestampedWriteOp(op.key, value, stamp)

    # -- message handling ---------------------------------------------------

    def handle_message(self, site: Site, mset: MSet) -> None:
        if mset.kind != MSetKind.UPDATE:
            raise ValueError("RITU cannot handle %r" % mset.kind)
        self._apply_at(site, mset)

    def _apply_at(self, site: Site, mset: MSet) -> None:
        state = self.states[site.name]
        executor = self.system.executors[site.name]
        duration = site.config.apply_time * max(len(mset.ops), 1)

        def apply() -> None:
            et = self._ets.get(mset.tid)
            if self.versioning == "multiversion":
                assert mset.txn_number is not None
                for op in mset.ops:
                    site.mvstore.install(
                        op.key, op.value, mset.txn_number, mset.tid
                    )
                    # Keep the flat store in sync (latest by stamp) so
                    # convergence checks and mixed workloads work.
                    site.apply_op(mset.tid, op, et)
                state.note_number(mset.txn_number)
                site.mvstore.advance_vtnc(state.vtnc)
            else:
                for op in mset.ops:
                    site.apply_op(mset.tid, op, et)
                state.note_applied(
                    self.system.sim.now, mset.tid, mset.keys
                )
            self.runtime.update_applied_at_site(mset.tid)

        executor.submit(duration, apply, label="ritu-%s" % (mset.tid,))

    # ------------------------------------------------------------------
    # Query path
    # ------------------------------------------------------------------

    def submit_query(
        self, et: EpsilonTransaction, site_name: str, on_done: DoneCallback
    ) -> None:
        if self.versioning == "multiversion":
            self._submit_query_mv(et, site_name, on_done)
        else:
            self._submit_query_overwrite(et, site_name, on_done)

    def _submit_query_mv(
        self, et: EpsilonTransaction, site_name: str, on_done: DoneCallback
    ) -> None:
        site = self.system.sites[site_name]
        counter = self.runtime.query_started(et)

        def admit(key: str):
            def read():
                value, charged = self._read_version(site, et, key)
                site.history.record(
                    et.tid, ReadOp(key), site_name, site.sim.now, et
                )
                return value

            return True, read

        def done(result: ETResult) -> None:
            self.runtime.query_finished(et)
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
        ).start()

    def _read_version(self, site: Site, et: EpsilonTransaction, key: str):
        """Multiversion read with VTNC divergence bounding.

        Prefers the newest version; if that version is unstable (newer
        than the VTNC) the query pays one inconsistency unit per its
        writer, and an exhausted budget degrades to the newest visible
        version.  Returns (value, charged).
        """
        store = site.mvstore
        try:
            latest = store.read_latest(key)
        except NoVisibleVersion:
            return site.config.default_value, False
        if latest.txn_number <= store.vtnc:
            return latest.value, False
        source = latest.writer if latest.writer is not None else latest.txn_number
        if source not in self.runtime.in_flight_touching(key):
            # Above the VTNC only because a *different* delayed MSet
            # holds the contiguous frontier back: the version's own
            # writer has fully propagated, so every replica already has
            # it and reading it imports no inconsistency.  Charging
            # here would let the counter exceed the query's overlap
            # (the paper's upper bound), since a finished update is by
            # definition not in the overlap.
            return latest.value, False
        if self.runtime.try_charge(et.tid, {source}):
            return latest.value, True
        try:
            visible = store.read_visible(key)
            return visible.value, False
        except NoVisibleVersion:
            return site.config.default_value, False

    def _submit_query_overwrite(
        self, et: EpsilonTransaction, site_name: str, on_done: DoneCallback
    ) -> None:
        """Single-version RITU: COMMU-style query accounting."""
        site = self.system.sites[site_name]
        state = self.states[site_name]
        counter = self.runtime.query_started(et)
        query_start = [self.system.sim.now]

        def admit(key: str):
            sources = state.applied_since(key, query_start[0])
            if not self.runtime.try_charge(et.tid, sources):
                return False, None

            def read():
                value = site.read(et.tid, key)
                site.history.record(
                    et.tid, ReadOp(key), site_name, site.sim.now, et
                )
                return value

            return True, read

        def restart() -> None:
            query_start[0] = self.system.sim.now

        def done(result: ETResult) -> None:
            self.runtime.query_finished(et)
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
        return not self.runtime.in_flight_updates()
