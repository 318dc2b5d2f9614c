"""Synchronous coherency-control baselines (1SR).

The paper contrasts replica control with "traditional coherency
control, which ensures synchronous mutual consistency under 1SR"
(section 2.2) and predicts that synchronous methods suffer "when
network links have very low bandwidth or moderately high latency"
(section 2.4).  Benchmarks E2/E9/E10 need those baselines to exist, so
three classical methods are implemented on the same substrate:

* :class:`ReadOneWriteAll2PC` — ROWA with two-phase commit: exclusive
  locks at every replica during the update window; queries take (and
  immediately hold to end of query) shared access, blocking on locked
  keys.  Lock acquisition times out with a NO vote; the coordinator
  aborts and retries with jittered backoff, which resolves distributed
  deadlocks probabilistically, as deadline-based 2PC implementations do.

* :class:`QuorumConsensus` — Gifford-style weighted voting with equal
  weights: an update reads version numbers from a write quorum, then
  installs the new version synchronously at a write quorum (all
  replicas are *sent* the write; commit waits only for the quorum, and
  stragglers apply asynchronously so the system still converges at
  quiescence).  Queries read a read quorum and return the newest
  version.  With ``r + w > n`` every read sees the latest committed
  write — 1SR for the single-object operations used here.

* :class:`PrimaryCopy` — all updates funnel through a primary that
  propagates synchronously to every backup before acknowledging;
  queries run at the primary (strict) or locally (stale reads allowed,
  quasi-copy style) depending on ``read_local``.

All three report query inconsistency 0 in strict modes — they pay with
latency and blocking instead, which is precisely the trade-off the
paper's asynchronous methods attack.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

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
    ReplicaControlMethod,
    ReplicatedSystem,
)
from .mset import MSet, MSetKind

__all__ = ["ReadOneWriteAll2PC", "QuorumConsensus", "PrimaryCopy"]


# ----------------------------------------------------------------------
# ROWA + 2PC
# ----------------------------------------------------------------------


@dataclass
class _LockTable:
    """Minimal S/X lock table for one site."""

    exclusive: Dict[str, TransactionID] = field(default_factory=dict)
    shared: Dict[str, Set[TransactionID]] = field(default_factory=dict)

    def try_x(self, tid: TransactionID, key: str) -> bool:
        holder = self.exclusive.get(key)
        if holder is not None and holder != tid:
            return False
        if self.shared.get(key):
            others = self.shared[key] - {tid}
            if others:
                return False
        self.exclusive[key] = tid
        return True

    def try_s(self, tid: TransactionID, key: str) -> bool:
        holder = self.exclusive.get(key)
        if holder is not None and holder != tid:
            return False
        self.shared.setdefault(key, set()).add(tid)
        return True

    def release(self, tid: TransactionID) -> None:
        for key in [k for k, h in self.exclusive.items() if h == tid]:
            self.exclusive.pop(key)
        for key, holders in list(self.shared.items()):
            holders.discard(tid)
            if not holders:
                self.shared.pop(key)


class ReadOneWriteAll2PC(ReplicaControlMethod):
    """Synchronous ROWA with two-phase commit."""

    traits = MethodTraits(
        name="ROWA-2PC",
        restriction="atomic commitment",
        direction="synchronous",
        async_update_propagation=False,
        async_query_processing=False,
        sorting_time="at update",
    )

    RETRY_DELAY = 0.25

    def __init__(
        self, lock_timeout: float = 8.0, backoff: float = 4.0
    ) -> None:
        self.lock_timeout = lock_timeout
        self.backoff = backoff
        #: per-update retry attempt counts (exponential backoff input).
        self._attempts: Dict[TransactionID, int] = {}

    def attach(self, system: ReplicatedSystem) -> None:
        super().attach(system)
        self.locks: Dict[str, _LockTable] = {
            name: _LockTable() for name in system.sites
        }
        self._ets: Dict[TransactionID, EpsilonTransaction] = {}
        #: per-update coordinator state: votes / acks outstanding.
        self._rounds: Dict[TransactionID, Dict[str, Any]] = {}
        self.aborted_rounds = 0

    # -- update (coordinator side) -----------------------------------------

    def submit_update(
        self, et: EpsilonTransaction, origin: str, on_done: DoneCallback
    ) -> None:
        self._ets[et.tid] = et
        start = self.system.sim.now
        self._start_round(et, origin, on_done, start)

    def _start_round(
        self,
        et: EpsilonTransaction,
        origin: str,
        on_done: DoneCallback,
        start: float,
    ) -> None:
        names = sorted(self.system.sites)
        self._rounds[et.tid] = {
            "origin": origin,
            "votes": set(),
            "acks": set(),
            "no": False,
            "on_done": on_done,
            "start": start,
            "participants": set(names),
            "decided": False,
        }
        prepare = MSet(et.tid, MSetKind.PREPARE, tuple(et.writes()), origin)
        self._on_prepare(self.system.sites[origin], prepare)
        self.system.broadcast_mset(origin, prepare)

    def _vote(self, site: Site, mset: MSet, yes: bool) -> None:
        vote = MSet(
            mset.tid,
            MSetKind.VOTE,
            (),
            site.name,
            info=(("yes", yes),),
        )
        round_ = self._rounds.get(mset.tid)
        if round_ is not None and site.name == round_["origin"]:
            self._on_vote(self.system.sites[round_["origin"]], vote)
        else:
            origin = round_["origin"] if round_ else mset.origin
            self.system.send_mset(site.name, origin, vote)

    def _on_vote(self, site: Site, mset: MSet) -> None:
        round_ = self._rounds.get(mset.tid)
        if round_ is None or round_["decided"]:
            return
        if not mset.get_info("yes", False):
            round_["no"] = True
        round_["votes"].add(mset.origin)
        if round_["votes"] == round_["participants"]:
            self._complete_phase_one(mset.tid)

    def _complete_phase_one(self, tid: TransactionID) -> None:
        round_ = self._rounds[tid]
        round_["decided"] = True
        origin = round_["origin"]
        et = self._ets[tid]
        commit = not round_["no"]
        decision = MSet(
            tid,
            MSetKind.DECISION,
            tuple(et.writes()) if commit else (),
            origin,
            info=(("commit", commit),),
        )
        self._on_decision(self.system.sites[origin], decision)
        self.system.broadcast_mset(origin, decision)
        if not commit:
            # Abort: back off exponentially (with jitter) and retry the
            # whole round — the standard deadline-2PC recovery, which
            # resolves distributed deadlocks probabilistically.
            self.aborted_rounds += 1
            self._rounds.pop(tid, None)
            attempt = self._attempts.get(tid, 0) + 1
            self._attempts[tid] = attempt
            scale = min(2 ** (attempt - 1), 32)
            delay = self.backoff * scale * (
                0.5 + self.system.sim.rng.random()
            )
            self.system.sim.schedule(
                delay,
                lambda: self._start_round(
                    et, origin, round_["on_done"], round_["start"]
                ),
            )

    def _on_ack(self, mset: MSet) -> None:
        round_ = self._rounds.get(mset.tid)
        if round_ is None:
            return
        round_["acks"].add(mset.origin)
        if round_["acks"] == round_["participants"]:
            et = self._ets[mset.tid]
            self._attempts.pop(mset.tid, None)
            round_["on_done"](
                ETResult(
                    et,
                    status=ETStatus.COMMITTED,
                    start_time=round_["start"],
                    finish_time=self.system.sim.now,
                    site=round_["origin"],
                )
            )
            self._rounds.pop(mset.tid, None)

    # -- participant side -----------------------------------------------------

    def handle_message(self, site: Site, mset: MSet) -> None:
        if mset.kind == MSetKind.PREPARE:
            self._on_prepare(site, mset)
        elif mset.kind == MSetKind.VOTE:
            self._on_vote(site, mset)
        elif mset.kind == MSetKind.DECISION:
            self._on_decision(site, mset)
        elif mset.kind == "ack":
            self._on_ack(mset)
        else:
            raise ValueError("ROWA-2PC cannot handle %r" % mset.kind)

    def _on_prepare(self, site: Site, mset: MSet) -> None:
        table = self.locks[site.name]
        deadline = self.system.sim.now + self.lock_timeout
        keys = sorted(mset.keys)

        def try_lock() -> None:
            if site.crashed:
                return  # recover hook not modeled; round stalls
            if all(table.try_x(mset.tid, key) for key in keys):
                self._vote(site, mset, yes=True)
                return
            table.release(mset.tid)
            if self.system.sim.now >= deadline:
                self._vote(site, mset, yes=False)
                return
            self.system.sim.schedule(self.RETRY_DELAY, try_lock)

        try_lock()

    def _on_decision(self, site: Site, mset: MSet) -> None:
        commit = mset.get_info("commit", False)
        executor = self.system.executors[site.name]
        table = self.locks[site.name]

        def apply() -> None:
            if commit:
                et = self._ets.get(mset.tid)
                for op in mset.ops:
                    site.apply_op(mset.tid, op, et)
            table.release(mset.tid)
            if commit:
                round_ = self._rounds.get(mset.tid)
                ack = MSet(mset.tid, "ack", (), site.name)
                if round_ is not None and site.name == round_["origin"]:
                    self._on_ack(ack)
                else:
                    origin = round_["origin"] if round_ else mset.origin
                    self.system.send_mset(site.name, origin, ack)

        duration = site.config.apply_time * max(len(mset.ops), 1)
        executor.submit(duration, apply, label="2pc-%s" % (mset.tid,))

    # -- queries ---------------------------------------------------------------

    def submit_query(
        self, et: EpsilonTransaction, site_name: str, on_done: DoneCallback
    ) -> None:
        site = self.system.sites[site_name]
        table = self.locks[site_name]
        result = ETResult(et, start_time=self.system.sim.now, site=site_name)
        keys = [op.key for op in et.operations]
        index = [0]

        def step() -> None:
            if site.crashed:
                finish(ETStatus.ABORTED)
                return
            if index[0] >= len(keys):
                finish(ETStatus.COMMITTED)
                return
            key = keys[index[0]]
            if not table.try_s(et.tid, key):
                result.waits += 1
                self.system.sim.schedule(self.RETRY_DELAY, step)
                return

            def do_read() -> None:
                if site.crashed:
                    finish(ETStatus.ABORTED)
                    return
                result.values[key] = site.read(et.tid, key)
                site.history.record(
                    et.tid, ReadOp(key), site_name, site.sim.now, et
                )
                index[0] += 1
                step()

            self.system.sim.schedule(site.config.read_time, do_read)

        def finish(status: str) -> None:
            table.release(et.tid)
            result.status = status
            result.finish_time = self.system.sim.now
            result.inconsistency = 0  # strict 1SR: nothing imported
            on_done(result)

        step()

    def quiescent(self) -> bool:
        return not self._rounds


# ----------------------------------------------------------------------
# Quorum consensus (weighted voting, equal weights)
# ----------------------------------------------------------------------


class QuorumConsensus(ReplicaControlMethod):
    """Gifford-style quorum reads/writes with version numbers."""

    traits = MethodTraits(
        name="QUORUM",
        restriction="quorum intersection",
        direction="synchronous",
        async_update_propagation=False,
        async_query_processing=False,
        sorting_time="at update",
    )

    def __init__(
        self,
        read_quorum: Optional[int] = None,
        write_quorum: Optional[int] = None,
    ) -> None:
        self._r = read_quorum
        self._w = write_quorum

    def attach(self, system: ReplicatedSystem) -> None:
        super().attach(system)
        n = len(system.sites)
        self.n = n
        self.w = self._w if self._w is not None else n // 2 + 1
        self.r = self._r if self._r is not None else n - self.w + 1
        if self.r + self.w <= n:
            raise ValueError("quorums must intersect: r + w > n")
        if 2 * self.w <= n:
            raise ValueError("write quorums must intersect: 2w > n")
        #: per-site per-key version numbers: (counter, writer tid).
        self.versions: Dict[str, Dict[str, Tuple[int, int]]] = {
            name: {} for name in system.sites
        }
        self._ets: Dict[TransactionID, EpsilonTransaction] = {}

    # -- RPC helper over the raw network --------------------------------------

    def _rpc(
        self,
        src: str,
        dst: str,
        handler: Callable[[], Any],
        reply: Callable[[Any], None],
    ) -> None:
        """Request/response with persistent retry (quorum RPCs block
        while the destination is unreachable, which is the synchronous
        availability cost E9 measures)."""

        def attempt() -> None:
            self.system.network.send(
                src,
                dst,
                None,
                on_deliver=lambda _: respond(),
                on_drop=lambda _: self.system.sim.schedule(
                    self.system.config.retry_interval, attempt
                ),
            )

        def respond() -> None:
            value = handler()
            self.system.network.send(
                dst,
                src,
                value,
                on_deliver=reply,
                on_drop=lambda v: self.system.sim.schedule(
                    self.system.config.retry_interval, lambda: resend(v)
                ),
            )

        def resend(value: Any) -> None:
            self.system.network.send(
                dst,
                src,
                value,
                on_deliver=reply,
                on_drop=lambda v: self.system.sim.schedule(
                    self.system.config.retry_interval, lambda: resend(v)
                ),
            )

        attempt()

    # -- updates ---------------------------------------------------------------

    def submit_update(
        self, et: EpsilonTransaction, origin: str, on_done: DoneCallback
    ) -> None:
        for op in et.writes():
            if not op.read_independent:
                raise ValueError(
                    "quorum consensus (as modeled) applies versioned "
                    "overwrites; operation %r is not a blind write" % (op,)
                )
        self._ets[et.tid] = et
        start = self.system.sim.now
        names = sorted(self.system.sites)
        keys = tuple(et.write_set)
        acks: Set[str] = set()
        done = [False]
        #: phase 1 version replies: site -> {key: version}.
        version_replies: List[Dict[str, Tuple[int, int]]] = []
        new_version: Dict[str, Tuple[int, int]] = {}

        def deliver_write(name: str) -> None:
            site = self.system.sites[name]
            executor = self.system.executors[name]
            ops = tuple(et.writes())
            duration = site.config.apply_time * max(len(ops), 1)

            def apply() -> None:
                for op in ops:
                    # Version gating: an older write never clobbers a
                    # newer one, whatever the arrival order.
                    version = new_version[op.key]
                    if self.versions[name].get(op.key, (0, 0)) > version:
                        continue
                    site.apply_op(et.tid, op, et)
                    self.versions[name][op.key] = version

            executor.submit(duration, apply, label="quorum-%s" % (et.tid,))

        def write_to(name: str) -> None:
            if name == origin:
                deliver_write(name)
                note_ack(name)
                return

            def handler() -> Any:
                deliver_write(name)
                return True

            self._rpc(origin, name, handler, lambda _: note_ack(name))

        def note_ack(name: str) -> None:
            acks.add(name)
            if len(acks) >= self.w and not done[0]:
                done[0] = True
                on_done(
                    ETResult(
                        et,
                        status=ETStatus.COMMITTED,
                        start_time=start,
                        finish_time=self.system.sim.now,
                        site=origin,
                    )
                )

        def phase_two() -> None:
            # Pick a version strictly above everything a write quorum
            # has seen; the tid breaks ties between concurrent writers.
            for key in keys:
                top = max(
                    (reply.get(key, (0, 0)) for reply in version_replies),
                    default=(0, 0),
                )
                new_version[key] = (top[0] + 1, et.tid)
            # The write is *sent* everywhere; commit waits for w acks.
            for name in names:
                write_to(name)

        def collect_versions(payload: Any) -> None:
            version_replies.append(payload)
            if len(version_replies) == self.w:
                phase_two()

        # Phase 1: read current versions from a write quorum.
        for name in names[: self.w]:
            if name == origin:
                self.system.sim.call_now(
                    lambda n=name: collect_versions(
                        {k: self.versions[n].get(k, (0, 0)) for k in keys}
                    )
                )
            else:

                def handler(n=name) -> Any:
                    return {k: self.versions[n].get(k, (0, 0)) for k in keys}

                self._rpc(origin, name, handler, collect_versions)

    def handle_message(self, site: Site, mset: MSet) -> None:
        raise ValueError("QuorumConsensus uses RPCs, not MSets")

    # -- queries -----------------------------------------------------------------

    def submit_query(
        self, et: EpsilonTransaction, site_name: str, on_done: DoneCallback
    ) -> None:
        site = self.system.sites[site_name]
        result = ETResult(et, start_time=self.system.sim.now, site=site_name)
        keys = [op.key for op in et.operations]
        names = sorted(self.system.sites)
        index = [0]

        def step() -> None:
            if index[0] >= len(keys):
                result.status = ETStatus.COMMITTED
                result.finish_time = self.system.sim.now
                result.inconsistency = 0
                on_done(result)
                return
            key = keys[index[0]]
            replies: List[Tuple[int, Any]] = []
            answered = [0]

            def collect(payload: Any) -> None:
                replies.append(payload)
                answered[0] += 1
                if answered[0] == self.r:
                    version, value = max(replies, key=lambda p: p[0])
                    result.values[key] = value
                    site.history.record(
                        et.tid, ReadOp(key), site_name, site.sim.now, et
                    )
                    index[0] += 1
                    self.system.sim.schedule(site.config.read_time, step)

            # Ask r replicas (self first, then nearest by name order).
            targets = [site_name] + [n for n in names if n != site_name]
            for name in targets[: self.r]:
                if name == site_name:
                    value = site.read(et.tid, key)
                    version = self.versions[name].get(key, (0, 0))
                    self.system.sim.call_now(
                        lambda v=(version, value): collect(v)
                    )
                else:

                    def handler(n=name, k=key) -> Any:
                        peer = self.system.sites[n]
                        return (
                            self.versions[n].get(k, (0, 0)),
                            peer.read(et.tid, k),
                        )

                    self._rpc(site_name, name, handler, collect)

        step()

    def quiescent(self) -> bool:
        return True


# ----------------------------------------------------------------------
# Primary copy (eager propagation)
# ----------------------------------------------------------------------


class PrimaryCopy(ReplicaControlMethod):
    """All updates serialize through a primary; backups follow eagerly."""

    traits = MethodTraits(
        name="PRIMARY",
        restriction="single master",
        direction="synchronous",
        async_update_propagation=False,
        async_query_processing=False,
        sorting_time="at update",
    )

    def __init__(self, read_local: bool = False) -> None:
        """``read_local=True`` allows quasi-copy-style stale local reads."""
        self.read_local = read_local

    def attach(self, system: ReplicatedSystem) -> None:
        super().attach(system)
        self.primary = sorted(system.sites)[0]
        self._ets: Dict[TransactionID, EpsilonTransaction] = {}
        self._seq = itertools.count(1)
        #: backup name -> next sequence number to apply / hold-back map.
        self._expected: Dict[str, int] = {
            name: 1 for name in system.sites
        }
        self._holdback: Dict[str, Dict[int, Callable[[], None]]] = {
            name: {} for name in system.sites
        }

    def _apply_in_order(
        self, name: str, seqno: int, action: Callable[[], None]
    ) -> None:
        """Backups replay the primary's log in sequence order even if
        propagation RPCs arrive reordered by the network."""
        self._holdback[name][seqno] = action
        while self._expected[name] in self._holdback[name]:
            ready = self._holdback[name].pop(self._expected[name])
            self._expected[name] += 1
            ready()

    def submit_update(
        self, et: EpsilonTransaction, origin: str, on_done: DoneCallback
    ) -> None:
        self._ets[et.tid] = et
        start = self.system.sim.now
        names = sorted(self.system.sites)
        acks: Set[str] = set()
        seqno_box: List[int] = []

        def apply_at(name: str, then: Callable[[], None]) -> None:
            site = self.system.sites[name]
            executor = self.system.executors[name]
            ops = tuple(et.writes())
            duration = site.config.apply_time * max(len(ops), 1)

            def apply() -> None:
                for op in ops:
                    site.apply_op(et.tid, op, et)
                then()

            def enqueue() -> None:
                executor.submit(
                    duration, apply, label="primary-%s" % (et.tid,)
                )

            self._apply_in_order(name, seqno_box[0], enqueue)

        def forward_to_primary(then: Callable[[], None]) -> None:
            if origin == self.primary:
                then()
                return

            def attempt() -> None:
                self.system.network.send(
                    origin,
                    self.primary,
                    None,
                    on_deliver=lambda _: then(),
                    on_drop=lambda _: self.system.sim.schedule(
                        self.system.config.retry_interval, attempt
                    ),
                )

            attempt()

        def at_primary() -> None:
            # The primary assigns the global sequence number: updates
            # are totally ordered at the master.
            seqno_box.append(next(self._seq))

            def after_local() -> None:
                note_ack(self.primary)
                for name in names:
                    if name == self.primary:
                        continue
                    propagate(name)

            apply_at(self.primary, after_local)

        def propagate(name: str) -> None:
            def attempt() -> None:
                self.system.network.send(
                    self.primary,
                    name,
                    None,
                    on_deliver=lambda _: apply_at(name, lambda: ack(name)),
                    on_drop=lambda _: self.system.sim.schedule(
                        self.system.config.retry_interval, attempt
                    ),
                )

            attempt()

        def ack(name: str) -> None:
            def attempt() -> None:
                self.system.network.send(
                    name,
                    self.primary,
                    None,
                    on_deliver=lambda _: note_ack(name),
                    on_drop=lambda _: self.system.sim.schedule(
                        self.system.config.retry_interval, attempt
                    ),
                )

            attempt()

        def note_ack(name: str) -> None:
            acks.add(name)
            if acks == set(names):
                on_done(
                    ETResult(
                        et,
                        status=ETStatus.COMMITTED,
                        start_time=start,
                        finish_time=self.system.sim.now,
                        site=origin,
                    )
                )

        forward_to_primary(at_primary)

    def handle_message(self, site: Site, mset: MSet) -> None:
        raise ValueError("PrimaryCopy uses RPCs, not MSets")

    def submit_query(
        self, et: EpsilonTransaction, site_name: str, on_done: DoneCallback
    ) -> None:
        target = site_name if self.read_local else self.primary
        site = self.system.sites[target]
        result = ETResult(et, start_time=self.system.sim.now, site=target)
        keys = [op.key for op in et.operations]
        index = [0]

        def begin() -> None:
            step()

        def step() -> None:
            if index[0] >= len(keys):
                result.status = ETStatus.COMMITTED
                result.finish_time = self.system.sim.now
                result.inconsistency = 0
                on_done(result)
                return
            key = keys[index[0]]

            def do_read() -> None:
                result.values[key] = site.read(et.tid, key)
                site.history.record(
                    et.tid, ReadOp(key), target, site.sim.now, et
                )
                index[0] += 1
                step()

            self.system.sim.schedule(site.config.read_time, do_read)

        if target == site_name:
            begin()
        else:
            # Pay the round trip to the primary (strict mode).
            def attempt() -> None:
                self.system.network.send(
                    site_name,
                    target,
                    None,
                    on_deliver=lambda _: begin(),
                    on_drop=lambda _: self.system.sim.schedule(
                        self.system.config.retry_interval, attempt
                    ),
                )

            attempt()

    def quiescent(self) -> bool:
        return True
