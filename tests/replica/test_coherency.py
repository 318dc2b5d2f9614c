"""Tests for the synchronous 1SR baselines."""

import pytest

from repro.core.operations import (
    IncrementOp,
    MultiplyOp,
    ReadOp,
    WriteOp,
)
from repro.core.transactions import (
    QueryET,
    UpdateET,
    reset_tid_counter,
)
from repro.replica.base import ReplicatedSystem, SystemConfig
from repro.replica.coherency import (
    PrimaryCopy,
    QuorumConsensus,
    ReadOneWriteAll2PC,
)
from repro.sim.network import ConstantLatency, UniformLatency


@pytest.fixture(autouse=True)
def _fresh():
    reset_tid_counter()


def _system(method, n=3, seed=1, **cfg):
    config = SystemConfig(
        n_sites=n, seed=seed, initial=(("x", 0), ("y", 0)), **cfg
    )
    return ReplicatedSystem(method, config)


class TestROWA2PC:
    def test_update_applies_everywhere_synchronously(self):
        system = _system(ReadOneWriteAll2PC(), latency=ConstantLatency(1.0))
        system.submit(UpdateET([IncrementOp("x", 5)]), "site0")
        system.run_to_quiescence()
        assert system.converged()
        assert all(s.store.get("x") == 5 for s in system.sites.values())

    def test_commit_latency_includes_two_rounds(self):
        system = _system(ReadOneWriteAll2PC(), latency=ConstantLatency(2.0))
        system.submit(UpdateET([IncrementOp("x", 5)]), "site0")
        system.run_to_quiescence()
        # prepare out + vote back + decision out + ack back >= 4 hops.
        assert system.results[0].latency >= 8.0

    def test_non_commutative_updates_serialize(self):
        system = _system(
            ReadOneWriteAll2PC(), latency=UniformLatency(0.5, 2.0)
        )
        system.submit(UpdateET([IncrementOp("x", 10)]), "site0")
        system.submit(UpdateET([MultiplyOp("x", 2)]), "site1")
        system.run_to_quiescence()
        assert system.converged()
        assert system.is_one_copy_serializable()

    def test_conflicting_rounds_eventually_commit(self):
        system = _system(
            ReadOneWriteAll2PC(lock_timeout=3.0, backoff=2.0),
            n=3,
            latency=UniformLatency(0.2, 1.0),
        )
        for i in range(6):
            system.submit_at(
                float(i) * 0.1, UpdateET([IncrementOp("x", 1)]), "site%d" % (i % 3)
            )
        system.run_to_quiescence()
        assert system.converged()
        assert system.sites["site0"].store.get("x") == 6

    def test_queries_strictly_consistent(self):
        system = _system(ReadOneWriteAll2PC(), latency=ConstantLatency(1.0))
        system.submit(UpdateET([IncrementOp("x", 5)]), "site0")
        system.submit(QueryET([ReadOp("x")]), "site1")
        system.run_to_quiescence()
        query = [r for r in system.results if r.et.is_query][0]
        assert query.inconsistency == 0


class TestQuorumConsensus:
    def test_quorum_sizes_default_to_majority(self):
        system = _system(QuorumConsensus(), n=5)
        assert system.method.w == 3
        assert system.method.r == 3

    def test_invalid_quorums_rejected(self):
        with pytest.raises(ValueError):
            _system(QuorumConsensus(read_quorum=1, write_quorum=1), n=4)
        with pytest.raises(ValueError):
            _system(QuorumConsensus(read_quorum=4, write_quorum=1), n=4)

    def test_non_blind_write_rejected(self):
        system = _system(QuorumConsensus())
        with pytest.raises(ValueError):
            system.submit(UpdateET([IncrementOp("x", 1)]), "site0")

    def test_write_then_read_sees_latest(self):
        system = _system(QuorumConsensus(), latency=ConstantLatency(1.0))
        system.submit(UpdateET([WriteOp("x", 42)]), "site0")
        system.run_to_quiescence()
        system.submit(QueryET([ReadOp("x")]), "site2")
        system.run_to_quiescence()
        query = [r for r in system.results if r.et.is_query][0]
        assert query.values["x"] == 42

    def test_concurrent_writes_converge(self):
        system = _system(
            QuorumConsensus(), n=5, latency=UniformLatency(0.5, 3.0)
        )
        for i in range(8):
            system.submit_at(
                float(i) * 0.2,
                UpdateET([WriteOp("x", 100 + i)]),
                "site%d" % (i % 5),
            )
        system.run_to_quiescence()
        assert system.converged()
        assert system.is_one_copy_serializable()

    def test_two_writers_of_two_keys_do_not_split_them(self):
        """``lo`` reads its versions after a write of x landed at the
        write quorum but before ``hi``'s writes did; ``hi`` read before
        either.  Per-key versions gave lo x (newer version) and hi y
        (equal version, higher tid): a state no serial order explains.
        One version per ET gives lo both keys."""
        system = _system(QuorumConsensus(), latency=ConstantLatency(1.0))
        first = UpdateET([WriteOp("x", 1)])
        lo = UpdateET([WriteOp("x", 2), WriteOp("y", 2)])
        hi = UpdateET([WriteOp("x", 3), WriteOp("y", 3)])
        assert lo.tid < hi.tid
        system.submit_at(0.0, first, "site0")
        system.submit_at(0.0, hi, "site2")
        system.submit_at(2.2, lo, "site0")
        system.run_to_quiescence()
        assert system.converged()
        assert system.is_one_copy_serializable()
        assert system.sites["site1"].values() == {"x": 2, "y": 2}

    def test_commit_waits_for_write_quorum(self):
        system = _system(QuorumConsensus(), latency=ConstantLatency(2.0))
        system.submit(UpdateET([WriteOp("x", 1)]), "site0")
        system.run_to_quiescence()
        # Phase 1 (version read) + phase 2 (write) across the quorum.
        assert system.results[0].latency >= 4.0


class TestPrimaryCopy:
    def test_update_propagates_to_all_backups(self):
        system = _system(PrimaryCopy(), latency=ConstantLatency(1.0))
        system.submit(UpdateET([IncrementOp("x", 3)]), "site1")
        system.run_to_quiescence()
        assert system.converged()
        assert all(s.store.get("x") == 3 for s in system.sites.values())

    def test_non_commutative_updates_ordered_by_primary(self):
        system = _system(PrimaryCopy(), latency=UniformLatency(0.5, 4.0))
        system.submit(UpdateET([IncrementOp("x", 10)]), "site1")
        system.submit(UpdateET([MultiplyOp("x", 2)]), "site2")
        system.run_to_quiescence()
        assert system.converged()
        assert system.is_one_copy_serializable()

    def test_strict_queries_go_to_primary(self):
        system = _system(PrimaryCopy(), latency=ConstantLatency(1.0))
        system.submit(QueryET([ReadOp("x")]), "site2")
        system.run_to_quiescence()
        assert system.results[0].site == "site0"

    def test_read_local_mode_stays_at_site(self):
        system = _system(
            PrimaryCopy(read_local=True), latency=ConstantLatency(1.0)
        )
        system.submit(QueryET([ReadOp("x")]), "site2")
        system.run_to_quiescence()
        assert system.results[0].site == "site2"

    def test_update_at_primary_is_cheaper(self):
        system = _system(PrimaryCopy(), latency=ConstantLatency(2.0))
        system.submit(UpdateET([IncrementOp("x", 1)]), "site0")
        system.submit(UpdateET([IncrementOp("y", 1)]), "site2")
        system.run_to_quiescence()
        by_site = {r.site: r.latency for r in system.results}
        assert by_site["site0"] < by_site["site2"]
