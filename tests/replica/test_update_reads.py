"""Tests for read-modify-write update ETs in the replica layer."""

import pytest

from repro.core.operations import IncrementOp, MultiplyOp, ReadOp, WriteOp
from repro.core.serializability import is_one_copy_serializable
from repro.core.transactions import (
    ETStatus,
    UpdateET,
    reset_tid_counter,
)
from repro.replica.base import ReplicatedSystem, SystemConfig
from repro.replica.host import CommutativeOperations, NonCommutativeError
from repro.replica.host import CompensationBased
from repro.replica.host import OrderedUpdates
from repro.replica.host import (
    NotReadIndependentError,
    ReadIndependentUpdates,
)
from repro.sim.network import UniformLatency


@pytest.fixture(autouse=True)
def _fresh():
    reset_tid_counter()


def _system(method, **cfg):
    defaults = dict(
        n_sites=3, seed=2, latency=UniformLatency(0.5, 2.0),
        initial=(("x", 100), ("y", 0)),
    )
    defaults.update(cfg)
    return ReplicatedSystem(method, SystemConfig(**defaults))


class TestORDUPReadModifyWrite:
    def test_reads_returned_through_result(self):
        system = _system(OrderedUpdates())
        system.submit(UpdateET([ReadOp("x"), IncrementOp("x", 5)]), "site0")
        system.run_to_quiescence()
        result = system.results[0]
        assert result.status == ETStatus.COMMITTED
        assert result.values == {"x": 100}  # pre-write serial view
        assert system.sites["site1"].store.get("x") == 105

    def test_reads_see_serial_prefix(self):
        """An RMW ordered after another update observes its effect.

        Both updates originate at the order server's site so their
        sequence tokens follow submission order deterministically.
        """
        system = _system(OrderedUpdates())
        system.submit(UpdateET([IncrementOp("x", 10)]), "site0")
        system.submit(UpdateET([ReadOp("x"), IncrementOp("y", 1)]), "site0")
        system.run_to_quiescence()
        rmw = [r for r in system.results if r.values][0]
        assert rmw.values["x"] == 110  # saw the earlier update

    def test_rmw_commit_waits_for_serial_turn(self):
        """Unlike pure-write updates, RMW commits are not instant."""
        system = _system(OrderedUpdates(), latency=UniformLatency(4.0, 6.0))
        system.submit(UpdateET([IncrementOp("x", 1)]), "site1")
        system.submit(UpdateET([ReadOp("x"), IncrementOp("x", 1)]), "site1")
        system.run_to_quiescence()
        pure, rmw = system.results[0], system.results[1]
        assert pure.latency == 0.0 or pure.latency < rmw.latency

    def test_rmw_updates_stay_one_copy_sr(self):
        system = _system(OrderedUpdates())
        for i in range(8):
            ops = (
                [ReadOp("x"), MultiplyOp("x", 2)]
                if i % 2
                else [IncrementOp("x", 3)]
            )
            system.submit_at(float(i), UpdateET(ops), "site%d" % (i % 3))
        system.run_to_quiescence()
        assert system.converged()
        assert system.is_one_copy_serializable()


class TestOtherMethodsRejectUpdateReads:
    def test_commu_rejects(self):
        system = _system(CommutativeOperations())
        with pytest.raises(NonCommutativeError, match="ORDUP"):
            system.submit(
                UpdateET([ReadOp("x"), IncrementOp("x", 1)]), "site0"
            )

    def test_ritu_rejects(self):
        system = _system(ReadIndependentUpdates())
        with pytest.raises(NotReadIndependentError, match="blind"):
            system.submit(
                UpdateET([ReadOp("x"), WriteOp("x", 1)]), "site0"
            )

    def test_compe_rejects(self):
        system = _system(CompensationBased())
        with pytest.raises(ValueError, match="compensated"):
            system.method.submit_update(
                UpdateET([ReadOp("x"), IncrementOp("x", 1)]),
                "site0",
                lambda r: None,
            )
