"""Tests for the blocking client facade."""

import pytest

from repro import (
    Client,
    CommutativeOperations,
    Consistency,
    EpsilonSpec,
    ETFailed,
    IncrementOp,
    ReplicatedSystem,
    SystemConfig,
    UniformLatency,
)
from repro.core.operations import DecrementOp
from repro.core.transactions import UNLIMITED, reset_tid_counter
from repro.replica.host import ReadIndependentUpdates


@pytest.fixture(autouse=True)
def _fresh():
    reset_tid_counter()


def _system(method=None, **cfg):
    defaults = dict(
        n_sites=3, seed=3, latency=UniformLatency(0.5, 2.0),
        initial=(("x", 0), ("y", 0)),
    )
    defaults.update(cfg)
    return ReplicatedSystem(
        method or CommutativeOperations(), SystemConfig(**defaults)
    )


class TestBasics:
    def test_unknown_site_rejected(self):
        with pytest.raises(KeyError):
            Client(_system(), "nowhere")

    def test_increment_then_read(self):
        system = _system()
        client = Client(system, "site0")
        client.increment("x", 5)
        client.settle()
        assert client.read("x") == 5

    def test_decrement_and_multi_op_update(self):
        system = _system()
        client = Client(system, "site0")
        client.update([IncrementOp("x", 10), DecrementOp("y", 3)])
        client.settle()
        assert client.read("x") == 10
        assert client.read("y") == -3

    def test_write_with_ritu(self):
        system = _system(method=ReadIndependentUpdates())
        client = Client(system, "site1")
        client.write("x", "hello")
        client.settle()
        assert client.read("x") == "hello"

    def test_append(self):
        system = _system()
        client = Client(system, "site0")
        client.append("log", "a")
        client.append("log", "b")
        client.settle()
        assert client.read("log") == ("a", "b")

    def test_read_many_is_one_et(self):
        system = _system()
        client = Client(system, "site0")
        client.increment("x", 1)
        client.settle()
        values = client.read_many(["x", "y"])
        assert values == {"x": 1, "y": 0}


class TestEpsilonErgonomics:
    def test_strict_read_is_serializable_not_necessarily_fresh(self):
        system = _system(latency=UniformLatency(3.0, 5.0))
        writer = Client(system, "site0")
        reader = Client(system, "site1")
        writer.increment("x", 7)
        # A strict single-key read may legally serialize *before* the
        # in-flight update (stale is consistent); it must be one of
        # the two serializable values, never a torn intermediate.
        assert reader.read("x", Consistency.STRICT) in (0, 7)

    def test_strict_multikey_read_never_torn(self):
        """Strictness bites on multi-key queries: an update writing x
        and y together must be seen all-or-nothing by an eps=0 query."""
        system = _system(latency=UniformLatency(3.0, 5.0))
        writer = Client(system, "site0")
        reader = Client(system, "site1")
        writer.update([IncrementOp("x", 7), IncrementOp("y", 7)])
        values = reader.read_many(["x", "y"], Consistency.STRICT)
        assert values in (
            {"x": 0, "y": 0},
            {"x": 7, "y": 7},
        )

    def test_relaxed_read_returns_quickly(self):
        system = _system(latency=UniformLatency(3.0, 5.0))
        writer = Client(system, "site0")
        reader = Client(system, "site1")
        writer.increment("x", 7)
        value = reader.read("x")  # unlimited budget: takes what's there
        assert value in (0, 7)

    def test_query_exposes_accounting(self):
        system = _system(latency=UniformLatency(3.0, 5.0))
        writer = Client(system, "site0")
        reader = Client(system, "site0")
        writer.increment("x", 7)
        result = reader.query(["x"], EpsilonSpec(import_limit=5))
        assert result.inconsistency <= 5
        assert result.et.is_query

    def test_value_epsilon_passthrough(self):
        system = _system()
        client = Client(system, "site0")
        client.increment("x", 100)
        client.settle()
        # Settled system: even a zero drift budget reads cleanly.
        drift_free = Consistency.BOUNDED(UNLIMITED, value_limit=0)
        assert client.read("x", drift_free) == 100


class TestFailureSurface:
    def test_failed_et_raises(self):
        from repro.replica.host import NonCommutativeError
        from repro.core.operations import MultiplyOp

        system = _system()
        client = Client(system, "site0")
        with pytest.raises(NonCommutativeError):
            client.update([IncrementOp("x", 1), MultiplyOp("x", 2)])

    def test_unknown_site_names_the_site(self):
        with pytest.raises(KeyError, match="nowhere"):
            Client(_system(), "nowhere")

    def test_empty_update_batch_rejected(self):
        client = Client(_system(), "site0")
        with pytest.raises(ValueError):
            client.update([])

    def test_mixed_read_write_batch_rejected_by_commu(self):
        """COMMU applies updates at every replica independently, so an
        update ET may not embed reads; the error says to use ORDUP."""
        from repro.core.operations import ReadOp
        from repro.replica.host import NonCommutativeError

        client = Client(_system(), "site0")
        with pytest.raises(NonCommutativeError, match="ORDUP"):
            client.update([ReadOp("x"), IncrementOp("x", 1)])
        # The rejected ET left no partial effects behind.
        assert client.read("x") == 0

    def test_mixed_read_write_batch_allowed_by_ordup(self):
        from repro.core.operations import ReadOp
        from repro.replica.host import OrderedUpdates

        system = _system(method=OrderedUpdates())
        client = Client(system, "site0")
        client.increment("x", 10)
        client.settle()
        result = client.update([ReadOp("x"), IncrementOp("x", 5)])
        assert result.values["x"] == 10  # read at the ET's serial position
        client.settle()
        assert client.read("x", Consistency.STRICT) == 15

    def test_strict_read_on_unknown_key_is_default(self):
        client = Client(_system(), "site0")
        assert client.read("never-written", Consistency.STRICT) == 0

    def test_etfailed_carries_the_result(self):
        from repro.core.transactions import ETResult, ETStatus, make_et

        result = ETResult(
            et=make_et([IncrementOp("x", 1)]), status=ETStatus.ABORTED
        )
        err = ETFailed(result)
        assert err.result is result
        assert "ABORTED" in str(err) or "aborted" in str(err)
