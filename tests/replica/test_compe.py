"""Tests for COMPE (compensation-based backward replica control)."""

import json

import pytest

from repro.core.operations import (
    IncrementOp,
    MultiplyOp,
    ReadOp,
    WriteOp,
)
from repro.core.transactions import (
    EpsilonSpec,
    ETStatus,
    QueryET,
    UpdateET,
    reset_tid_counter,
)
from repro.replica.base import ReplicatedSystem, SystemConfig
from repro.replica.engine import CompeLiveEngine
from repro.replica.host import CompensationBased
from repro.replica.mset import MSet, MSetKind
from repro.sim.network import UniformLatency


@pytest.fixture(autouse=True)
def _fresh():
    reset_tid_counter()


def _system(n=3, seed=1, method=None, **cfg):
    config = SystemConfig(
        n_sites=n, seed=seed, initial=(("x", 1), ("y", 1)), **cfg
    )
    return ReplicatedSystem(
        method or CompensationBased(decision_delay=5.0), config
    )


def _submit_update(system, et, origin, will_abort=False):
    results = []
    system._pending_ets += 1

    def done(result):
        system._pending_ets -= 1
        system.results.append(result)
        results.append(result)

    system.method.submit_update(et, origin, done, will_abort=will_abort)
    return results


class TestOptimisticCommit:
    def test_committed_update_converges(self):
        system = _system()
        _submit_update(system, UpdateET([IncrementOp("x", 5)]), "site0")
        system.run_to_quiescence()
        assert system.converged()
        assert system.sites["site1"].store.get("x") == 6
        assert system.method.stats.commits == 1

    def test_decision_latency(self):
        system = _system()
        results = _submit_update(
            system, UpdateET([IncrementOp("x", 5)]), "site0"
        )
        system.run_to_quiescence()
        assert results[0].latency == pytest.approx(5.0)

    def test_operation_without_inverse_rejected(self):
        from dataclasses import dataclass, field
        from repro.core.operations import Operation

        @dataclass(frozen=True)
        class NoUndoOp(Operation):
            is_write_op: bool = field(default=True, init=False, repr=False)

            def apply(self, value):
                return value

            def inverse(self, prior_value):
                return None

            def commutes_with(self, other):
                return False

        system = _system()
        et = UpdateET([NoUndoOp("x")])
        with pytest.raises(ValueError):
            _submit_update(system, et, "site0")

    def test_log_records_kept_until_decision(self):
        system = _system(latency=UniformLatency(0.5, 1.0))
        _submit_update(system, UpdateET([IncrementOp("x", 5)]), "site0")
        system.run(until=3.0)  # applied, not yet decided
        assert len(system.method.engines["site0"].log) == 1


class TestCompensation:
    def test_aborted_update_leaves_no_trace(self):
        system = _system()
        _submit_update(
            system, UpdateET([IncrementOp("x", 5)]), "site0", will_abort=True
        )
        system.run_to_quiescence()
        assert system.converged()
        assert system.sites["site1"].store.get("x") == 1
        assert system.method.stats.aborts == 1

    def test_aborted_result_status(self):
        system = _system()
        results = _submit_update(
            system, UpdateET([IncrementOp("x", 5)]), "site0", will_abort=True
        )
        system.run_to_quiescence()
        assert results[0].status == ETStatus.COMPENSATED

    def test_commutative_log_uses_direct_compensation(self):
        system = _system()
        _submit_update(
            system, UpdateET([IncrementOp("x", 5)]), "site0", will_abort=True
        )
        _submit_update(system, UpdateET([IncrementOp("x", 3)]), "site1")
        system.run_to_quiescence()
        assert system.method.stats.direct_compensations >= 1
        assert system.method.stats.rollback_replays == 0
        assert system.sites["site2"].store.get("x") == 4

    def test_non_commutative_log_uses_rollback_replay(self):
        method = CompensationBased(decision_delay=5.0, ordered=True)
        system = _system(method=method, latency=UniformLatency(0.2, 0.5))
        _submit_update(
            system, UpdateET([IncrementOp("x", 10)]), "site0", will_abort=True
        )
        system.run(until=2.0)  # let the Inc apply everywhere
        _submit_update(system, UpdateET([MultiplyOp("x", 2)]), "site1")
        system.run_to_quiescence()
        assert system.converged()
        # Inc aborted: only Mul survives -> x = 1 * 2, at every site,
        # each of which rolled back the Mul and replayed it.
        for name, engine in system.method.engines.items():
            assert engine.rollback_replays >= 1, name
            assert system.sites[name].store.get("x") == 2

    def test_abort_overtaking_update_is_safe(self):
        """ABORT decisions racing ahead of their update MSets."""
        system = _system(
            n=4, seed=3,
            method=CompensationBased(decision_delay=0.5),
            latency=UniformLatency(0.2, 12.0),
            loss_rate=0.1,
            retry_interval=2.0,
        )
        for i in range(10):
            _submit_update(
                system,
                UpdateET([IncrementOp("x", 1)]),
                "site%d" % (i % 4),
                will_abort=(i % 2 == 0),
            )
        system.run_to_quiescence()
        assert system.converged()
        assert system.sites["site0"].store.get("x") == 6  # 1 + 5 commits


class TestPessimisticFallback:
    def test_budget_exhaustion_switches_to_pessimistic(self):
        method = CompensationBased(decision_delay=2.0, max_compensations=1)
        system = _system(method=method)
        _submit_update(
            system, UpdateET([IncrementOp("x", 1)]), "site0", will_abort=True
        )
        system.run_to_quiescence()
        assert system.method.stats.aborts == 1
        # Budget used up: next updates run pessimistically.
        _submit_update(system, UpdateET([IncrementOp("x", 2)]), "site0")
        _submit_update(
            system, UpdateET([IncrementOp("x", 4)]), "site0", will_abort=True
        )
        system.run_to_quiescence()
        assert system.method.stats.pessimistic_updates == 2
        assert system.converged()
        assert system.sites["site1"].store.get("x") == 3  # 1 + 2

    def test_pessimistic_abort_has_no_effect_anywhere(self):
        method = CompensationBased(decision_delay=2.0, max_compensations=0)
        system = _system(method=method)
        results = _submit_update(
            system, UpdateET([IncrementOp("x", 9)]), "site0", will_abort=True
        )
        system.run_to_quiescence()
        assert results[0].status == ETStatus.ABORTED
        assert system.sites["site0"].store.get("x") == 1


class TestQueries:
    def test_query_charged_for_undecided_updates(self):
        system = _system(latency=UniformLatency(0.5, 1.0))
        _submit_update(system, UpdateET([IncrementOp("x", 5)]), "site0")
        system.submit(
            QueryET([ReadOp("x")], EpsilonSpec(import_limit=5)), "site0"
        )
        system.run_to_quiescence()
        query = [r for r in system.results if r.et.is_query][0]
        assert query.inconsistency >= 1

    def test_post_hoc_inconsistency_recorded(self):
        system = _system(latency=UniformLatency(0.2, 0.5))
        _submit_update(
            system, UpdateET([IncrementOp("x", 5)]), "site0", will_abort=True
        )
        system.submit(
            QueryET([ReadOp("x")], EpsilonSpec(import_limit=5)), "site0"
        )
        system.run_to_quiescence()
        assert system.method.stats.post_hoc_inconsistent_queries == 1

    def test_strict_query_waits_out_undecided_updates(self):
        system = _system(latency=UniformLatency(0.2, 0.5))
        _submit_update(system, UpdateET([IncrementOp("x", 5)]), "site0")
        system.submit(
            QueryET([ReadOp("x")], EpsilonSpec(import_limit=0)), "site0"
        )
        system.run_to_quiescence()
        query = [r for r in system.results if r.et.is_query][0]
        assert query.inconsistency == 0
        assert query.waits >= 1
        assert query.values["x"] == 6  # reads the committed state


class TestSagas:
    def test_successful_saga_commits_all_steps(self):
        system = _system(method=CompensationBased(decision_delay=1.0))
        steps = [
            (UpdateET([IncrementOp("x", 1)]), False),
            (UpdateET([IncrementOp("y", 2)]), False),
        ]
        outcomes = []
        system._pending_ets += 1

        def done(results):
            system._pending_ets -= 1
            outcomes.extend(results)

        system.method.submit_saga("s1", steps, "site0", done)
        system.run_to_quiescence()
        assert len(outcomes) == 2
        assert system.sites["site1"].store.get("x") == 2
        assert system.sites["site1"].store.get("y") == 3
        assert system.converged()

    def test_failing_saga_compensates_earlier_steps(self):
        system = _system(method=CompensationBased(decision_delay=1.0))
        steps = [
            (UpdateET([IncrementOp("x", 1)]), False),
            (UpdateET([IncrementOp("y", 2)]), True),  # fails
        ]
        system._pending_ets += 1

        def done(results):
            system._pending_ets -= 1

        system.method.submit_saga("s1", steps, "site0", done)
        system.run_to_quiescence()
        # Step 1 compensated, step 2 never committed: initial state.
        assert system.sites["site1"].store.get("x") == 1
        assert system.sites["site1"].store.get("y") == 1
        assert system.converged()


class TestLogGC:
    def test_log_bounded_under_committed_traffic(self):
        """'Remember the executed MSets until there is no risk of
        rollback' — and not a moment longer: decided updates' records
        are reclaimed, so the log does not grow with history."""
        system = _system(method=CompensationBased(decision_delay=1.0))
        for i in range(30):
            system.submit_at(
                i * 2.0,
                # schedule through the driver helper to set will_abort
                UpdateET([IncrementOp("x", 1)]),
                "site0",
            )
        # Replace default submit path with COMPE-aware submission.
        system.sim.run()
        system.run_to_quiescence()
        assert system.method.stats.log_records_reclaimed > 0
        for engine in system.method.engines.values():
            assert len(engine.log) == 0  # nothing left undecided

    def test_gc_spares_undecided_updates(self):
        method = CompensationBased(decision_delay=50.0)
        system = _system(method=method, latency=UniformLatency(0.2, 0.5))
        _submit_update(system, UpdateET([IncrementOp("x", 5)]), "site0")
        system.run(until=10.0)  # applied everywhere, still undecided
        log = system.method.engines["site0"].log
        assert log.records_of(1)  # retained: rollback possible
        system.run_to_quiescence()

    def test_gc_preserves_compensability(self):
        """Interleaved commits and aborts with GC running: every abort
        still compensates correctly."""
        method = CompensationBased(decision_delay=2.0)
        system = _system(method=method, latency=UniformLatency(0.2, 0.8))
        for i in range(12):
            _submit_update(
                system,
                UpdateET([IncrementOp("x", 1)]),
                "site%d" % (i % 3),
                will_abort=(i % 3 == 0),
            )
        system.run_to_quiescence()
        assert system.converged()
        # 12 submissions, every third aborts -> 8 survive.
        assert system.sites["site1"].store.get("x") == 9


class TestEngineLog:
    """The engine's one compensation record is its operation log."""

    @staticmethod
    def _inc_then_mul():
        """site0's undecided Inc(x, 10), then site1's Mul(x, 2): the
        §4.1 log whose suffix does not commute with the Inc's undo."""
        engine = CompeLiveEngine("site0")
        engine.store.put("x", 1)
        inc = engine.make_mset("site0:1", (IncrementOp("x", 10),))
        mul = MSet(
            "site1:1", MSetKind.UPDATE, (MultiplyOp("x", 2),),
            origin="site1",
        )
        engine.accept(inc, local=True)
        engine.accept(mul)
        return engine

    def test_a_restored_checkpoint_compensates_like_the_original(self):
        engine = self._inc_then_mul()
        assert engine.store.get("x") == 22
        image = json.loads(json.dumps(engine.checkpoint()))
        assert "undo" not in image["compe"]
        assert len(image["compe"]["log"]) == 2
        restored = CompeLiveEngine("site0")
        restored.restore(image)
        abort = MSet(
            "site0:2", MSetKind.ABORT, (), origin="site0",
            info=(("decides", "site0:1"),),
        )
        for each in (engine, restored):
            each.accept(abort)
            assert each.store.as_dict() == {"x": 2}
            assert each.rollback_replays == 1
            # The Mul is still undecided: its record stays.
            assert [r.tid for r in each.log.records] == ["site1:1"]
        # (The original's lock-counter still pins the Inc's drift; a
        # restored engine gets its counters back from the outbox.)
        assert restored.checkpoint()["compe"] == engine.checkpoint()["compe"]

    def test_the_log_is_cut_below_the_oldest_undecided_update(self):
        engine = self._inc_then_mul()
        commit = MSet(
            "site1:2", MSetKind.COMMIT, (), origin="site1",
            info=(("decides", "site1:1"),),
        )
        engine.accept(commit)
        # The Inc is undecided and older: nothing may go yet.
        assert len(engine.log) == 2
        commit = MSet(
            "site0:2", MSetKind.COMMIT, (), origin="site0",
            info=(("decides", "site0:1"),),
        )
        engine.accept(commit)
        assert len(engine.log) == 0
        assert engine.log_records_reclaimed == 2
        assert engine.store.get("x") == 22
