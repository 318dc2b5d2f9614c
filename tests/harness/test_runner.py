"""Tests for the experiment runner."""

import pytest

from repro.harness.runner import divergence_trace, run_experiment
from repro.replica.base import ReplicatedSystem, SystemConfig
from repro.replica.host import CommutativeOperations
from repro.sim.network import ConstantLatency
from repro.workload.generator import WorkloadSpec


def _config(**kw):
    defaults = dict(
        n_sites=3,
        seed=1,
        latency=ConstantLatency(1.0),
        initial=(("x0", 0), ("x1", 0)),
    )
    defaults.update(kw)
    return SystemConfig(**defaults)


def _spec(**kw):
    defaults = dict(
        n_keys=2, count=30, query_fraction=0.5,
        style="commutative", epsilon=2, mean_interarrival=1.0,
    )
    defaults.update(kw)
    return WorkloadSpec(**defaults)


class TestRunExperiment:
    def test_basic_run(self):
        result = run_experiment(CommutativeOperations, _config(), _spec())
        assert result.converged
        assert result.one_copy_serializable
        assert result.metrics.total_ets == 30
        assert result.quiescence_time > 0

    def test_determinism(self):
        a = run_experiment(CommutativeOperations, _config(), _spec())
        b = run_experiment(CommutativeOperations, _config(), _spec())
        assert a.metrics == b.metrics
        assert a.quiescence_time == b.quiescence_time

    def test_different_workload_seed_differs(self):
        a = run_experiment(
            CommutativeOperations, _config(), _spec(), workload_seed=1
        )
        b = run_experiment(
            CommutativeOperations, _config(), _spec(), workload_seed=2
        )
        assert a.quiescence_time != b.quiescence_time

    def test_system_not_kept_by_default(self):
        result = run_experiment(CommutativeOperations, _config(), _spec())
        assert result.system is None

    def test_keep_system(self):
        result = run_experiment(
            CommutativeOperations, _config(), _spec(), keep_system=True
        )
        assert result.system is not None

    def test_query_accounting_populated(self):
        result = run_experiment(CommutativeOperations, _config(), _spec())
        assert result.query_inconsistency
        assert set(result.query_inconsistency) <= set(
            result.query_overlap_bound
        ) | set(result.query_inconsistency)

    def test_audits_one_copy_serializability_once(self, monkeypatch):
        """The run's guarantees come from one ``audit`` call; the 1SR
        check (the costliest of the four) is not repeated beside it."""
        calls = []
        check = ReplicatedSystem.is_one_copy_serializable

        def counted(system):
            calls.append(system)
            return check(system)

        monkeypatch.setattr(
            ReplicatedSystem, "is_one_copy_serializable", counted
        )
        result = run_experiment(CommutativeOperations, _config(), _spec())
        assert result.one_copy_serializable
        assert len(calls) == 1

    def test_failures_hook_invoked(self):
        seen = []
        run_experiment(
            CommutativeOperations,
            _config(),
            _spec(),
            failures=lambda system: seen.append(len(system.sites)),
        )
        assert seen == [3]


class TestDivergenceTrace:
    def test_trace_ends_at_zero(self):
        times, values, quiescence = divergence_trace(
            CommutativeOperations,
            _config(latency=ConstantLatency(3.0)),
            _spec(query_fraction=0.0, count=20),
            sample_every=2.0,
        )
        assert len(times) == len(values)
        assert values[-1] == 0.0
        assert times[-1] == quiescence

    def test_trace_shows_transient_divergence(self):
        times, values, _ = divergence_trace(
            CommutativeOperations,
            _config(latency=ConstantLatency(6.0)),
            _spec(query_fraction=0.0, count=20, mean_interarrival=0.5),
            sample_every=1.0,
        )
        assert max(values) > 0.0
