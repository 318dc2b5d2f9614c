"""Property-based tests: ESR invariants over randomized scenarios.

Hypothesis drives the whole stack: random workload shapes, random
latency spreads, random loss rates, random method choices — every run
must converge, stay 1SR, and respect epsilon bounds.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.transactions import reset_tid_counter
from repro.replica.base import ReplicatedSystem, SystemConfig
from repro.replica.host import CommutativeOperations
from repro.replica.host import CompensationBased
from repro.replica.host import OrderedUpdates
from repro.replica.host import ReadIndependentUpdates
from repro.sim.network import UniformLatency
from repro.workload.generator import WorkloadGenerator, WorkloadSpec, drive

_SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

_METHOD_STRATEGY = st.sampled_from([
    ("ordup", lambda: OrderedUpdates(), "mixed"),
    ("commu", lambda: CommutativeOperations(), "commutative"),
    ("ritu", lambda: ReadIndependentUpdates(), "blind"),
    ("compe", lambda: CompensationBased(decision_delay=3.0), "commutative"),
])


def _run(method_factory, style, seed, wl_seed, n_sites, loss, epsilon, count):
    reset_tid_counter()
    config = SystemConfig(
        n_sites=n_sites,
        seed=seed,
        latency=UniformLatency(0.2, 2.5),
        loss_rate=loss,
        retry_interval=2.5,
        initial=tuple(("x%d" % i, 1) for i in range(5)),
    )
    system = ReplicatedSystem(method_factory(), config)
    spec = WorkloadSpec(
        n_keys=5,
        count=count,
        query_fraction=0.4,
        style=style,
        epsilon=epsilon,
        mean_interarrival=0.7,
        abort_rate=0.2 if isinstance(system.method, CompensationBased) else 0.0,
    )
    drive(
        system,
        WorkloadGenerator(spec, sorted(system.sites), wl_seed).generate(),
        compe_aborts=isinstance(system.method, CompensationBased),
    )
    system.run_to_quiescence()
    return system


class TestRandomizedInvariants:
    @_SETTINGS
    @given(
        method=_METHOD_STRATEGY,
        seed=st.integers(min_value=0, max_value=10_000),
        wl_seed=st.integers(min_value=0, max_value=10_000),
        n_sites=st.integers(min_value=2, max_value=5),
        loss=st.sampled_from([0.0, 0.05, 0.15]),
        epsilon=st.sampled_from([0, 1, 3, float("inf")]),
    )
    def test_always_converges_and_stays_bounded(
        self, method, seed, wl_seed, n_sites, loss, epsilon
    ):
        name, factory, style = method
        system = _run(
            factory, style, seed, wl_seed, n_sites, loss, epsilon, count=40
        )
        assert system.converged(), name
        assert system.is_one_copy_serializable(), name
        for result in system.results:
            if result.et.is_query:
                assert result.inconsistency <= epsilon, name
                assert result.inconsistency <= len(result.overlap), name


class TestCommutativeStateEquivalence:
    @_SETTINGS
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        amounts=st.lists(
            st.integers(min_value=1, max_value=50), min_size=1, max_size=12
        ),
    )
    def test_final_counter_is_sum_of_increments(self, seed, amounts):
        """COMMU semantics: the replicated counter equals the serial sum
        regardless of delivery schedule."""
        from repro.core.operations import IncrementOp
        from repro.core.transactions import UpdateET

        reset_tid_counter()
        config = SystemConfig(
            n_sites=3,
            seed=seed,
            latency=UniformLatency(0.1, 5.0),
            loss_rate=0.1,
            retry_interval=2.0,
            initial=(("c", 0),),
        )
        system = ReplicatedSystem(CommutativeOperations(), config)
        for i, amount in enumerate(amounts):
            system.submit_at(
                float(i) * 0.2,
                UpdateET([IncrementOp("c", amount)]),
                "site%d" % (i % 3),
            )
        system.run_to_quiescence()
        assert system.converged()
        assert system.sites["site0"].store.get("c") == sum(amounts)


class TestRITULastWriterWins:
    @_SETTINGS
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        values=st.lists(
            st.integers(min_value=0, max_value=999), min_size=1, max_size=10
        ),
    )
    def test_all_replicas_agree_on_one_winner(self, seed, values):
        from repro.core.operations import WriteOp
        from repro.core.transactions import UpdateET

        reset_tid_counter()
        config = SystemConfig(
            n_sites=3,
            seed=seed,
            latency=UniformLatency(0.1, 5.0),
            loss_rate=0.1,
            retry_interval=2.0,
            initial=(("k", -1),),
        )
        system = ReplicatedSystem(ReadIndependentUpdates(), config)
        for i, value in enumerate(values):
            system.submit_at(
                float(i) * 0.1,
                UpdateET([WriteOp("k", value)]),
                "site%d" % (i % 3),
            )
        system.run_to_quiescence()
        winners = {s.store.get("k") for s in system.sites.values()}
        assert len(winners) == 1
        assert winners.pop() in values
