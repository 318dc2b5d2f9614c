"""Integration tests: the paper's ESR guarantees, end to end.

For every replica control method, on realistic workloads with network
hazards, we assert the four pillars of section 2:

1. **Convergence** — at quiescence all replicas hold identical values.
2. **1SR updates** — committed update ETs are one-copy serializable.
3. **Bounded error** — every query's inconsistency counter respects its
   epsilon spec.
4. **Overlap bound** — measured error never exceeds the query's overlap
   (the theorem of section 2.1).
"""

import pytest

from repro.core.transactions import reset_tid_counter
from repro.replica.base import ReplicatedSystem, SystemConfig
from repro.replica.host import CommutativeOperations
from repro.replica.host import CompensationBased
from repro.replica.host import OrderedUpdates
from repro.replica.host import ReadIndependentUpdates
from repro.sim.failures import CrashEvent, FailureInjector, PartitionEvent
from repro.sim.network import UniformLatency
from repro.workload.generator import WorkloadGenerator, WorkloadSpec, drive


@pytest.fixture(autouse=True)
def _fresh():
    reset_tid_counter()


METHODS = [
    ("ordup-central", lambda: OrderedUpdates(), "mixed"),
    ("ordup-lamport", lambda: OrderedUpdates(ordering="lamport"), "mixed"),
    ("commu", lambda: CommutativeOperations(), "commutative"),
    ("ritu-mv", lambda: ReadIndependentUpdates(), "blind"),
    (
        "ritu-ow",
        lambda: ReadIndependentUpdates(versioning="overwrite"),
        "blind",
    ),
    ("compe", lambda: CompensationBased(decision_delay=4.0), "commutative"),
    (
        "compe-ordered",
        lambda: CompensationBased(decision_delay=4.0, ordered=True),
        "mixed",
    ),
]


def _run(factory, style, seed, epsilon=3, failures=None, count=80):
    config = SystemConfig(
        n_sites=4,
        seed=seed,
        latency=UniformLatency(0.3, 3.0),
        loss_rate=0.05,
        retry_interval=3.0,
        initial=tuple(("x%d" % i, 1) for i in range(6)),
    )
    system = ReplicatedSystem(factory(), config)
    if failures:
        failures(system)
    spec = WorkloadSpec(
        n_keys=6,
        count=count,
        query_fraction=0.4,
        style=style,
        epsilon=epsilon,
        mean_interarrival=0.8,
        abort_rate=0.15 if isinstance(system.method, CompensationBased) else 0.0,
    )
    generator = WorkloadGenerator(spec, sorted(system.sites), seed * 13 + 1)
    drive(
        system,
        generator.generate(),
        compe_aborts=isinstance(system.method, CompensationBased),
    )
    system.run_to_quiescence()
    return system


@pytest.mark.parametrize("name,factory,style", METHODS)
class TestCleanNetwork:
    def test_convergence(self, name, factory, style):
        system = _run(factory, style, seed=1)
        assert system.converged(), "replicas diverged under %s" % name

    def test_one_copy_serializability(self, name, factory, style):
        system = _run(factory, style, seed=2)
        assert system.is_one_copy_serializable()

    def test_epsilon_bound_respected(self, name, factory, style):
        system = _run(factory, style, seed=3, epsilon=2)
        for result in system.results:
            if result.et.is_query:
                assert result.inconsistency <= 2, (
                    "query %s exceeded epsilon under %s"
                    % (result.et.tid, name)
                )

    def test_error_bounded_by_overlap(self, name, factory, style):
        """Section 2.1: 'The overlap is an upper bound of error.'

        The bound is checked against the online overlap tracker, which
        implements the paper's definition over full ET lifetimes
        (submission to full propagation — and, for COMPE, to the global
        decision).
        """
        system = _run(factory, style, seed=4)
        for result in system.results:
            if not result.et.is_query:
                continue
            bound = len(result.overlap)
            assert result.inconsistency <= bound, (
                "error %d > overlap %d for query %s under %s"
                % (result.inconsistency, bound, result.et.tid, name)
            )


@pytest.mark.parametrize("name,factory,style", METHODS)
class TestUnderFailures:
    def _failures(self, system):
        injector = FailureInjector(
            system.sim,
            system.network,
            system.sites,
            on_heal=system.kick_queues,
        )
        injector.schedule_partition(
            PartitionEvent(
                (("site0", "site1"), ("site2", "site3")),
                at=10.0,
                duration=25.0,
            )
        )
        injector.schedule_crash(CrashEvent("site3", at=45.0, duration=10.0))

    def test_convergence_despite_partition_and_crash(
        self, name, factory, style
    ):
        system = _run(factory, style, seed=5, failures=self._failures)
        assert system.converged(), "%s diverged under failures" % name

    def test_one_copy_sr_despite_failures(self, name, factory, style):
        system = _run(factory, style, seed=6, failures=self._failures)
        assert system.is_one_copy_serializable()


class TestStrictLimitRecoversSR:
    """Section 2.2: 'In the limit, users see strict 1-copy
    serializability' — epsilon 0 queries import nothing."""

    @pytest.mark.parametrize("name,factory,style", METHODS)
    def test_epsilon_zero_queries_have_zero_error(
        self, name, factory, style
    ):
        system = _run(factory, style, seed=7, epsilon=0, count=60)
        queries = [r for r in system.results if r.et.is_query]
        assert queries
        assert all(r.inconsistency == 0 for r in queries)
