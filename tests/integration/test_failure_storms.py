"""Failure-storm property tests: random crash/partition schedules.

Every method must deliver the full ESR audit (convergence, 1SR,
epsilon bounds, overlap bounds) under randomized combinations of
crashes, partitions, message loss, and workload shapes.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.transactions import reset_tid_counter
from repro.harness.audit import audit
from repro.replica.base import ReplicatedSystem, SystemConfig
from repro.replica.host import CommutativeOperations
from repro.replica.host import CompensationBased
from repro.replica.host import OrderedUpdates
from repro.replica.host import ReadIndependentUpdates
from repro.sim.failures import CrashEvent, FailureInjector, PartitionEvent
from repro.sim.network import UniformLatency
from repro.workload.generator import WorkloadGenerator, WorkloadSpec, drive

_SETTINGS = settings(max_examples=10, deadline=None,
                     suppress_health_check=[HealthCheck.data_too_large])

_METHODS = st.sampled_from([
    ("ordup", lambda: OrderedUpdates(), "mixed"),
    ("commu", lambda: CommutativeOperations(), "commutative"),
    ("ritu", lambda: ReadIndependentUpdates(), "blind"),
    ("compe", lambda: CompensationBased(decision_delay=3.0), "commutative"),
])

_CRASHES = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),  # site index
        st.floats(min_value=1.0, max_value=40.0),  # at
        st.floats(min_value=1.0, max_value=15.0),  # duration
    ),
    max_size=3,
)

_PARTITIONS = st.lists(
    st.tuples(
        st.floats(min_value=1.0, max_value=40.0),  # at
        st.floats(min_value=2.0, max_value=20.0),  # duration
        st.integers(min_value=1, max_value=3),  # split point
    ),
    max_size=2,
)


class TestFailureStorms:
    @_SETTINGS
    @given(
        method=_METHODS,
        crashes=_CRASHES,
        partitions=_PARTITIONS,
        seed=st.integers(min_value=0, max_value=5_000),
        loss=st.sampled_from([0.0, 0.1]),
    )
    def test_full_audit_survives_any_storm(
        self, method, crashes, partitions, seed, loss
    ):
        name, factory, style = method
        reset_tid_counter()
        config = SystemConfig(
            n_sites=4,
            seed=seed,
            latency=UniformLatency(0.3, 2.0),
            loss_rate=loss,
            retry_interval=2.5,
            initial=tuple(("x%d" % i, 1) for i in range(4)),
        )
        system = ReplicatedSystem(factory(), config)
        names = sorted(system.sites)

        injector = FailureInjector(
            system.sim, system.network, system.sites,
            on_heal=system.kick_queues,
        )
        # Keep failure windows disjoint-ish and bounded so quiescence
        # is reachable; overlapping windows are fine, the point is
        # that every failure eventually heals.
        for site_idx, at, duration in crashes:
            injector.schedule_crash(
                CrashEvent(names[site_idx], at, duration)
            )
        for at, duration, split in partitions:
            injector.schedule_partition(
                PartitionEvent(
                    (tuple(names[:split]), tuple(names[split:])),
                    at,
                    duration,
                )
            )

        spec = WorkloadSpec(
            n_keys=4,
            count=40,
            query_fraction=0.35,
            style=style,
            epsilon=3,
            mean_interarrival=0.8,
            abort_rate=0.15 if name == "compe" else 0.0,
        )
        drive(
            system,
            WorkloadGenerator(spec, names, seed * 3 + 1).generate(),
            compe_aborts=(name == "compe"),
        )
        system.run_to_quiescence(max_time=100_000.0)

        report = audit(system)
        # Crashed-site queries may abort; that is allowed.  Everything
        # that committed must satisfy the full ESR contract.
        assert report.ok, report.problems()
